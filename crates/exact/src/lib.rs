//! Exact probabilistic inference for Bayonet networks.
//!
//! This crate is the reproduction's stand-in for PSI, the exact symbolic
//! solver the paper compiles to: it computes the **exact posterior** over
//! terminal network configurations by exhaustive weighted exploration of
//! the global transition system (with configuration merging), handles
//! `observe` conditioning by renormalizing with the surviving mass `Z`, and
//! supports **symbolic configuration parameters** by case-splitting on the
//! sign of linear expressions — producing the piecewise results of paper
//! Figure 3 and enabling parameter synthesis (§2.3).
//!
//! # Examples
//!
//! ```
//! use bayonet_lang::parse;
//! use bayonet_net::{compile, scheduler_for};
//! use bayonet_exact::{analyze, answer, ExactOptions};
//! use bayonet_num::Rat;
//!
//! let model = compile(&parse(r#"
//!     packet_fields { dst }
//!     topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
//!     programs { A -> send, B -> recv }
//!     init { packet -> (A, pt1); }
//!     query probability(got@B == 1);
//!     def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
//!     def recv(pkt, pt) state got(0) { got = 1; drop; }
//! "#)?)?;
//! let analysis = analyze(&model, &*scheduler_for(&model), &ExactOptions::default())?;
//! let result = answer(&model, &analysis, &model.queries[0], true)?;
//! assert_eq!(*result.rat(), Rat::ratio(1, 3));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd_engine;
mod engine;
mod enumerate;
pub mod planner;
mod pool;
mod query;
mod render;
mod store;
mod sweep;
mod synthesize;

pub use bayonet_symbolic::FeasibilityCache;
pub use engine::{
    analyze, analyze_keeping, Analysis, EngineKind, EngineStats, ExactError, ExactOptions, KeptDag,
    Reuse,
};
pub use enumerate::{enumerate_eval, enumerate_eval_cached, Branch, ReplayDriver};
pub use planner::{plan_model, Plan, PlanDecision, PlanEngine, PlanSignals, PlannerConfig};
pub use pool::{fan_out, ComputePool, PoolLease, PoolStats};
pub use query::{
    answer, answer_cached, value_distribution, CellAnswer, QueryResult, MAX_CELL_ATOMS,
};
pub use render::{render_run, render_synthesis};
pub use sweep::{sweep, SweepPointResult, SweepResult, SweepRoute};
pub use synthesize::{synthesize_result, Objective, Synthesis, SynthesisError, SynthesisOptions};
