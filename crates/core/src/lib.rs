//! # Bayonet: probabilistic inference for networks
//!
//! A from-scratch Rust reproduction of *Bayonet: Probabilistic Inference
//! for Networks* (Gehr, Misailovic, Tsankov, Vanbever, Wiesmann, Vechev —
//! PLDI 2018).
//!
//! Bayonet is (i) a probabilistic network programming language — topology,
//! per-node packet-processing programs with `flip`/`uniformInt` draws,
//! capacity-bounded queues, probabilistic schedulers, `observe`-based
//! Bayesian conditioning — and (ii) a system answering `probability(b)` and
//! `expectation(e)` queries about terminal network states, by compiling
//! networks to probabilistic programs and running exact (PSI-role) or
//! approximate (WebPPL-role, SMC) inference. Symbolic configuration
//! parameters turn inference into *synthesis*: query values are reported
//! piecewise over parameter-space cells, each with a concrete witness.
//!
//! ## Quickstart
//!
//! ```
//! use bayonet::Network;
//! use bayonet_num::Rat;
//!
//! let network = Network::from_source(r#"
//!     packet_fields { dst }
//!     topology { nodes { H0, H1 } links { (H0, pt1) <-> (H1, pt1) } }
//!     programs { H0 -> send, H1 -> recv }
//!     init { packet -> (H0, pt1); }
//!     query probability(got@H1 == 1);
//!
//!     def send(pkt, pt) {
//!         if flip(3/4) { fwd(1); } else { drop; }
//!     }
//!     def recv(pkt, pt) state got(0) { got = 1; drop; }
//! "#)?;
//!
//! // Exact inference (the paper's PSI backend):
//! let report = network.exact()?;
//! assert_eq!(*report.results[0].rat(), Rat::ratio(3, 4));
//!
//! // Approximate inference (the paper's WebPPL/SMC backend):
//! let est = network.smc(0, &Default::default())?;
//! assert!((est.value - 0.75).abs() < 0.05);
//! # Ok::<(), bayonet::Error>(())
//! ```
//!
//! ## Crate map
//!
//! * [`Network`] — parse → integrity-check → compile → infer façade.
//! * [`scenarios`] — builders for every benchmark of the paper's §5
//!   evaluation (congestion, reliability, gossip, Bayesian load-balancing,
//!   strategy inference), including the 30-node scaled variants.
//! * [`synthesize`] — parameter synthesis over symbolic link costs (§2.3).
//! * Re-exports of the underlying engines for advanced use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
pub mod ospf;
pub mod scenarios;
mod synthesis;

pub use error::Error;
pub use network::{ExactReport, Network};
pub use scenarios::Sched;
pub use synthesis::{synthesize, synthesize_with, Objective, Synthesis, SynthesisOptions};

pub use bayonet_approx::{ApproxOptions, Estimate, SimEvent, Simulation};
pub use bayonet_exact::{
    plan_model, CellAnswer, ComputePool, EngineKind, EngineStats, ExactOptions, FeasibilityCache,
    Plan, PlanDecision, PlanEngine, PlanSignals, PlannerConfig, PoolStats, QueryResult,
};
pub use bayonet_lang::{check, parse, pretty_program};
pub use bayonet_net::opt;
pub use bayonet_net::opt::{OptInfo, OptReport};
pub use bayonet_net::{
    scheduler_for, DeterministicScheduler, Model, QueryKind, RotorScheduler, Scheduler,
    UniformScheduler, WeightedScheduler,
};
pub use bayonet_num::Rat;
