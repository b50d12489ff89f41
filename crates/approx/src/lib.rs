//! Approximate probabilistic inference for Bayonet networks.
//!
//! The reproduction's stand-in for WebPPL: the paper's evaluation uses
//! WebPPL's **Sequential Monte Carlo** with 1000 particles for the larger
//! topologies (30-node congestion/reliability chains, K20/K30 gossip). This
//! crate implements [`smc`] — lockstep particle advancement with
//! observation-driven resampling — plus plain [`rejection`] sampling, over
//! the same compiled network model the exact engine uses.
//!
//! # Examples
//!
//! ```
//! use bayonet_lang::parse;
//! use bayonet_net::{compile, scheduler_for};
//! use bayonet_approx::{smc, ApproxOptions};
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
//! let est = smc(&model, &*scheduler_for(&model), &model.queries[0],
//!               &ApproxOptions { particles: 2000, ..Default::default() })?;
//! assert!((est.value - 1.0 / 3.0).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod engine;
mod trace;

pub use driver::{sample_initial, sample_step, SampleDriver, StepOutcome};
pub use engine::{
    rejection, render_estimate, sample_trace, smc, ApproxError, ApproxOptions, Estimate,
};
pub use trace::{simulate, SimEvent, Simulation};
