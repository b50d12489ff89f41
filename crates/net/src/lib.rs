//! The Bayonet network substrate: executable semantics of probabilistic
//! networks (PLDI'18, §3).
//!
//! This crate turns a parsed Bayonet program into an executable [`Model`]
//! and implements the paper's operational semantics:
//!
//! * **Local semantics** (Figure 5) — [`run_handler`] executes one node's
//!   packet-processing program to completion, parameterized by a
//!   [`ChoiceDriver`] so the same interpreter serves exact enumeration and
//!   sampling.
//! * **Global semantics** (Figure 7) — [`deliver`] implements `(Fwd, i)`;
//!   enabledness and termination live on [`GlobalConfig`].
//! * **Schedulers** (Figure 6) — [`UniformScheduler`],
//!   [`DeterministicScheduler`], [`WeightedScheduler`], [`RotorScheduler`].
//!
//! The inference engines live in `bayonet-exact` and `bayonet-approx`; the
//! user-facing API in the `bayonet` crate.
//!
//! # Examples
//!
//! ```
//! use bayonet_lang::parse;
//! use bayonet_net::compile;
//!
//! let program = parse(r#"
//!     packet_fields { dst }
//!     topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
//!     programs { A -> fwd_all, B -> count }
//!     init { packet -> (A, pt1); }
//!     query expectation(n@B);
//!     def fwd_all(pkt, pt) { fwd(1); }
//!     def count(pkt, pt) state n(0) { n = n + 1; drop; }
//! "#)?;
//! let model = compile(&program)?;
//! assert_eq!(model.num_nodes(), 2);
//! assert_eq!(model.link_dest(0, 1), Some((1, 1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the `poll` module is the one sanctioned
// exception — raw epoll/rlimit syscalls for the serve layer's event loop,
// each unsafe block a single documented FFI call. Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod config;
mod deadline;
mod error;
mod fsio;
mod global;
mod handler;
pub mod opt;
mod poll;
mod queue;
mod scheduler;
mod value;

pub use compile::{
    compile, CExpr, CStmt, CompileError, CompiledProgram, CompiledQuery, InitPacketSpec, Model,
    ParamWatch, QExpr, QueryKind, SchedKind, DEFAULT_LOCAL_STEP_LIMIT, DEFAULT_QUEUE_CAPACITY,
};
pub use config::{Action, GlobalConfig, NodeConfig};
pub use deadline::{CancelHandle, Deadline};
pub use error::SemanticsError;
pub use fsio::{atomic_write, fsync_dir};
pub use global::{deliver, depart, initial_config};
pub use handler::{
    build_init_packet, compare, eval_query_expr, eval_state_init, run_handler, truth_of,
    ChoiceDriver, HandlerOutcome, NoChoiceDriver,
};
pub use poll::{nofile_limit, open_fd_count, raise_nofile_limit, Interest, PollEvent, Poller};
pub use queue::{Packet, PktQueue, QueueEntry};
pub use scheduler::{
    scheduler_for, DeterministicScheduler, RotorScheduler, Scheduler, UniformScheduler,
    WeightedScheduler,
};
pub use value::{DisplayVal, Val};
