//! The Bayonet probabilistic network programming language (PLDI'18).
//!
//! This crate is the language front-end of the Bayonet reproduction: lexer,
//! parser, AST, pretty-printer, and the static integrity checks of paper §4.
//! A Bayonet source file declares
//!
//! * `packet_fields { ... }` — the packet header fields,
//! * `parameters { ... }` — symbolic configuration parameters (for
//!   synthesis, §2.3),
//! * `topology { nodes { ... } links { ... } }` — the network graph,
//! * `programs { Node -> prog, ... }` — which program each node runs,
//! * `queue_capacity N;` / `num_steps N;` / `scheduler ...;` — execution
//!   configuration,
//! * `init { packet -> (Node, ptK) { field = v }; ... }` — packets present
//!   at time zero,
//! * `query probability(b);` / `query expectation(e);` — the questions to
//!   answer (Figure 8), and
//! * `def prog(pkt, pt) state x(init) { ... }` — probabilistic
//!   packet-processing programs (Figure 4).
//!
//! # Examples
//!
//! ```
//! use bayonet_lang::{parse, check};
//!
//! let program = parse(r#"
//!     packet_fields { dst }
//!     topology {
//!         nodes { H0, H1 }
//!         links { (H0, pt1) <-> (H1, pt1) }
//!     }
//!     programs { H0 -> send, H1 -> recv }
//!     init { packet -> (H0, pt1); }
//!     query probability(got@H1 == 1);
//!
//!     def send(pkt, pt) {
//!         if flip(1/2) { fwd(1); } else { drop; }
//!     }
//!     def recv(pkt, pt) state got(0) {
//!         got = 1;
//!         drop;
//!     }
//! "#)?;
//! let report = check(&program).expect("integrity checks pass");
//! assert!(report.warnings.is_empty());
//! # Ok::<(), bayonet_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod check;
mod error;
mod lexer;
mod parser;
mod pretty;
pub mod testgen;
pub mod token;

pub use ast::{
    BinOp, Endpoint, Expr, Ident, InitPacket, Link, NodeDef, Program, Query, SchedulerSpec, Stmt,
    Topology,
};
pub use check::{check, const_eval, CheckReport, Warning};
pub use error::{LangError, Phase};
pub use lexer::lex;
pub use parser::{parse, parse_expr, MAX_NESTING, MAX_OPERATORS};
pub use pretty::{pretty_expr, pretty_program, pretty_stmts};
