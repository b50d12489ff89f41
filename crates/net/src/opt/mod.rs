//! Model-optimization pass pipeline.
//!
//! [`optimize`] runs a fixed sequence of semantics-preserving passes over a
//! compiled [`Model`] and attaches an [`OptInfo`] describing what happened:
//!
//! * **constant folding / guard hoisting** (`fold`) — folds constant
//!   subexpressions and constant-valued guards (`if`, `while`, `assert`,
//!   `observe`) so the enumerator never branches on them, and hoists
//!   loop-invariant local bindings out of `while` bodies;
//! * **dead-flip elimination** (`dead_flip`) — removes `flip` /
//!   `uniformInt` sites (and other total assignments) whose results are
//!   never read by the handler or any query, an exponential frontier cut
//!   per removed site;
//! * **topology symmetry reduction** (`symmetry`) — finds the
//!   automorphism group of the compiled topology (program equality +
//!   port-consistent adjacency permutations) so the exact engines can
//!   canonicalize frontier configurations by orbit representative.
//!
//! Every pass is **binding-independent**: parameters are never folded, so
//! one optimized model serves every batch item and sweep point regardless
//! of its bindings. Posteriors (query results, `Z`, discarded mass) are
//! bit-identical to the unoptimized run; only engine statistics (steps,
//! expansions, peak frontier) change — that is the win.

mod dead_flip;
mod facts;
mod fold;
mod symmetry;

use std::fmt::Write as _;
use std::sync::Arc;

use crate::compile::Model;

pub use facts::{model_facts, ModelFacts};
pub use symmetry::SymmetryGroup;

/// Which passes to run. All passes default to on; the CLI's `--no-opt` and
/// the serve API's `"passes": false` skip [`optimize`] entirely instead of
/// toggling individual passes.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// Constant folding + guard folding + loop-invariant hoisting.
    pub fold: bool,
    /// Dead-flip / dead-assignment elimination.
    pub dead_flip: bool,
    /// Topology symmetry (automorphism orbit) detection.
    pub symmetry: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            fold: true,
            dead_flip: true,
            symmetry: true,
        }
    }
}

/// Per-pass statistics, rendered by `--explain-passes` and exported as
/// `bayonet_opt_*` metrics by the serve layer.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Number of pass executions (fold and dead-flip iterate to fixpoint).
    pub pass_runs: u64,
    /// Constant subexpressions folded.
    pub consts_folded: u64,
    /// Constant-valued guards folded (`if`/`while`/`assert`/`observe`).
    pub guards_folded: u64,
    /// Loop-invariant local bindings hoisted out of `while` bodies.
    pub hoisted: u64,
    /// Dead statements removed.
    pub dead_stmts: u64,
    /// `flip`/`uniformInt` sites eliminated (dead statements + zeroed
    /// state initializers).
    pub flips_eliminated: u64,
    /// Randomized state initializers of dead slots replaced by `0`.
    pub inits_zeroed: u64,
    /// Order of the detected automorphism group (1 = trivial).
    pub group_order: usize,
    /// Non-trivial node orbits under the group (singletons omitted).
    pub orbits: Vec<Vec<usize>>,
    /// Why the group is trivial, or how it was found.
    pub symmetry_note: String,
}

impl OptReport {
    /// Multi-line human-readable rendering (the CLI's `--explain-passes`).
    pub fn explain(&self, node_names: &[String]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "passes: {} pass runs", self.pass_runs);
        let _ = writeln!(
            out,
            "  fold: {} constants folded, {} guards folded, {} bindings hoisted",
            self.consts_folded, self.guards_folded, self.hoisted
        );
        let _ = writeln!(
            out,
            "  dead-flip: {} dead statements removed ({} random sites eliminated, \
             {} randomized initializers zeroed)",
            self.dead_stmts, self.flips_eliminated, self.inits_zeroed
        );
        let _ = writeln!(
            out,
            "  symmetry: group order {} ({})",
            self.group_order, self.symmetry_note
        );
        for orbit in &self.orbits {
            let names: Vec<&str> = orbit
                .iter()
                .map(|&i| node_names.get(i).map(String::as_str).unwrap_or("?"))
                .collect();
            let _ = writeln!(out, "    orbit: {{{}}}", names.join(", "));
        }
        out
    }
}

/// Everything the pass pipeline learned about a model: the pass report, the
/// cost-model facts (one traversal, reused by the planner), and the
/// symmetry group the engines canonicalize with.
#[derive(Debug)]
pub struct OptInfo {
    /// What each pass did.
    pub report: OptReport,
    /// Cost-model signals gathered in the same traversal (see
    /// [`model_facts`]); the planner consumes these instead of re-walking
    /// the model.
    pub facts: ModelFacts,
    /// The automorphism group, when non-trivial.
    pub symmetry: Option<SymmetryGroup>,
}

/// Runs the default pass pipeline over `model`, returning the optimized
/// model with an [`OptInfo`] attached (see [`Model::opt_info`]).
///
/// The input model is not modified; programs that no pass touches stay
/// shared with the input via [`Arc`].
pub fn optimize(model: &Model) -> Model {
    optimize_with(model, &PassConfig::default())
}

/// Runs the pass pipeline with an explicit [`PassConfig`].
pub fn optimize_with(model: &Model, cfg: &PassConfig) -> Model {
    let mut m = model.clone();
    let mut report = OptReport::default();
    // Fold and dead-flip enable each other (folding a guard exposes dead
    // assignments; removing dead reads exposes further dead slots), so they
    // iterate to a fixpoint. The bound is a safety net; two or three rounds
    // settle every realistic program.
    for _ in 0..8 {
        let mut changed = false;
        if cfg.fold {
            report.pass_runs += 1;
            changed |= fold::run(&mut m, &mut report);
        }
        if cfg.dead_flip {
            report.pass_runs += 1;
            changed |= dead_flip::run(&mut m, &mut report);
        }
        if !changed {
            break;
        }
    }
    let symmetry = if cfg.symmetry {
        report.pass_runs += 1;
        let (group, note) = symmetry::find_symmetry(&m);
        report.symmetry_note = note;
        match &group {
            Some(g) => {
                report.group_order = g.order();
                report.orbits = g.orbits().into_iter().filter(|o| o.len() > 1).collect();
            }
            None => report.group_order = 1,
        }
        group
    } else {
        report.group_order = 1;
        report.symmetry_note = "symmetry pass disabled".into();
        None
    };
    let facts = facts::model_facts(&m);
    m.opt_info = Some(Arc::new(OptInfo {
        report,
        facts,
        symmetry,
    }));
    m
}
