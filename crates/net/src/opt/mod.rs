//! Model analysis for the exact engines.
//!
//! [`optimize`] never rewrites a program: it returns the compiled [`Model`]
//! (every program still shared with the input via [`Arc`]) with an
//! [`OptInfo`] attached, holding
//!
//! * the **topology symmetry group** (`symmetry`) — the automorphism group
//!   of the compiled topology (program equality + port-consistent adjacency
//!   permutations), which the exact engines use to canonicalize frontier
//!   configurations by orbit representative;
//! * the **cost-model facts** ([`model_facts`]) the planner reads instead
//!   of re-walking the model.
//!
//! Both are **binding-independent**: parameters are never read, so one
//! optimized model serves every batch item and sweep point regardless of
//! its bindings. Posteriors (query results, `Z`, discarded mass) are
//! bit-identical to the unoptimized run; only engine statistics (steps,
//! expansions, peak frontier, orbit merges) change — that is the win.

mod facts;
mod symmetry;

use std::fmt::Write as _;
use std::sync::Arc;

use crate::compile::Model;

pub use facts::{model_facts, ModelFacts};
pub use symmetry::SymmetryGroup;

/// What the symmetry search found, rendered by `--explain-passes` and
/// `--stats`.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
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
        let _ = writeln!(
            out,
            "symmetry: group order {} ({})",
            self.group_order, self.symmetry_note
        );
        for orbit in &self.orbits {
            let names: Vec<&str> = orbit
                .iter()
                .map(|&i| node_names.get(i).map(String::as_str).unwrap_or("?"))
                .collect();
            let _ = writeln!(out, "  orbit: {{{}}}", names.join(", "));
        }
        out
    }
}

/// Everything [`optimize`] learned about a model: the symmetry report, the
/// cost-model facts (reused by the planner), and the symmetry group the
/// engines canonicalize with.
#[derive(Debug)]
pub struct OptInfo {
    /// What the symmetry search found.
    pub report: OptReport,
    /// Cost-model signals (see [`model_facts`]); the planner consumes these
    /// instead of re-walking the model.
    pub facts: ModelFacts,
    /// The automorphism group, when non-trivial.
    pub symmetry: Option<SymmetryGroup>,
}

/// Returns a copy of `model` with an [`OptInfo`] attached (see
/// [`Model::opt_info`]). The programs are shared with the input via
/// [`Arc`], never rewritten.
pub fn optimize(model: &Model) -> Model {
    let (symmetry, symmetry_note) = symmetry::find_symmetry(model);
    let report = OptReport {
        group_order: symmetry.as_ref().map_or(1, SymmetryGroup::order),
        orbits: symmetry.as_ref().map_or_else(Vec::new, |g| {
            g.orbits().into_iter().filter(|o| o.len() > 1).collect()
        }),
        symmetry_note,
    };
    let facts = facts::model_facts(model);
    let mut m = model.clone();
    m.opt_info = Some(Arc::new(OptInfo {
        report,
        facts,
        symmetry,
    }));
    m
}
