//! Cost-model facts, gathered once per optimized model.
//!
//! The exact crate's planner needs per-model signals (random-choice sites,
//! handler branching, program sharing) to estimate inference cost. It used
//! to re-walk the model on every plan; [`super::optimize`] now collects these
//! facts in one traversal and caches them in [`super::OptInfo`], and the
//! planner falls back to [`model_facts`] — the same implementation — for
//! unoptimized models, so the two paths cannot diverge.

use std::sync::Arc;

use crate::compile::{CExpr, CStmt, CompiledProgram, Model};

/// Cap on any single branching product, so pathological programs cannot
/// overflow the f64 arithmetic downstream.
const BRANCH_CAP: f64 = 1e12;

/// Model-shape signals consumed by the cost-model planner.
#[derive(Debug, Clone)]
pub struct ModelFacts {
    /// `flip` sites across all distinct programs.
    pub flip_sites: usize,
    /// `uniform` sites across all distinct programs.
    pub uniform_sites: usize,
    /// `dup` sites across all distinct programs.
    pub dup_sites: usize,
    /// Mean complete-execution count of one handler run (flip ×2,
    /// uniform ×span, averaged over nodes).
    pub handler_branching: f64,
    /// Size of the largest group of nodes sharing one program `Arc`
    /// (0 when every node has a private program).
    pub shared_program_nodes: usize,
    /// At most one packet is ever in flight: one `init` packet, no `new`
    /// or `dup`, and at most one `fwd` on every handler path. The
    /// scheduler then never has more than one enabled action to split
    /// mass over.
    pub single_packet: bool,
}

#[derive(Default)]
struct SiteTally {
    uniforms: usize,
    flips: usize,
    dups: usize,
}

/// Number of complete executions of an expression's random choices.
fn expr_branches(e: &CExpr, t: &mut SiteTally) -> f64 {
    match e {
        CExpr::Const(_)
        | CExpr::Param(_)
        | CExpr::State(_)
        | CExpr::Local(_)
        | CExpr::Field(_)
        | CExpr::Port => 1.0,
        CExpr::Flip(inner) => {
            t.flips += 1;
            2.0 * expr_branches(inner, t)
        }
        CExpr::UniformInt(lo, hi) => {
            t.uniforms += 1;
            let span = match (lo.as_ref(), hi.as_ref()) {
                (CExpr::Const(a), CExpr::Const(b)) => {
                    (b.to_f64() - a.to_f64() + 1.0).clamp(1.0, BRANCH_CAP)
                }
                // Non-constant bounds: assume a small span.
                _ => 3.0,
            };
            span * expr_branches(lo, t) * expr_branches(hi, t)
        }
        CExpr::Binary(_, a, b) => expr_branches(a, t) * expr_branches(b, t),
        CExpr::Not(inner) | CExpr::Neg(inner) => expr_branches(inner, t),
    }
    .min(BRANCH_CAP)
}

/// Approximate number of complete executions of a statement sequence. The
/// enumeration engine explores every one of them per handler run.
fn stmts_branches(stmts: &[CStmt], t: &mut SiteTally) -> f64 {
    let mut product = 1.0f64;
    for s in stmts {
        let b = match s {
            CStmt::New | CStmt::Drop | CStmt::Skip => 1.0,
            CStmt::Dup => {
                t.dups += 1;
                1.0
            }
            CStmt::Fwd(e)
            | CStmt::AssignState(_, e)
            | CStmt::AssignLocal(_, e)
            | CStmt::FieldAssign(_, e)
            | CStmt::Assert(e)
            | CStmt::Observe(e) => expr_branches(e, t),
            CStmt::If(cond, then_b, else_b) => {
                let c = expr_branches(cond, t);
                // A probabilistic condition sends mass down both arms; a
                // deterministic one takes the worse arm in the worst case.
                let tb = stmts_branches(then_b, t);
                let eb = stmts_branches(else_b, t);
                if c > 1.0 {
                    c * tb.max(eb)
                } else {
                    tb.max(eb)
                }
            }
            CStmt::While(cond, body) => {
                // Loops are bounded by the local step limit; assume a few
                // iterations of the body's branching.
                let c = expr_branches(cond, t);
                (c * stmts_branches(body, t)).powf(2.0)
            }
        };
        product = (product * b).min(BRANCH_CAP);
    }
    product
}

/// Upper bound on the packets one run of `stmts` can emit, saturating at 2
/// ("more than one"). `new` and `dup` create packets, so they saturate too.
fn max_emitted(stmts: &[CStmt]) -> u32 {
    stmts
        .iter()
        .map(|s| match s {
            CStmt::Fwd(_) => 1,
            CStmt::New | CStmt::Dup => 2,
            CStmt::If(_, then_b, else_b) => max_emitted(then_b).max(max_emitted(else_b)),
            // A loop may run its body more than once.
            CStmt::While(_, body) => 2 * max_emitted(body),
            _ => 0,
        })
        .fold(0, |acc, n| (acc + n).min(2))
}

/// Size of the largest group of nodes sharing one `CompiledProgram` `Arc`.
fn shared_program_nodes(model: &Model) -> usize {
    let mut best = 0usize;
    for (i, p) in model.programs.iter().enumerate() {
        let group = model.programs[i..]
            .iter()
            .filter(|q| Arc::ptr_eq(p, q))
            .count();
        if group > 1 {
            best = best.max(group);
        }
    }
    best
}

/// Gathers the cost-model facts for a model in a single traversal.
///
/// Sites are counted once per *distinct* program but branching is weighted
/// per node: the engine runs a shared handler at every node holding it.
pub fn model_facts(model: &Model) -> ModelFacts {
    let mut tally = SiteTally::default();
    let mut total = 0.0f64;
    let mut counted: Vec<*const CompiledProgram> = Vec::new();
    for prog in &model.programs {
        let ptr = Arc::as_ptr(prog);
        if counted.contains(&ptr) {
            // Re-measure branching without double-counting the site tallies.
            let mut scratch = SiteTally::default();
            total += stmts_branches(&prog.body, &mut scratch);
        } else {
            counted.push(ptr);
            total += stmts_branches(&prog.body, &mut tally);
        }
    }
    let handler_branching = if model.programs.is_empty() {
        1.0
    } else {
        (total / model.programs.len() as f64).max(1.0)
    };
    ModelFacts {
        flip_sites: tally.flips,
        uniform_sites: tally.uniforms,
        dup_sites: tally.dups,
        handler_branching,
        shared_program_nodes: shared_program_nodes(model),
        single_packet: model.init_packets.len() <= 1
            && model.programs.iter().all(|p| max_emitted(&p.body) <= 1),
    }
}
