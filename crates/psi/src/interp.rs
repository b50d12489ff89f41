//! Interpreter and exact/approximate inference for PSI-core programs.
//!
//! The interpreter is parameterized by the same [`ChoiceDriver`] the
//! network engines use, so PSI-core programs can be run under exhaustive
//! replay enumeration (exact posterior) or plain sampling. Exactness here
//! comes *without* state merging — it enumerates complete traces, like PSI
//! enumerates program paths — which keeps it an independent check on the
//! merged direct engine.

use std::fmt;

use bayonet_exact::enumerate_eval;
use bayonet_net::{ChoiceDriver, SemanticsError};
use bayonet_num::Rat;
use bayonet_symbolic::Guard;

use crate::ir::{BinOp, LValue, PExpr, PProgram, PStmt, PValue};

/// Errors raised by PSI-core execution.
#[derive(Debug)]
pub enum PsiError {
    /// Type confusion or out-of-bounds access (a translation bug).
    Runtime(String),
    /// An underlying semantics error (draws with bad arguments, ...).
    Semantics(SemanticsError),
    /// A loop exceeded the step budget.
    StepLimit(u64),
    /// All probability mass was discarded by observations.
    AllMassObservedOut,
}

impl fmt::Display for PsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiError::Runtime(m) => write!(f, "psi-core runtime error: {m}"),
            PsiError::Semantics(e) => write!(f, "psi-core semantics error: {e}"),
            PsiError::StepLimit(n) => write!(f, "psi-core step limit exceeded ({n})"),
            PsiError::AllMassObservedOut => {
                f.write_str("all probability mass was discarded by observations (Z = 0)")
            }
        }
    }
}

impl std::error::Error for PsiError {}

impl From<SemanticsError> for PsiError {
    fn from(e: SemanticsError) -> Self {
        PsiError::Semantics(e)
    }
}

/// Default per-trace statement budget.
pub const DEFAULT_STEP_LIMIT: u64 = 1_000_000;

/// Outcome of one complete program execution.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// The program finished; here is the result value.
    Value(PValue),
    /// An `observe` failed; the trace is discarded.
    ObserveFailed,
}

/// Executes a PSI-core program once under the given driver.
///
/// # Errors
///
/// Returns [`SemanticsError`]s for bad draws and runtime errors as
/// `SemanticsError::SymbolicValueInConcreteContext` is never produced here;
/// type errors surface as panics guarded into errors.
pub fn run(
    program: &PProgram,
    driver: &mut dyn ChoiceDriver,
    step_limit: u64,
) -> Result<RunOutcome, SemanticsError> {
    let mut cx = Interp {
        globals: vec![PValue::int(0); program.num_globals()],
        steps: 0,
        step_limit,
    };
    for (slot, init) in program.init.iter().enumerate() {
        let v = cx.eval(init, driver)?;
        cx.globals[slot] = v;
    }
    if !cx.exec_block(&program.body, driver)? {
        return Ok(RunOutcome::ObserveFailed);
    }
    Ok(RunOutcome::Value(cx.eval(&program.result, driver)?))
}

/// The exact posterior of a PSI-core program by exhaustive trace
/// enumeration (no merging — the differential backend).
#[derive(Debug, Clone)]
pub struct PsiPosterior {
    /// `(result value, unnormalized mass)` per distinct result.
    pub support: Vec<(PValue, Rat)>,
    /// Mass discarded by observations.
    pub discarded: Rat,
}

impl PsiPosterior {
    /// Normalization constant (surviving mass).
    pub fn z(&self) -> Rat {
        self.support.iter().fold(Rat::zero(), |acc, (_, m)| acc + m)
    }

    /// Probability that the result is truthy (for probability queries).
    ///
    /// # Panics
    ///
    /// Panics if `Z = 0`.
    pub fn probability_true(&self) -> Rat {
        let z = self.z();
        assert!(!z.is_zero(), "undefined posterior (Z = 0)");
        let num = self
            .support
            .iter()
            .filter(|(v, _)| v.as_rat().is_some_and(|r| r.is_true()))
            .fold(Rat::zero(), |acc, (_, m)| acc + m);
        num / z
    }

    /// Expected value of a scalar result.
    ///
    /// # Panics
    ///
    /// Panics if `Z = 0` or a result is not scalar.
    pub fn expectation(&self) -> Rat {
        let z = self.z();
        assert!(!z.is_zero(), "undefined posterior (Z = 0)");
        let num = self.support.iter().fold(Rat::zero(), |acc, (v, m)| {
            acc + &(v.as_rat().expect("scalar result") * m)
        });
        num / z
    }
}

/// Runs exact inference on a PSI-core program by enumerating every trace.
///
/// # Errors
///
/// Propagates execution errors; reports `Z = 0` when every trace is
/// observed out.
pub fn infer_exact(program: &PProgram, step_limit: u64) -> Result<PsiPosterior, PsiError> {
    let branches = enumerate_eval(&Guard::top(), false, |driver| {
        run(program, driver, step_limit)
    })
    .map_err(PsiError::from)?;
    let mut support: Vec<(PValue, Rat)> = Vec::new();
    let mut discarded = Rat::zero();
    for b in branches {
        match b.result {
            RunOutcome::ObserveFailed => discarded += &b.weight,
            RunOutcome::Value(v) => {
                if let Some(entry) = support.iter_mut().find(|(sv, _)| *sv == v) {
                    entry.1 += &b.weight;
                } else {
                    support.push((v, b.weight));
                }
            }
        }
    }
    if support.is_empty() {
        return Err(PsiError::AllMassObservedOut);
    }
    Ok(PsiPosterior { support, discarded })
}

struct Interp {
    globals: Vec<PValue>,
    steps: u64,
    step_limit: u64,
}

impl Interp {
    fn tick(&mut self) -> Result<(), SemanticsError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            // Reuse the loop-limit error shape for step exhaustion.
            Err(SemanticsError::LoopLimitExceeded {
                node: usize::MAX,
                limit: self.step_limit,
            })
        } else {
            Ok(())
        }
    }

    /// Executes a block; `Ok(false)` signals a failed observation.
    fn exec_block(
        &mut self,
        stmts: &[PStmt],
        driver: &mut dyn ChoiceDriver,
    ) -> Result<bool, SemanticsError> {
        for s in stmts {
            self.tick()?;
            match s {
                PStmt::Assign(place, e) => {
                    let v = self.eval(e, driver)?;
                    let slot = self.resolve(place, driver)?;
                    *slot = v;
                }
                PStmt::If(c, t, els) => {
                    let cond = self.truthy(c, driver)?;
                    let branch = if cond { t } else { els };
                    if !self.exec_block(branch, driver)? {
                        return Ok(false);
                    }
                }
                PStmt::While(c, body) => loop {
                    self.tick()?;
                    if !self.truthy(c, driver)? {
                        break;
                    }
                    if !self.exec_block(body, driver)? {
                        return Ok(false);
                    }
                },
                PStmt::Observe(c) => {
                    if !self.truthy(c, driver)? {
                        return Ok(false);
                    }
                }
                PStmt::PushBack(place, e) => {
                    let v = self.eval(e, driver)?;
                    match self.resolve(place, driver)? {
                        PValue::Array(items) => items.push(v),
                        other => return Err(type_error("array", other)),
                    }
                }
                PStmt::PushFront(place, e) => {
                    let v = self.eval(e, driver)?;
                    match self.resolve(place, driver)? {
                        PValue::Array(items) => items.insert(0, v),
                        other => return Err(type_error("array", other)),
                    }
                }
                PStmt::Trap(msg) => {
                    return Err(SemanticsError::Trap(msg.clone()));
                }
                PStmt::PopFront { dest, queue } => {
                    let popped = match self.resolve(queue, driver)? {
                        PValue::Array(items) => {
                            if items.is_empty() {
                                return Err(SemanticsError::EmptyQueue { node: usize::MAX });
                            }
                            items.remove(0)
                        }
                        other => return Err(type_error("array", other)),
                    };
                    if let Some(place) = dest {
                        let slot = self.resolve(place, driver)?;
                        *slot = popped;
                    }
                }
            }
        }
        Ok(true)
    }

    fn truthy(&mut self, e: &PExpr, driver: &mut dyn ChoiceDriver) -> Result<bool, SemanticsError> {
        match self.eval(e, driver)? {
            PValue::Rat(r) => Ok(r.is_true()),
            other => Err(type_error("scalar condition", &other)),
        }
    }

    fn eval(&mut self, e: &PExpr, driver: &mut dyn ChoiceDriver) -> Result<PValue, SemanticsError> {
        Ok(match e {
            PExpr::Const(r) => PValue::Rat(r.clone()),
            PExpr::Var(slot) => self.globals[*slot].clone(),
            PExpr::Tuple(items) => PValue::Tuple(
                items
                    .iter()
                    .map(|i| self.eval(i, driver))
                    .collect::<Result<_, _>>()?,
            ),
            PExpr::ArrayLit(items) => PValue::Array(
                items
                    .iter()
                    .map(|i| self.eval(i, driver))
                    .collect::<Result<_, _>>()?,
            ),
            PExpr::Proj(t, idx) => match self.eval(t, driver)? {
                PValue::Tuple(items) => items
                    .get(*idx)
                    .cloned()
                    .ok_or_else(|| oob(*idx, items.len()))?,
                other => return Err(type_error("tuple", &other)),
            },
            PExpr::Index(a, i) => {
                let idx = self.eval_index(i, driver)?;
                match self.eval(a, driver)? {
                    PValue::Array(items) => items
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| oob(idx, items.len()))?,
                    other => return Err(type_error("array", &other)),
                }
            }
            PExpr::Len(a) => match self.eval(a, driver)? {
                PValue::Array(items) => PValue::int(items.len() as i64),
                other => return Err(type_error("array", &other)),
            },
            PExpr::Bin(op, a, b) => {
                let (av, bv) = (self.eval(a, driver)?, self.eval(b, driver)?);
                let (ar, br) = match (&av, &bv) {
                    (PValue::Rat(x), PValue::Rat(y)) => (x, y),
                    _ => return Err(type_error("scalar operands", &av)),
                };
                PValue::Rat(scalar_binop(*op, ar, br)?)
            }
            PExpr::Not(inner) => {
                let t = self.truthy(inner, driver)?;
                PValue::from_bool(!t)
            }
            PExpr::Neg(inner) => match self.eval(inner, driver)? {
                PValue::Rat(r) => PValue::Rat(-r),
                other => return Err(type_error("scalar", &other)),
            },
            PExpr::Flip(p) => {
                let pv = self.eval(p, driver)?;
                let pr = pv
                    .as_rat()
                    .ok_or_else(|| type_error_err("scalar probability"))?;
                if pr.is_negative() || *pr > Rat::one() {
                    return Err(SemanticsError::FlipProbabilityOutOfRange(pr.to_string()));
                }
                if pr.is_zero() {
                    PValue::from_bool(false)
                } else if pr.is_one() {
                    PValue::from_bool(true)
                } else {
                    PValue::from_bool(driver.flip(pr)?)
                }
            }
            PExpr::UniformInt(lo, hi) => {
                let lo = self.eval_int(lo, driver)?;
                let hi = self.eval_int(hi, driver)?;
                if lo > hi {
                    return Err(SemanticsError::UniformBoundsInvalid(format!(
                        "[{lo}, {hi}]"
                    )));
                }
                if lo == hi {
                    PValue::int(lo)
                } else {
                    PValue::int(driver.uniform_int(lo, hi)?)
                }
            }
        })
    }

    fn eval_int(
        &mut self,
        e: &PExpr,
        driver: &mut dyn ChoiceDriver,
    ) -> Result<i64, SemanticsError> {
        match self.eval(e, driver)? {
            PValue::Rat(r) => r
                .to_i64()
                .ok_or_else(|| SemanticsError::UniformBoundsInvalid(r.to_string())),
            other => Err(type_error("integer", &other)),
        }
    }

    fn eval_index(
        &mut self,
        e: &PExpr,
        driver: &mut dyn ChoiceDriver,
    ) -> Result<usize, SemanticsError> {
        let i = self.eval_int(e, driver)?;
        usize::try_from(i).map_err(|_| SemanticsError::PortNotInteger(i.to_string()))
    }

    /// Resolves an lvalue to a mutable slot.
    fn resolve(
        &mut self,
        place: &LValue,
        driver: &mut dyn ChoiceDriver,
    ) -> Result<&mut PValue, SemanticsError> {
        // Evaluate all indices first (they may read globals).
        fn walk<'a>(
            globals: &'a mut Vec<PValue>,
            place: &LValue,
            indices: &mut dyn FnMut(&PExpr) -> Result<usize, SemanticsError>,
        ) -> Result<&'a mut PValue, SemanticsError> {
            match place {
                LValue::Var(slot) => Ok(&mut globals[*slot]),
                LValue::Proj(inner, idx) => match walk(globals, inner, indices)? {
                    PValue::Tuple(items) => {
                        let len = items.len();
                        items.get_mut(*idx).ok_or_else(|| oob(*idx, len))
                    }
                    other => Err(type_error("tuple", other)),
                },
                LValue::Index(inner, idx_expr) => {
                    // Indices were collected innermost first, so the inner
                    // place takes its indices before this one.
                    let slot = walk(globals, inner, indices)?;
                    let idx = indices(idx_expr)?;
                    match slot {
                        PValue::Array(items) => {
                            let len = items.len();
                            items.get_mut(idx).ok_or_else(|| oob(idx, len))
                        }
                        other => Err(type_error("array", other)),
                    }
                }
            }
        }
        // Pre-evaluate indices against an immutable snapshot by collecting
        // them in a first pass.
        let mut collected: Vec<usize> = Vec::new();
        collect_indices(self, place, driver, &mut collected)?;
        let mut iter = collected.into_iter();
        walk(&mut self.globals, place, &mut move |_| {
            Ok(iter.next().expect("index pre-collected"))
        })
    }
}

fn collect_indices(
    cx: &mut Interp,
    place: &LValue,
    driver: &mut dyn ChoiceDriver,
    out: &mut Vec<usize>,
) -> Result<(), SemanticsError> {
    match place {
        LValue::Var(_) => Ok(()),
        LValue::Proj(inner, _) => collect_indices(cx, inner, driver, out),
        LValue::Index(inner, idx) => {
            collect_indices(cx, inner, driver, out)?;
            let i = cx.eval_index(idx, driver)?;
            out.push(i);
            Ok(())
        }
    }
}

fn scalar_binop(op: BinOp, a: &Rat, b: &Rat) -> Result<Rat, SemanticsError> {
    Ok(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a.checked_div(b).ok_or(SemanticsError::DivisionByZero)?,
        BinOp::Eq => Rat::from_bool(a == b),
        BinOp::Ne => Rat::from_bool(a != b),
        BinOp::Lt => Rat::from_bool(a < b),
        BinOp::Le => Rat::from_bool(a <= b),
        BinOp::Gt => Rat::from_bool(a > b),
        BinOp::Ge => Rat::from_bool(a >= b),
        BinOp::And => Rat::from_bool(a.is_true() && b.is_true()),
        BinOp::Or => Rat::from_bool(a.is_true() || b.is_true()),
    })
}

fn type_error(expected: &str, got: &PValue) -> SemanticsError {
    SemanticsError::SymbolicValueInConcreteContext(format!(
        "psi-core type error: expected {expected}, got {got:?}"
    ))
}

fn type_error_err(expected: &str) -> SemanticsError {
    SemanticsError::SymbolicValueInConcreteContext(format!(
        "psi-core type error: expected {expected}"
    ))
}

fn oob(idx: usize, len: usize) -> SemanticsError {
    SemanticsError::SymbolicValueInConcreteContext(format!(
        "psi-core index {idx} out of bounds (len {len})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn c(v: i64) -> PExpr {
        PExpr::Const(Rat::int(v))
    }

    #[test]
    fn deterministic_program_runs() {
        // x = 2; y = x * 3 + 1; return y
        let p = PProgram {
            global_names: vec!["x".into(), "y".into()],
            init: vec![c(2), c(0)],
            body: vec![PStmt::Assign(
                LValue::Var(1),
                PExpr::Bin(
                    BinOp::Add,
                    Box::new(PExpr::Bin(
                        BinOp::Mul,
                        Box::new(PExpr::Var(0)),
                        Box::new(c(3)),
                    )),
                    Box::new(c(1)),
                ),
            )],
            result: PExpr::Var(1),
        };
        let post = infer_exact(&p, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(post.support, vec![(PValue::int(7), Rat::one())]);
    }

    #[test]
    fn flip_posterior() {
        // return flip(1/4)
        let p = PProgram {
            global_names: vec![],
            init: vec![],
            body: vec![],
            result: PExpr::Flip(Box::new(PExpr::Const(Rat::ratio(1, 4)))),
        };
        let post = infer_exact(&p, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(post.probability_true(), Rat::ratio(1, 4));
    }

    #[test]
    fn observe_renormalizes() {
        // x = uniformInt(1,3); observe(x != 2); return x == 3
        let p = PProgram {
            global_names: vec!["x".into()],
            init: vec![PExpr::UniformInt(Box::new(c(1)), Box::new(c(3)))],
            body: vec![PStmt::Observe(PExpr::Bin(
                BinOp::Ne,
                Box::new(PExpr::Var(0)),
                Box::new(c(2)),
            ))],
            result: PExpr::Bin(BinOp::Eq, Box::new(PExpr::Var(0)), Box::new(c(3))),
        };
        let post = infer_exact(&p, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(post.discarded, Rat::ratio(1, 3));
        assert_eq!(post.probability_true(), Rat::ratio(1, 2));
    }

    #[test]
    fn while_loop_and_arrays() {
        // q = []; i = 0; while i < 4 { q.push_back(i); i = i + 1 }
        // q.pop_front(); return len(q) + q[0]
        let p = PProgram {
            global_names: vec!["q".into(), "i".into()],
            init: vec![PExpr::ArrayLit(vec![]), c(0)],
            body: vec![
                PStmt::While(
                    PExpr::Bin(BinOp::Lt, Box::new(PExpr::Var(1)), Box::new(c(4))),
                    vec![
                        PStmt::PushBack(LValue::Var(0), PExpr::Var(1)),
                        PStmt::Assign(
                            LValue::Var(1),
                            PExpr::Bin(BinOp::Add, Box::new(PExpr::Var(1)), Box::new(c(1))),
                        ),
                    ],
                ),
                PStmt::PopFront {
                    dest: None,
                    queue: LValue::Var(0),
                },
            ],
            result: PExpr::Bin(
                BinOp::Add,
                Box::new(PExpr::Len(Box::new(PExpr::Var(0)))),
                Box::new(PExpr::Index(Box::new(PExpr::Var(0)), Box::new(c(0)))),
            ),
        };
        let post = infer_exact(&p, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(post.support, vec![(PValue::int(4), Rat::one())]); // 3 + 1
    }

    #[test]
    fn nested_lvalues() {
        // t = (0, [1, 2]); t.1[0] = 9; return t.1[0]
        let p = PProgram {
            global_names: vec!["t".into()],
            init: vec![PExpr::Tuple(vec![c(0), PExpr::ArrayLit(vec![c(1), c(2)])])],
            body: vec![PStmt::Assign(
                LValue::Index(Box::new(LValue::Proj(Box::new(LValue::Var(0)), 1)), c(0)),
                c(9),
            )],
            result: PExpr::Index(
                Box::new(PExpr::Proj(Box::new(PExpr::Var(0)), 1)),
                Box::new(c(0)),
            ),
        };
        let post = infer_exact(&p, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(post.support, vec![(PValue::int(9), Rat::one())]);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let p = PProgram {
            global_names: vec![],
            init: vec![],
            body: vec![PStmt::While(c(1), vec![])],
            result: c(0),
        };
        assert!(infer_exact(&p, 1000).is_err());
    }
}
