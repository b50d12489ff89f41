//! Execution of node handlers — the local small-step semantics of paper
//! Figure 5, run to completion per `(Run, i)` action.
//!
//! The interpreter is written once and parameterized by a [`ChoiceDriver`]
//! that resolves the three sources of nondeterminism:
//!
//! * `flip(p)` draws,
//! * `uniformInt(lo, hi)` draws, and
//! * the *sign* of a symbolic linear expression when a comparison or
//!   truthiness test cannot be decided concretely.
//!
//! The sampling engine implements the driver with an RNG; the exact engine
//! implements it with a replaying enumerator that explores every outcome and
//! accumulates probabilities and symbolic guards.

use bayonet_num::{Rat, Sign};
use bayonet_symbolic::LinExpr;

use crate::compile::{CExpr, CStmt, CompiledProgram, Model, QExpr};
use crate::config::NodeConfig;
use crate::error::SemanticsError;
use crate::queue::Packet;
use crate::value::Val;
use bayonet_lang::BinOp;

/// Resolves probabilistic draws and symbolic sign decisions during handler
/// execution.
pub trait ChoiceDriver {
    /// Draws from Bernoulli(`p`). `p` is guaranteed to be in `(0, 1)` —
    /// degenerate flips are resolved by the interpreter without consulting
    /// the driver.
    fn flip(&mut self, p: &Rat) -> Result<bool, SemanticsError>;

    /// Draws a uniform integer in `[lo, hi]` with `lo < hi` (degenerate
    /// single-point ranges are resolved by the interpreter).
    fn uniform_int(&mut self, lo: i64, hi: i64) -> Result<i64, SemanticsError>;

    /// Decides the sign of a non-constant linear expression over symbolic
    /// parameters.
    fn decide_sign(&mut self, expr: &LinExpr) -> Result<Sign, SemanticsError>;
}

/// A driver for deterministic contexts (init packets, query evaluation in
/// sampling mode): any draw or sign decision is an error.
#[derive(Debug, Default)]
pub struct NoChoiceDriver;

impl ChoiceDriver for NoChoiceDriver {
    fn flip(&mut self, _: &Rat) -> Result<bool, SemanticsError> {
        Err(SemanticsError::RandomnessNeedsConcreteArgs)
    }

    fn uniform_int(&mut self, _: i64, _: i64) -> Result<i64, SemanticsError> {
        Err(SemanticsError::RandomnessNeedsConcreteArgs)
    }

    fn decide_sign(&mut self, e: &LinExpr) -> Result<Sign, SemanticsError> {
        Err(SemanticsError::SymbolicValueInConcreteContext(format!(
            "{e:?}"
        )))
    }
}

/// How a handler run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandlerOutcome {
    /// The body ran to completion.
    Completed,
    /// An `assert` failed: the node enters the error state ⊥ and the whole
    /// network configuration becomes terminal (error).
    AssertFailed,
    /// An `observe` failed: the trace is discarded and its mass removed
    /// (Bayesian conditioning).
    ObserveFailed,
}

/// Executes one complete handler run for `node` (the body of its program,
/// applied to the packet at the head of its input queue), mutating `cfg`.
///
/// # Errors
///
/// Semantic errors (empty-queue access, nonlinear arithmetic, diverging
/// loops, ...) are hard errors, distinct from probabilistic
/// `assert`/`observe` failures which are reported in the outcome.
pub fn run_handler(
    model: &Model,
    node: usize,
    cfg: &mut NodeConfig,
    driver: &mut dyn ChoiceDriver,
) -> Result<HandlerOutcome, SemanticsError> {
    let prog = &model.programs[node];
    let mut cx = ExecCx {
        model,
        node,
        locals: vec![Val::zero(); prog.local_names.len()],
        steps: 0,
    };
    cx.exec_block(&prog.body, cfg, driver)
}

/// Evaluates a program's state initializers (run once at network
/// construction; may draw randomness, e.g. `state bad_hash(flip(1/10))`).
pub fn eval_state_init(
    model: &Model,
    prog: &CompiledProgram,
    driver: &mut dyn ChoiceDriver,
) -> Result<Vec<Val>, SemanticsError> {
    let mut cx = ExecCx {
        model,
        node: usize::MAX,
        locals: Vec::new(),
        steps: 0,
    };
    // State initializers cannot reference pkt/pt/locals/state (enforced at
    // compile time), so an empty NodeConfig suffices.
    let dummy = NodeConfig::empty(model.queue_capacity);
    prog.state_init
        .iter()
        .map(|e| cx.eval(e, &dummy, driver))
        .collect()
}

/// Builds the packet described by an [`InitPacketSpec`](crate::compile::InitPacketSpec).
pub fn build_init_packet(
    model: &Model,
    fields: &[(usize, CExpr)],
) -> Result<Packet, SemanticsError> {
    let mut pkt = Packet::fresh(model.num_fields());
    let mut cx = ExecCx {
        model,
        node: usize::MAX,
        locals: Vec::new(),
        steps: 0,
    };
    let dummy = NodeConfig::empty(model.queue_capacity);
    let mut driver = NoChoiceDriver;
    for (slot, e) in fields {
        let v = cx.eval(e, &dummy, &mut driver)?;
        pkt.set_field(*slot, v);
    }
    Ok(pkt)
}

struct ExecCx<'a> {
    model: &'a Model,
    node: usize,
    locals: Vec<Val>,
    steps: u64,
}

impl ExecCx<'_> {
    fn tick(&mut self) -> Result<(), SemanticsError> {
        self.steps += 1;
        if self.steps > self.model.local_step_limit {
            Err(SemanticsError::LoopLimitExceeded {
                node: self.node,
                limit: self.model.local_step_limit,
            })
        } else {
            Ok(())
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[CStmt],
        cfg: &mut NodeConfig,
        driver: &mut dyn ChoiceDriver,
    ) -> Result<HandlerOutcome, SemanticsError> {
        for s in stmts {
            self.tick()?;
            match s {
                CStmt::Skip => {}
                CStmt::New => {
                    // L-New: prepend a fresh all-zero packet with port 0;
                    // a full queue drops it silently.
                    let pkt = Packet::fresh(self.model.num_fields());
                    cfg.q_in.push_front((pkt, 0));
                }
                CStmt::Drop => {
                    // L-Drop requires a head packet.
                    cfg.q_in
                        .pop_front()
                        .ok_or(SemanticsError::EmptyQueue { node: self.node })?;
                }
                CStmt::Dup => {
                    let head = cfg
                        .q_in
                        .head()
                        .cloned()
                        .ok_or(SemanticsError::EmptyQueue { node: self.node })?;
                    cfg.q_in.push_front(head);
                }
                CStmt::Fwd(e) => {
                    let v = self.eval(e, cfg, driver)?;
                    let port = val_to_port(&v)?;
                    let (pkt, _arrival) = cfg
                        .q_in
                        .pop_front()
                        .ok_or(SemanticsError::EmptyQueue { node: self.node })?;
                    // L-Fwd: append to the output queue, re-tagged with the
                    // departure port; overflow drops.
                    cfg.q_out.push_back((pkt, port));
                }
                CStmt::AssignState(slot, e) => {
                    let v = self.eval(e, cfg, driver)?;
                    cfg.state[*slot] = v;
                }
                CStmt::AssignLocal(slot, e) => {
                    let v = self.eval(e, cfg, driver)?;
                    self.locals[*slot] = v;
                }
                CStmt::FieldAssign(slot, e) => {
                    let v = self.eval(e, cfg, driver)?;
                    let (pkt, _) = cfg
                        .q_in
                        .head_mut()
                        .ok_or(SemanticsError::EmptyQueue { node: self.node })?;
                    pkt.set_field(*slot, v);
                }
                CStmt::Assert(e) => {
                    let v = self.eval(e, cfg, driver)?;
                    if !self.truth(&v, driver)? {
                        return Ok(HandlerOutcome::AssertFailed);
                    }
                }
                CStmt::Observe(e) => {
                    let v = self.eval(e, cfg, driver)?;
                    if !self.truth(&v, driver)? {
                        return Ok(HandlerOutcome::ObserveFailed);
                    }
                }
                CStmt::If(c, then_body, else_body) => {
                    let v = self.eval(c, cfg, driver)?;
                    let branch = if self.truth(&v, driver)? {
                        then_body
                    } else {
                        else_body
                    };
                    match self.exec_block(branch, cfg, driver)? {
                        HandlerOutcome::Completed => {}
                        early => return Ok(early),
                    }
                }
                CStmt::While(c, body) => loop {
                    self.tick()?;
                    let v = self.eval(c, cfg, driver)?;
                    if !self.truth(&v, driver)? {
                        break;
                    }
                    match self.exec_block(body, cfg, driver)? {
                        HandlerOutcome::Completed => {}
                        early => return Ok(early),
                    }
                },
            }
        }
        Ok(HandlerOutcome::Completed)
    }

    fn eval(
        &mut self,
        e: &CExpr,
        cfg: &NodeConfig,
        driver: &mut dyn ChoiceDriver,
    ) -> Result<Val, SemanticsError> {
        Ok(match e {
            CExpr::Const(r) => Val::Rat(r.clone()),
            CExpr::Param(p) => match self.model.binding(*p) {
                Some(v) => Val::Rat(v.clone()),
                None => Val::Sym(LinExpr::param(*p)),
            },
            CExpr::State(slot) => cfg.state[*slot].clone(),
            CExpr::Local(slot) => self.locals[*slot].clone(),
            CExpr::Field(slot) => cfg
                .q_in
                .head()
                .ok_or(SemanticsError::EmptyQueue { node: self.node })?
                .0
                .field(*slot)
                .clone(),
            CExpr::Port => {
                let (_, pt) = cfg
                    .q_in
                    .head()
                    .ok_or(SemanticsError::EmptyQueue { node: self.node })?;
                Val::int(*pt as i64)
            }
            CExpr::Flip(pe) => {
                let pv = self.eval(pe, cfg, driver)?;
                let p = pv
                    .as_rat()
                    .ok_or(SemanticsError::RandomnessNeedsConcreteArgs)?;
                if p.is_negative() || *p > Rat::one() {
                    return Err(SemanticsError::FlipProbabilityOutOfRange(p.to_string()));
                }
                if p.is_zero() {
                    Val::from_bool(false)
                } else if p.is_one() {
                    Val::from_bool(true)
                } else {
                    Val::from_bool(driver.flip(p)?)
                }
            }
            CExpr::UniformInt(lo_e, hi_e) => {
                let lo_v = self.eval(lo_e, cfg, driver)?;
                let hi_v = self.eval(hi_e, cfg, driver)?;
                let (lo, hi) = (val_to_int(&lo_v)?, val_to_int(&hi_v)?);
                if lo > hi {
                    return Err(SemanticsError::UniformBoundsInvalid(format!(
                        "[{lo}, {hi}]"
                    )));
                }
                if lo == hi {
                    Val::int(lo)
                } else {
                    Val::int(driver.uniform_int(lo, hi)?)
                }
            }
            CExpr::Binary(op, a, b) => {
                // `and`/`or` short-circuit (equivalent distribution; fewer
                // spurious branch points for the enumerator).
                match op {
                    BinOp::And => {
                        let av = self.eval(a, cfg, driver)?;
                        if !self.truth(&av, driver)? {
                            return Ok(Val::from_bool(false));
                        }
                        let bv = self.eval(b, cfg, driver)?;
                        return Ok(Val::from_bool(self.truth(&bv, driver)?));
                    }
                    BinOp::Or => {
                        let av = self.eval(a, cfg, driver)?;
                        if self.truth(&av, driver)? {
                            return Ok(Val::from_bool(true));
                        }
                        let bv = self.eval(b, cfg, driver)?;
                        return Ok(Val::from_bool(self.truth(&bv, driver)?));
                    }
                    _ => {}
                }
                let av = self.eval(a, cfg, driver)?;
                let bv = self.eval(b, cfg, driver)?;
                apply_binop(*op, &av, &bv, driver)?
            }
            CExpr::Not(inner) => {
                let v = self.eval(inner, cfg, driver)?;
                Val::from_bool(!self.truth(&v, driver)?)
            }
            CExpr::Neg(inner) => self.eval(inner, cfg, driver)?.neg(),
        })
    }

    fn truth(&mut self, v: &Val, driver: &mut dyn ChoiceDriver) -> Result<bool, SemanticsError> {
        truth_of(v, driver)
    }
}

/// Truthiness of a value (nonzero = true), consulting the driver for
/// symbolic values.
pub fn truth_of(v: &Val, driver: &mut dyn ChoiceDriver) -> Result<bool, SemanticsError> {
    match v {
        Val::Rat(r) => Ok(r.is_true()),
        Val::Sym(e) => Ok(driver.decide_sign(e)? != Sign::Zero),
    }
}

/// Applies a (non-short-circuit) binary operation, consulting the driver for
/// symbolic comparisons.
pub(crate) fn apply_binop(
    op: BinOp,
    a: &Val,
    b: &Val,
    driver: &mut dyn ChoiceDriver,
) -> Result<Val, SemanticsError> {
    Ok(match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b)?,
        BinOp::Div => a.div(b)?,
        BinOp::And => Val::from_bool(truth_of(a, driver)? && truth_of(b, driver)?),
        BinOp::Or => Val::from_bool(truth_of(a, driver)? || truth_of(b, driver)?),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let sign = compare(a, b, driver)?;
            let holds = match op {
                BinOp::Eq => sign == Sign::Zero,
                BinOp::Ne => sign != Sign::Zero,
                BinOp::Lt => sign == Sign::Minus,
                BinOp::Le => sign != Sign::Plus,
                BinOp::Gt => sign == Sign::Plus,
                BinOp::Ge => sign != Sign::Minus,
                _ => unreachable!(),
            };
            Val::from_bool(holds)
        }
    })
}

/// The sign of `a - b`, concrete when possible, via the driver otherwise.
pub fn compare(a: &Val, b: &Val, driver: &mut dyn ChoiceDriver) -> Result<Sign, SemanticsError> {
    let diff = a.sub(b);
    match diff {
        Val::Rat(r) => Ok(r.sign()),
        Val::Sym(e) => driver.decide_sign(&e),
    }
}

/// Evaluates a compiled query expression on a terminal configuration's node
/// states.
pub fn eval_query_expr(
    model: &Model,
    expr: &QExpr,
    states: &dyn Fn(usize, usize) -> Val,
    driver: &mut dyn ChoiceDriver,
) -> Result<Val, SemanticsError> {
    Ok(match expr {
        QExpr::Const(r) => Val::Rat(r.clone()),
        QExpr::Param(p) => match model.binding(*p) {
            Some(v) => Val::Rat(v.clone()),
            None => Val::Sym(LinExpr::param(*p)),
        },
        QExpr::At { node, slot } => states(*node, *slot),
        QExpr::Binary(op, a, b) => {
            let av = eval_query_expr(model, a, states, driver)?;
            let bv = eval_query_expr(model, b, states, driver)?;
            apply_binop(*op, &av, &bv, driver)?
        }
        QExpr::Not(inner) => {
            let v = eval_query_expr(model, inner, states, driver)?;
            Val::from_bool(!truth_of(&v, driver)?)
        }
        QExpr::Neg(inner) => eval_query_expr(model, inner, states, driver)?.neg(),
    })
}

fn val_to_int(v: &Val) -> Result<i64, SemanticsError> {
    v.as_rat()
        .and_then(|r| r.to_i64())
        .ok_or_else(|| SemanticsError::UniformBoundsInvalid(format!("{v}")))
}

fn val_to_port(v: &Val) -> Result<u32, SemanticsError> {
    let r = v
        .as_rat()
        .ok_or_else(|| SemanticsError::PortNotInteger(format!("{v}")))?;
    r.to_i64()
        .and_then(|i| u32::try_from(i).ok())
        .filter(|&p| p > 0)
        .ok_or_else(|| SemanticsError::PortNotInteger(r.to_string()))
}
