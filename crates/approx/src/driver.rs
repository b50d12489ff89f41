//! Sampling choice driver and single-trace simulation.

use rand::rngs::StdRng;
use rand::Rng;

use bayonet_net::{
    deliver, run_handler, Action, ChoiceDriver, GlobalConfig, HandlerOutcome, Model, Scheduler,
    SemanticsError,
};
use bayonet_num::{Rat, Sign};
use bayonet_symbolic::LinExpr;

/// A [`ChoiceDriver`] that samples every draw with an RNG. Symbolic sign
/// decisions are errors: sampling requires all parameters to be bound.
#[derive(Debug)]
pub struct SampleDriver<'a> {
    rng: &'a mut StdRng,
}

impl<'a> SampleDriver<'a> {
    /// Wraps an RNG.
    pub fn new(rng: &'a mut StdRng) -> Self {
        SampleDriver { rng }
    }
}

impl ChoiceDriver for SampleDriver<'_> {
    fn flip(&mut self, p: &Rat) -> Result<bool, SemanticsError> {
        Ok(self.rng.gen::<f64>() < p.to_f64())
    }

    fn uniform_int(&mut self, lo: i64, hi: i64) -> Result<i64, SemanticsError> {
        Ok(self.rng.gen_range(lo..=hi))
    }

    fn decide_sign(&mut self, expr: &LinExpr) -> Result<Sign, SemanticsError> {
        Err(SemanticsError::SymbolicValueInConcreteContext(format!(
            "sampling cannot branch on the sign of a symbolic expression ({expr:?}); \
             bind all parameters before using approximate inference"
        )))
    }
}

/// Result of advancing one particle by one global step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// A step was taken (the config may now be terminal).
    Stepped,
    /// The configuration was already terminal; nothing happened.
    AlreadyTerminal,
    /// An `observe` failed during the step: the trace must be discarded.
    ObserveFailed,
}

/// Draws the scheduler's next action for the non-terminal `cfg` (one `f64`
/// from `rng`, walked over the exact weights) and advances
/// `cfg.sched_state` past it.
pub(crate) fn sample_action(
    model: &Model,
    scheduler: &dyn Scheduler,
    cfg: &mut GlobalConfig,
    rng: &mut StdRng,
) -> Action {
    let enabled = cfg.enabled_actions();
    let dist = scheduler.distribution(cfg.sched_state, &enabled, model.num_nodes());
    let mut u = rng.gen::<f64>();
    let mut chosen = &dist[dist.len() - 1];
    for entry in &dist {
        let p = entry.1.to_f64();
        if u < p {
            chosen = entry;
            break;
        }
        u -= p;
    }
    let (action, _, sched_next) = *chosen;
    cfg.sched_state = sched_next;
    action
}

/// Samples one global step (scheduler choice + action) of `cfg`.
///
/// # Errors
///
/// Propagates semantic errors from handler execution or delivery.
pub fn sample_step(
    model: &Model,
    scheduler: &dyn Scheduler,
    cfg: &mut GlobalConfig,
    rng: &mut StdRng,
) -> Result<StepOutcome, SemanticsError> {
    if cfg.is_terminal() {
        return Ok(StepOutcome::AlreadyTerminal);
    }
    match sample_action(model, scheduler, cfg, rng) {
        Action::Fwd(i) => {
            deliver(model, cfg, i)?;
        }
        Action::Run(i) => {
            let mut driver = SampleDriver::new(rng);
            let outcome = run_handler(model, i, &mut cfg.nodes[i], &mut driver)?;
            match outcome {
                HandlerOutcome::Completed => {}
                HandlerOutcome::AssertFailed => cfg.nodes[i].error = true,
                HandlerOutcome::ObserveFailed => return Ok(StepOutcome::ObserveFailed),
            }
        }
    }
    Ok(StepOutcome::Stepped)
}

/// Samples the initial configuration (state initializers + init packets).
///
/// # Errors
///
/// Propagates semantic errors from initializer evaluation.
pub fn sample_initial(model: &Model, rng: &mut StdRng) -> Result<GlobalConfig, SemanticsError> {
    let mut states = Vec::with_capacity(model.num_nodes());
    for node in 0..model.num_nodes() {
        let mut driver = SampleDriver::new(rng);
        states.push(bayonet_net::eval_state_init(
            model,
            &model.programs[node],
            &mut driver,
        )?);
    }
    bayonet_net::initial_config(model, states)
}
