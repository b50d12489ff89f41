//! Approximate inference: Sequential Monte Carlo and rejection sampling.
//!
//! This crate plays the role WebPPL plays in the paper's toolchain. The
//! evaluation (§5) uses WebPPL's SMC method with 1000 particles; we
//! implement the same algorithm over the network transition system:
//! particles advance in lockstep one global step at a time, observation
//! failures kill particles, and the surviving population is resampled to
//! restore the particle count (with the survival fraction folded into the
//! normalization estimate `Ẑ`).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bayonet_net::{
    eval_query_expr, truth_of, CompiledQuery, Deadline, GlobalConfig, Model, NoChoiceDriver,
    QueryKind, Scheduler, SemanticsError,
};

use crate::driver::{sample_initial, sample_step, StepOutcome};

/// Options for the approximate engines.
#[derive(Debug, Clone)]
pub struct ApproxOptions {
    /// Number of SMC particles (the paper uses 1000) or rejection samples.
    pub particles: usize,
    /// Step bound per trace before declaring non-termination.
    pub max_global_steps: u64,
    /// RNG seed (runs are reproducible given a seed).
    pub seed: u64,
    /// Cooperative deadline/cancellation, polled once per SMC round or
    /// rejection attempt. Defaults to unlimited.
    pub deadline: Deadline,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            particles: 1000,
            max_global_steps: 1_000_000,
            seed: 0x0BA1_04E7,
            deadline: Deadline::default(),
        }
    }
}

/// Errors from approximate inference.
#[derive(Debug)]
pub enum ApproxError {
    /// A semantic error in the model.
    Semantics(SemanticsError),
    /// Traces failed to terminate within the step bound.
    Unterminated,
    /// Every particle/sample was rejected by observations.
    AllRejected,
    /// The run was cut short by its [`Deadline`] (timeout or cancellation).
    Interrupted {
        /// Samples or SMC rounds completed before the interruption.
        completed: u64,
    },
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::Semantics(e) => write!(f, "semantic error: {e}"),
            ApproxError::Unterminated => {
                f.write_str("sampled traces did not terminate within the step bound")
            }
            ApproxError::AllRejected => {
                f.write_str("all samples were rejected by observations (Ẑ ≈ 0)")
            }
            ApproxError::Interrupted { completed } => write!(
                f,
                "approximate inference interrupted by deadline (after {completed} rounds)"
            ),
        }
    }
}

impl std::error::Error for ApproxError {}

impl From<SemanticsError> for ApproxError {
    fn from(e: SemanticsError) -> Self {
        ApproxError::Semantics(e)
    }
}

/// A Monte-Carlo estimate.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Point estimate of the query value.
    pub value: f64,
    /// Standard error of the estimate (0 when degenerate).
    pub std_error: f64,
    /// Number of samples/particles contributing.
    pub samples: usize,
    /// Estimated surviving mass `Ẑ` (1 without observations).
    pub z_estimate: f64,
}

impl Estimate {
    fn from_values(values: &[f64], z_estimate: f64) -> Estimate {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        Estimate {
            value: mean,
            std_error: (var / n as f64).sqrt(),
            samples: n,
            z_estimate,
        }
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({} samples)",
            self.value, self.std_error, self.samples
        )
    }
}

/// Renders one estimate as `bayonet run --engine smc` (or `rejection`)
/// prints it: the query's source, the estimate and the `Ẑ` estimate.
pub fn render_estimate(query: &str, est: &Estimate) -> String {
    format!("{query}: {est}  (Ẑ ≈ {:.4})\n", est.z_estimate)
}

fn query_value_on(
    model: &Model,
    query: &CompiledQuery,
    cfg: &GlobalConfig,
) -> Result<Option<f64>, SemanticsError> {
    let states = |node: usize, slot: usize| cfg.nodes[node].state[slot].clone();
    let mut driver = NoChoiceDriver;
    Ok(match query.kind {
        QueryKind::Probability => {
            let v = eval_query_expr(model, &query.expr, &states, &mut driver)?;
            Some(if truth_of(&v, &mut driver)? { 1.0 } else { 0.0 })
        }
        QueryKind::Expectation => {
            if cfg.has_error() {
                None // expectations exclude error terminals
            } else {
                let v = eval_query_expr(model, &query.expr, &states, &mut driver)?;
                let r = v.as_rat().ok_or_else(|| {
                    SemanticsError::SymbolicValueInConcreteContext(
                        "expectation of a symbolic value".into(),
                    )
                })?;
                Some(r.to_f64())
            }
        }
    })
}

/// Sequential Monte Carlo inference (the paper's WebPPL configuration).
///
/// All particles advance one global step per round; particles killed by a
/// failed `observe` are resampled from the survivors, and the survival
/// fraction multiplies the running estimate of `Z`.
///
/// # Errors
///
/// See [`ApproxError`].
pub fn smc(
    model: &Model,
    scheduler: &dyn Scheduler,
    query: &CompiledQuery,
    opts: &ApproxOptions,
) -> Result<Estimate, ApproxError> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = opts.particles;
    let mut particles: Vec<GlobalConfig> = (0..n)
        .map(|_| sample_initial(model, &mut rng))
        .collect::<Result<_, _>>()?;
    let mut z_estimate = 1.0f64;

    for round in 0..opts.max_global_steps {
        if opts.deadline.expired() {
            return Err(ApproxError::Interrupted { completed: round });
        }
        let mut all_terminal = true;
        let mut dead: Vec<usize> = Vec::new();
        for (i, p) in particles.iter_mut().enumerate() {
            match sample_step(model, scheduler, p, &mut rng)? {
                StepOutcome::AlreadyTerminal => {}
                StepOutcome::Stepped => {
                    if !p.is_terminal() {
                        all_terminal = false;
                    }
                }
                StepOutcome::ObserveFailed => dead.push(i),
            }
        }
        if !dead.is_empty() {
            let alive = n - dead.len();
            if alive == 0 {
                return Err(ApproxError::AllRejected);
            }
            z_estimate *= alive as f64 / n as f64;
            // Resample dead particles uniformly from the survivors.
            let survivors: Vec<GlobalConfig> = particles
                .iter()
                .enumerate()
                .filter(|(i, _)| !dead.contains(i))
                .map(|(_, p)| p.clone())
                .collect();
            for i in dead {
                let pick = rng.gen_range(0..survivors.len());
                particles[i] = survivors[pick].clone();
                if !particles[i].is_terminal() {
                    all_terminal = false;
                }
            }
        }
        if all_terminal {
            let mut values = Vec::with_capacity(n);
            for p in &particles {
                if let Some(v) = query_value_on(model, query, p)? {
                    values.push(v);
                }
            }
            if values.is_empty() {
                return Err(ApproxError::AllRejected);
            }
            return Ok(Estimate::from_values(&values, z_estimate));
        }
    }
    Err(ApproxError::Unterminated)
}

/// Plain rejection sampling: sample complete traces, discard those that
/// violate an `observe`, and average the query over accepted terminals.
///
/// # Errors
///
/// See [`ApproxError`].
pub fn rejection(
    model: &Model,
    scheduler: &dyn Scheduler,
    query: &CompiledQuery,
    opts: &ApproxOptions,
) -> Result<Estimate, ApproxError> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut values = Vec::with_capacity(opts.particles);
    let mut attempts = 0usize;
    while values.len() < opts.particles {
        attempts += 1;
        if attempts > opts.particles.saturating_mul(1000) {
            return Err(ApproxError::AllRejected);
        }
        if opts.deadline.expired() {
            return Err(ApproxError::Interrupted {
                completed: values.len() as u64,
            });
        }
        let Some(cfg) = sample_trace(model, scheduler, opts, &mut rng)? else {
            continue; // rejected by an observation
        };
        if let Some(v) = query_value_on(model, query, &cfg)? {
            values.push(v);
        }
    }
    let z = values.len() as f64 / attempts as f64;
    Ok(Estimate::from_values(&values, z))
}

/// Samples one complete trace to a terminal configuration; `None` when the
/// trace is rejected by a failed observation.
///
/// # Errors
///
/// Propagates semantic errors; reports non-termination past the step bound.
pub fn sample_trace(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ApproxOptions,
    rng: &mut StdRng,
) -> Result<Option<GlobalConfig>, ApproxError> {
    let mut cfg = sample_initial(model, rng)?;
    for _ in 0..opts.max_global_steps {
        match sample_step(model, scheduler, &mut cfg, rng)? {
            StepOutcome::ObserveFailed => return Ok(None),
            StepOutcome::AlreadyTerminal => return Ok(Some(cfg)),
            StepOutcome::Stepped => {
                if cfg.is_terminal() {
                    return Ok(Some(cfg));
                }
            }
        }
    }
    Err(ApproxError::Unterminated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_mean_and_standard_error() {
        let e = Estimate::from_values(&[0.0, 1.0, 0.0, 1.0], 1.0);
        assert_eq!(e.value, 0.5);
        assert_eq!(e.samples, 4);
        // Sample variance = 1/3; std error = sqrt(1/12).
        assert!((e.std_error - (1.0f64 / 12.0).sqrt()).abs() < 1e-12);
        assert_eq!(e.z_estimate, 1.0);
    }

    #[test]
    fn estimate_degenerate_cases() {
        let single = Estimate::from_values(&[2.5], 0.5);
        assert_eq!(single.value, 2.5);
        assert_eq!(single.std_error, 0.0);
        let constant = Estimate::from_values(&[3.0; 10], 1.0);
        assert_eq!(constant.value, 3.0);
        assert_eq!(constant.std_error, 0.0);
    }

    #[test]
    fn estimate_display_is_compact() {
        let e = Estimate::from_values(&[0.25, 0.75], 1.0);
        let text = e.to_string();
        assert!(text.contains("0.5000"), "{text}");
        assert!(text.contains("2 samples"), "{text}");
    }
}
