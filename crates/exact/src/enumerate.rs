//! Exhaustive enumeration of probabilistic computations by replay.
//!
//! Running a handler is deterministic given the outcomes of its draws and
//! symbolic sign decisions. The [`ReplayDriver`] records the outcome
//! sequence (the *script*); when execution reaches a fresh choice point it
//! takes one outcome, registers the sibling prefixes for later exploration,
//! and keeps going. Driving the computation once per leaf enumerates the
//! entire choice tree with exact probabilities and symbolic guards — this is
//! the exact engine's counterpart of PSI's symbolic path enumeration.

use bayonet_num::{Rat, Sign};
use bayonet_symbolic::{feasibility, FeasibilityCache, Guard, LinExpr};

use bayonet_net::{ChoiceDriver, Deadline, SemanticsError};

use crate::engine::ExactError;

/// How many handler runs an engine-driven enumeration completes between
/// deadline polls.
const DEADLINE_POLL_STRIDE: usize = 256;

/// One recorded choice outcome.
#[derive(Clone, Debug)]
enum Choice {
    Flip(bool),
    Uniform(i64),
    Sign(Sign),
}

/// A [`ChoiceDriver`] that replays a script of choice outcomes, extending it
/// at the frontier and registering unexplored siblings.
#[derive(Debug)]
pub struct ReplayDriver<'a> {
    script: Vec<Choice>,
    pos: usize,
    /// Product of the probabilities of the replayed/extended choices.
    weight: Rat,
    /// Accumulated symbolic guard (base guard + sign assumptions made).
    guard: Guard,
    /// Sibling prefixes discovered at fresh choice points during this run.
    pending: Vec<Vec<Choice>>,
    /// Prune symbolically infeasible sign branches with Fourier–Motzkin.
    fm_pruning: bool,
    /// Memoized feasibility verdicts shared across the run, if any.
    cache: Option<&'a FeasibilityCache>,
    /// How many sibling branches this run may still queue.
    room: usize,
    /// Set when a draw would have queued more siblings than `room`.
    over_limit: bool,
}

impl<'a> ReplayDriver<'a> {
    fn new(
        script: Vec<Choice>,
        base_guard: Guard,
        fm_pruning: bool,
        cache: Option<&'a FeasibilityCache>,
        room: usize,
    ) -> Self {
        ReplayDriver {
            script,
            pos: 0,
            weight: Rat::one(),
            guard: base_guard,
            pending: Vec::new(),
            fm_pruning,
            cache,
            room,
            over_limit: false,
        }
    }

    fn next_scripted(&mut self) -> Option<Choice> {
        let c = self.script.get(self.pos).cloned();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn prefix_with(&self, alt: Choice) -> Vec<Choice> {
        let mut prefix = self.script[..self.pos].to_vec();
        prefix.pop(); // this run already appended/replayed the chosen branch
        prefix.push(alt);
        prefix
    }
}

impl ChoiceDriver for ReplayDriver<'_> {
    fn flip(&mut self, p: &Rat) -> Result<bool, SemanticsError> {
        match self.next_scripted() {
            Some(Choice::Flip(b)) => {
                if b {
                    self.weight *= p;
                } else {
                    self.weight *= &p.complement();
                }
                Ok(b)
            }
            Some(_) => unreachable!("replay mismatch: expected a flip"),
            None => {
                // Fresh point: take `true`, register `false`.
                self.script.push(Choice::Flip(true));
                self.pos += 1;
                self.pending.push(self.prefix_with(Choice::Flip(false)));
                self.weight *= p;
                Ok(true)
            }
        }
    }

    fn uniform_int(&mut self, lo: i64, hi: i64) -> Result<i64, SemanticsError> {
        let n = hi - lo + 1;
        match self.next_scripted() {
            Some(Choice::Uniform(v)) => {
                self.weight *= &Rat::ratio(1, n);
                Ok(v)
            }
            Some(_) => unreachable!("replay mismatch: expected a uniform draw"),
            None => {
                // Count the siblings before queuing one per value.
                let siblings = i128::from(hi) - i128::from(lo);
                if siblings > (self.room.saturating_sub(self.pending.len())) as i128 {
                    self.over_limit = true;
                    return Err(SemanticsError::Trap(
                        "uniformInt range exceeds the branch limit".to_string(),
                    ));
                }
                self.script.push(Choice::Uniform(lo));
                self.pos += 1;
                for v in lo + 1..=hi {
                    self.pending.push(self.prefix_with(Choice::Uniform(v)));
                }
                self.weight *= &Rat::ratio(1, n);
                Ok(lo)
            }
        }
    }

    fn decide_sign(&mut self, expr: &LinExpr) -> Result<Sign, SemanticsError> {
        // A sign already implied by the guard costs nothing and must not
        // consume script (execution is deterministic given the guard).
        if let Some(s) = self.guard.known_sign(expr) {
            return Ok(s);
        }
        match self.next_scripted() {
            Some(Choice::Sign(s)) => {
                self.guard = self
                    .guard
                    .assume_sign(expr, s)
                    .expect("replayed sign was consistent on first exploration");
                Ok(s)
            }
            Some(_) => unreachable!("replay mismatch: expected a sign decision"),
            None => {
                // Fresh trichotomy split: keep the first feasible sign,
                // register the other feasible signs as siblings.
                let guard = &self.guard;
                let fm_pruning = self.fm_pruning;
                let cache = self.cache;
                let mut feasible = [Sign::Minus, Sign::Zero, Sign::Plus]
                    .into_iter()
                    .filter_map(move |s| {
                        let g = guard.assume_sign(expr, s)?;
                        let sat = !fm_pruning
                            || match cache {
                                Some(c) => c.is_sat(&g),
                                None => feasibility(&g).is_sat(),
                            };
                        if !sat {
                            return None;
                        }
                        Some((s, g))
                    });
                let (first, first_guard) = feasible
                    .next()
                    .expect("at least one sign of any expression is feasible");
                self.script.push(Choice::Sign(first));
                self.pos += 1;
                for (s, _) in feasible {
                    self.pending.push(self.prefix_with(Choice::Sign(s)));
                }
                self.guard = first_guard;
                Ok(first)
            }
        }
    }
}

/// One enumerated execution branch.
#[derive(Clone, Debug)]
pub struct Branch<T> {
    /// The computation's result on this branch.
    pub result: T,
    /// Probability of the branch (product of draw probabilities), relative
    /// to the computation's entry point.
    pub weight: Rat,
    /// Symbolic guard under which the branch is taken (extends the base
    /// guard).
    pub guard: Guard,
}

/// Enumerates every branch of a probabilistic computation.
///
/// `f` must be *deterministic given the driver's answers* (true for handler
/// execution and query evaluation). The sum of branch weights is 1 for each
/// consistent region of parameter space.
///
/// # Errors
///
/// Propagates the first [`SemanticsError`] any branch raises.
///
/// # Examples
///
/// ```
/// use bayonet_exact::enumerate_eval;
/// use bayonet_net::ChoiceDriver;
/// use bayonet_num::Rat;
/// use bayonet_symbolic::Guard;
///
/// // Two coin flips -> four branches of weight 1/4 each.
/// let branches = enumerate_eval(&Guard::top(), true, |d| {
///     let a = d.flip(&Rat::ratio(1, 2))?;
///     let b = d.flip(&Rat::ratio(1, 2))?;
///     Ok((a, b))
/// })?;
/// assert_eq!(branches.len(), 4);
/// assert!(branches.iter().all(|b| b.weight == Rat::ratio(1, 4)));
/// # Ok::<(), bayonet_net::SemanticsError>(())
/// ```
pub fn enumerate_eval<T>(
    base_guard: &Guard,
    fm_pruning: bool,
    f: impl FnMut(&mut ReplayDriver) -> Result<T, SemanticsError>,
) -> Result<Vec<Branch<T>>, SemanticsError> {
    enumerate_eval_cached(base_guard, fm_pruning, None, f)
}

/// [`enumerate_eval`] with the Fourier–Motzkin pruning checks routed
/// through a shared [`FeasibilityCache`].
///
/// The exact engine replays sibling branches from the root, so the same
/// guard prefixes are re-checked many times per enumeration; memoizing the
/// verdicts turns those repeats into hash lookups. Pass `None` to check
/// feasibility directly (identical behavior, no memoization).
pub fn enumerate_eval_cached<T>(
    base_guard: &Guard,
    fm_pruning: bool,
    cache: Option<&FeasibilityCache>,
    f: impl FnMut(&mut ReplayDriver) -> Result<T, SemanticsError>,
) -> Result<Vec<Branch<T>>, SemanticsError> {
    enumerate_bounded(base_guard, fm_pruning, cache, None, f).map_err(|e| match e {
        ExactError::Semantics(e) => e,
        other => unreachable!("an unbounded enumeration failed with {other}"),
    })
}

/// What bounds one engine-driven enumeration: the branches it may hold,
/// done and queued, and the deadline it polls while branches are pending.
pub(crate) struct Bounds<'a> {
    pub(crate) max_branches: usize,
    pub(crate) deadline: &'a Deadline,
}

/// [`enumerate_eval_cached`] under optional [`Bounds`]. A `uniformInt`
/// draw is charged its whole range before one sibling is queued, so a
/// range wider than the limit returns [`ExactError::ConfigLimit`] without
/// allocating for it; an expired deadline returns
/// [`ExactError::Interrupted`] with zero counts, which the caller fills in.
pub(crate) fn enumerate_bounded<T>(
    base_guard: &Guard,
    fm_pruning: bool,
    cache: Option<&FeasibilityCache>,
    bounds: Option<&Bounds<'_>>,
    mut f: impl FnMut(&mut ReplayDriver) -> Result<T, SemanticsError>,
) -> Result<Vec<Branch<T>>, ExactError> {
    let limit = bounds.map_or(usize::MAX, |b| b.max_branches);
    let mut out = Vec::new();
    let mut stack = vec![Vec::new()];
    while let Some(script) = stack.pop() {
        if let Some(b) = bounds {
            if !out.is_empty()
                && out.len().is_multiple_of(DEADLINE_POLL_STRIDE)
                && b.deadline.expired()
            {
                return Err(ExactError::Interrupted {
                    steps: 0,
                    expansions: 0,
                });
            }
        }
        let room = limit.saturating_sub(out.len() + stack.len() + 1);
        let mut driver = ReplayDriver::new(script, base_guard.clone(), fm_pruning, cache, room);
        let result = f(&mut driver);
        if driver.over_limit || out.len() + stack.len() + driver.pending.len() >= limit {
            return Err(ExactError::ConfigLimit(limit));
        }
        let result = result?;
        stack.append(&mut driver.pending);
        out.push(Branch {
            result,
            weight: driver.weight,
            guard: driver.guard,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flip_two_branches() {
        let branches = enumerate_eval(&Guard::top(), true, |d| d.flip(&Rat::ratio(1, 3))).unwrap();
        assert_eq!(branches.len(), 2);
        let total: Rat = branches.iter().fold(Rat::zero(), |acc, b| acc + &b.weight);
        assert_eq!(total, Rat::one());
        // true branch has weight 1/3, false 2/3.
        let t = branches.iter().find(|b| b.result).unwrap();
        assert_eq!(t.weight, Rat::ratio(1, 3));
    }

    #[test]
    fn uniform_enumerates_range() {
        let branches = enumerate_eval(&Guard::top(), true, |d| d.uniform_int(2, 5)).unwrap();
        let mut values: Vec<i64> = branches.iter().map(|b| b.result).collect();
        values.sort_unstable();
        assert_eq!(values, vec![2, 3, 4, 5]);
        assert!(branches.iter().all(|b| b.weight == Rat::ratio(1, 4)));
    }

    #[test]
    fn dependent_draws_form_a_tree() {
        // flip(1/2); if true then uniform(1..3) else nothing.
        let branches = enumerate_eval(&Guard::top(), true, |d| {
            if d.flip(&Rat::ratio(1, 2))? {
                d.uniform_int(1, 3)
            } else {
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(branches.len(), 4);
        let total: Rat = branches.iter().fold(Rat::zero(), |acc, b| acc + &b.weight);
        assert_eq!(total, Rat::one());
        let zero = branches.iter().find(|b| b.result == 0).unwrap();
        assert_eq!(zero.weight, Rat::ratio(1, 2));
    }

    #[test]
    fn sign_split_three_branches_with_guards() {
        use bayonet_symbolic::ParamTable;
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let branches = enumerate_eval(&Guard::top(), true, |d| d.decide_sign(&x)).unwrap();
        assert_eq!(branches.len(), 3);
        for b in &branches {
            assert_eq!(b.weight, Rat::one());
            assert_eq!(b.guard.known_sign(&x), Some(b.result));
        }
    }

    #[test]
    fn guard_implied_sign_does_not_split() {
        use bayonet_symbolic::ParamTable;
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let base = Guard::top().assume_sign(&x, Sign::Plus).unwrap();
        // Asking twice for the same expression splits only the first time —
        // and here not at all, since the base guard already pins it.
        let branches = enumerate_eval(&base, true, |d| {
            let s1 = d.decide_sign(&x)?;
            let s2 = d.decide_sign(&x.scale(&Rat::int(2)))?;
            Ok((s1, s2))
        })
        .unwrap();
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].result, (Sign::Plus, Sign::Plus));
    }

    #[test]
    fn fm_pruning_removes_contradictory_combinations() {
        use bayonet_symbolic::ParamTable;
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let y = LinExpr::param(t.intern("y"));
        let z = LinExpr::param(t.intern("z"));
        // sign(x-y), sign(y-z), sign(x-z): 27 syntactic combinations, but
        // only 13 are order-consistent.
        let branches = enumerate_eval(&Guard::top(), true, |d| {
            let a = d.decide_sign(&x.sub(&y))?;
            let b = d.decide_sign(&y.sub(&z))?;
            let c = d.decide_sign(&x.sub(&z))?;
            Ok((a, b, c))
        })
        .unwrap();
        assert_eq!(branches.len(), 13);
        // Without pruning, all 27 would be explored (3 are then
        // syntactically consistent but semantically empty).
        let unpruned = enumerate_eval(&Guard::top(), false, |d| {
            let a = d.decide_sign(&x.sub(&y))?;
            let b = d.decide_sign(&y.sub(&z))?;
            let c = d.decide_sign(&x.sub(&z))?;
            Ok((a, b, c))
        })
        .unwrap();
        assert_eq!(unpruned.len(), 27);
    }

    #[test]
    fn cached_enumeration_matches_uncached() {
        use bayonet_symbolic::ParamTable;
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let y = LinExpr::param(t.intern("y"));
        let z = LinExpr::param(t.intern("z"));
        let run = |cache: Option<&FeasibilityCache>| {
            enumerate_eval_cached(&Guard::top(), true, cache, |d| {
                let a = d.decide_sign(&x.sub(&y))?;
                let b = d.decide_sign(&y.sub(&z))?;
                let c = d.decide_sign(&x.sub(&z))?;
                Ok((a, b, c))
            })
            .unwrap()
        };
        let plain = run(None);
        let cache = FeasibilityCache::new();
        let cached = run(Some(&cache));
        assert_eq!(plain.len(), cached.len());
        for (p, c) in plain.iter().zip(&cached) {
            assert_eq!(p.result, c.result);
            assert_eq!(p.weight, c.weight);
            assert_eq!(p.guard, c.guard);
        }
        let (_, misses) = cache.counts();
        assert!(misses > 0);
        // A second enumeration sharing the cache (as the engine does across
        // configs) answers every check from the memo table.
        let again = run(Some(&cache));
        assert_eq!(again.len(), cached.len());
        let (hits2, misses2) = cache.counts();
        assert_eq!(misses2, misses, "second run must not miss");
        assert!(hits2 >= misses, "expected cache hits, got {hits2}");
    }
}
