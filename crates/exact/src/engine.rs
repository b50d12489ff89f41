//! The exact inference engine: exhaustive weighted exploration of the
//! global transition system with configuration merging.
//!
//! This plays the role PSI plays in the paper's toolchain — an exact
//! posterior calculator. The global semantics is a Markov chain over
//! configurations (Figure 7), so identical configurations reached along
//! different traces can have their masses summed; that merging is what makes
//! 30-node networks tractable. Observation failures remove mass, which is
//! restored by normalizing with the surviving mass `Z` (paper §3.2).
//!
//! # State store
//!
//! Configurations live in a per-run [`StateStore`](crate::store): every
//! distinct node configuration is interned once under a dense `u32` id, and
//! a frontier entry is `(guard, scheduler state, one id per node, mass)`.
//! A `(Run, i)` successor copies the id slice and replaces one id, from
//! handler branches memoized per `(node, id, guard)`; a `(Fwd, i)` successor
//! replaces at most two, from a memoized pop and push. Merging hashes ids,
//! not configurations, and symmetry relabels ids through a memo. The store
//! is dropped with the run; [`EnumState::finish`] decodes the terminals
//! back into [`GlobalConfig`]s, so [`Analysis`] is unchanged.
//!
//! # Parallel expansion and determinism
//!
//! Expanding one configuration is independent of every other, so each step
//! cuts a large frontier into chunks and hands them to
//! [`crate::pool::fan_out`]: every worker lane takes the next unclaimed
//! chunk from one shared counter, and the chunk outputs come back in chunk
//! order. Each chunk interns into its own overlay of the store, absorbed in
//! chunk order after the step. A single-threaded step is the same code with
//! one chunk on one lane, interning straight into the store. Intern ids
//! depend on the schedule, so nothing is ordered by id: to make the
//! *results bit-for-bit reproducible regardless of schedule*, every merge
//! ([`compress`]) sorts its output by the structural `(GlobalConfig,
//! Guard)` order, comparing equal ids without looking at the
//! configurations. A single-threaded run and an 8-thread run therefore
//! produce identical [`Analysis`] values (identical terminals, identical
//! statistics apart from the feasibility-cache counters) and report the
//! same error, which `crates/exact/tests/differential.rs` locks down.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bayonet_num::{FastMap, Rat};
use bayonet_symbolic::{FeasibilityCache, Guard};

use bayonet_net::{Action, Deadline, GlobalConfig, Model, Scheduler, SemanticsError};

use crate::pool::{fan_out, ComputePool};
use crate::store::{initial_states, Remap, StateKey, StateStore, Symmetry, View};

/// Which exact backend explores the global transition system. Both produce
/// bit-identical [`Analysis`] posteriors; they differ in how the frontier is
/// represented and therefore in speed on structured state spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Explicit frontier enumeration with configuration merging (the
    /// default). Parallelizes across [`ExactOptions::threads`].
    #[default]
    Enum,
    /// Knowledge compilation to algebraic decision diagrams
    /// (`bayonet-bdd`): the frontier is a set of hash-consed diagrams and
    /// each scheduler action is a set-level transform. Wins — often by an
    /// order of magnitude — when nodes' local states are conditionally
    /// independent. Single-threaded; ignores [`ExactOptions::threads`].
    Bdd,
    /// Let the static cost model pick the backend (see [`crate::planner`]);
    /// it picks [`EngineKind::Enum`], which measured faster than
    /// [`EngineKind::Bdd`] everywhere. The choice is a pure function of the
    /// model, so results stay deterministic.
    Auto,
}

/// Options controlling the exact engine.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Maximum number of global steps before reporting non-termination
    /// (the paper's generated programs assert `terminated()` after
    /// `num_steps`; we iterate to the fixpoint with this safety bound).
    pub max_global_steps: u64,
    /// Safety bound on simultaneously tracked configurations: global
    /// configurations on the frontier, and, separately, node
    /// configurations plus memo entries in the run's state store, which
    /// keeps everything the run has seen.
    pub max_configs: usize,
    /// Prune symbolically infeasible branches with Fourier–Motzkin.
    pub fm_pruning: bool,
    /// Merge identical configurations (the ablation switch; disabling this
    /// recovers naive trace enumeration).
    pub merge_configs: bool,
    /// Worker threads for frontier expansion (1 = single-threaded). When
    /// [`ExactOptions::pool`] is set this is a *request*: the engine leases
    /// up to `threads - 1` extra workers from the pool and degrades toward
    /// single-threaded when the pool is busy. Results are identical for
    /// every value; only wall-clock time changes.
    pub threads: usize,
    /// Smallest frontier worth parallelizing; frontiers below this expand
    /// sequentially even when `threads > 1` (spawn overhead dominates).
    pub par_threshold: usize,
    /// Shared compute pool to lease extra workers from (see
    /// [`ComputePool`]); `None` means `threads` is taken at face value.
    pub pool: Option<ComputePool>,
    /// Cooperative deadline/cancellation, polled between expansion batches.
    /// Defaults to unlimited.
    pub deadline: Deadline,
    /// Memo table for Fourier–Motzkin feasibility verdicts. `None` (the
    /// default) gives each [`analyze`] run a private cache; pass a shared
    /// [`FeasibilityCache`] to reuse verdicts across the analyze and
    /// query-answering passes of one request.
    pub feasibility_cache: Option<Arc<FeasibilityCache>>,
    /// Which backend to run; see [`EngineKind`]. Both backends honor every
    /// other option and produce bit-identical posteriors.
    pub engine: EngineKind,
    /// Run the model-optimization pass pipeline (`bayonet_net::opt`) before
    /// inference (default on; the CLI's `--no-opt` and the serve API's
    /// `"passes": false` turn it off). Posteriors are bit-identical either
    /// way; passes only shrink the explored state space. Models that
    /// already carry pass results ([`Model::opt_info`]) are not re-optimized.
    pub passes: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_global_steps: 100_000,
            max_configs: 4_000_000,
            fm_pruning: true,
            merge_configs: true,
            threads: 1,
            par_threshold: 16,
            pool: None,
            deadline: Deadline::default(),
            feasibility_cache: None,
            engine: EngineKind::default(),
            passes: true,
        }
    }
}

/// Statistics from an exact-engine run.
///
/// Every field except the feasibility-cache counters is a pure function of
/// the model and options — independent of thread count and schedule. The
/// cache counters depend on which worker reaches a guard first, so they are
/// reported out-of-band (CLI `--stats` stderr, server `/metrics`
/// aggregates) and never in pinned output.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Global steps executed (depth of the exploration).
    pub steps: u64,
    /// Configuration expansions performed.
    pub expansions: u64,
    /// Peak number of simultaneously tracked configurations.
    pub peak_configs: usize,
    /// Number of times a successor merged into an existing configuration.
    pub merge_hits: u64,
    /// Number of distinct terminal configurations.
    pub terminal_configs: usize,
    /// Fourier–Motzkin feasibility checks answered from the per-run guard
    /// cache (schedule-dependent under parallel expansion).
    pub feasibility_hits: u64,
    /// Feasibility checks that ran the full elimination.
    pub feasibility_misses: u64,
    /// Decision nodes allocated in the ADD store ([`EngineKind::Bdd`] only;
    /// 0 under enumeration).
    pub bdd_nodes: u64,
    /// ADD constructions answered by the unique table (structural merges;
    /// [`EngineKind::Bdd`] only).
    pub bdd_unique_hits: u64,
    /// ADD operations answered by the apply/operation memo caches
    /// ([`EngineKind::Bdd`] only).
    pub bdd_apply_cache_hits: u64,
    /// Successor configurations replaced by a smaller member of their
    /// symmetry orbit (see `bayonet_net::opt`; 0 when the model has no
    /// non-trivial automorphisms or canonicalization is gated off).
    /// Schedule-independent: a pure function of the model and options.
    pub orbit_merges: u64,
}

/// Errors from the exact engine.
#[derive(Debug)]
pub enum ExactError {
    /// A semantic error in the model (hard failure).
    Semantics(SemanticsError),
    /// Mass remained on non-terminal configurations after the step bound.
    Unterminated {
        /// Number of live configurations.
        live_configs: usize,
        /// Total unresolved probability mass (approximate display).
        mass: String,
    },
    /// The configuration frontier, or the run's state store, exceeded
    /// [`ExactOptions::max_configs`].
    ConfigLimit(usize),
    /// All probability mass was discarded by observations (Z = 0), so the
    /// posterior is undefined.
    AllMassObservedOut,
    /// The run was cut short by its [`Deadline`] (timeout or cancellation).
    Interrupted {
        /// Global steps completed before the interruption.
        steps: u64,
        /// Configuration expansions completed before the interruption.
        expansions: u64,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Semantics(e) => write!(f, "semantic error: {e}"),
            ExactError::Unterminated { live_configs, mass } => write!(
                f,
                "network did not terminate within the step bound \
                 ({live_configs} live configurations, mass ≈ {mass})"
            ),
            ExactError::ConfigLimit(n) => {
                write!(
                    f,
                    "exact state space exceeded the configuration limit ({n})"
                )
            }
            ExactError::AllMassObservedOut => {
                f.write_str("all probability mass was discarded by observations (Z = 0)")
            }
            ExactError::Interrupted { steps, expansions } => write!(
                f,
                "exact inference interrupted by deadline \
                 (after {steps} steps, {expansions} expansions)"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

impl From<SemanticsError> for ExactError {
    fn from(e: SemanticsError) -> Self {
        ExactError::Semantics(e)
    }
}

/// The exact posterior over terminal configurations.
///
/// `terminals` and `discarded` are sorted by canonical state key / guard,
/// so two runs of the same model produce structurally identical values
/// regardless of thread count.
#[derive(Debug)]
pub struct Analysis {
    /// Terminal configurations with their guards and unnormalized masses.
    pub terminals: Vec<(GlobalConfig, Guard, Rat)>,
    /// Mass discarded by failed observations, per guard.
    pub discarded: Vec<(Guard, Rat)>,
    /// Run statistics.
    pub stats: EngineStats,
}

impl Analysis {
    /// Total surviving (terminal) mass; with no symbolic parameters this is
    /// the paper's normalization constant `Z`.
    pub fn total_terminal_mass(&self) -> Rat {
        self.terminals
            .iter()
            .fold(Rat::zero(), |acc, (_, _, m)| acc + m)
    }

    /// Total mass discarded by observations.
    pub fn total_discarded_mass(&self) -> Rat {
        self.discarded
            .iter()
            .fold(Rat::zero(), |acc, (_, m)| acc + m)
    }
}

/// How many configuration expansions to run between deadline polls.
const DEADLINE_POLL_STRIDE: usize = 256;

/// Target number of frontier chunks per parallel worker. More chunks than
/// workers keeps every lane busy when chunk costs are uneven.
const TASKS_PER_WORKER: usize = 4;

/// A weighted set of guarded configurations, as keys into the run's
/// [`StateStore`]. Kept as a `Vec`; merging compresses it through a hash
/// map.
type Weighted = Vec<(Guard, StateKey, Rat)>;

/// Successors produced by expanding a batch of configurations.
#[derive(Default)]
struct Expansion {
    next: Weighted,
    terminal: Weighted,
    discarded: Vec<(Guard, Rat)>,
    orbit_merges: u64,
}

impl Expansion {
    fn absorb(&mut self, part: Expansion) {
        self.next.extend(part.next);
        self.terminal.extend(part.terminal);
        self.discarded.extend(part.discarded);
        self.orbit_merges += part.orbit_merges;
    }

    /// Renumbers successor ids after the chunk's overlay was absorbed.
    fn renumber(&mut self, remap: &Remap) {
        for (_, key, _) in self.next.iter_mut().chain(&mut self.terminal) {
            for id in key.ids.iter_mut() {
                *id = remap.id(*id);
            }
        }
    }

    /// Canonicalizes a successor by symmetry orbit (counting the
    /// replacement when it changed anything) and files it as terminal or
    /// live.
    fn push(
        &mut self,
        view: &mut View<'_>,
        sym: Option<&Symmetry<'_>>,
        guard: Guard,
        sched_state: u32,
        mut ids: Box<[u32]>,
        mass: Rat,
    ) {
        if let Some(sym) = sym {
            if view.canonicalize(sym, &mut ids) {
                self.orbit_merges += 1;
            }
        }
        let terminal = view.is_terminal(&ids);
        let entry = (guard, StateKey { sched_state, ids }, mass);
        if terminal {
            self.terminal.push(entry);
        } else {
            self.next.push(entry);
        }
    }
}

/// Expands `frontier` over up to `workers` threads and concatenates the
/// chunk outputs in chunk order, which is exactly the order one sequential
/// pass would produce. A frontier below [`ExactOptions::par_threshold`] (or
/// a single worker) is one chunk on the caller's thread that interns
/// straight into `store`; otherwise the frontier is split into
/// `workers × TASKS_PER_WORKER` chunks, each interning into its own
/// overlay of `store`, and the overlays are absorbed in chunk order.
///
/// Error rule: the error from the earliest failing chunk wins, and it wins
/// over an interruption. A chunk stops early only when an earlier chunk
/// has already failed, so that error is the one a sequential pass would
/// hit first. An expired deadline stops every chunk and returns `Ok(None)`.
fn expand_frontier(
    model: &Model,
    scheduler: &dyn Scheduler,
    store: &mut StateStore,
    frontier: &[(Guard, StateKey, Rat)],
    opts: &ExactOptions,
    workers: usize,
) -> Result<Option<Expansion>, ExactError> {
    let sym = symmetry_for(model, scheduler).map(Symmetry::new);
    let sym = sym.as_ref();
    // The lowest chunk that has failed so far (`usize::MAX`: none). An
    // expired deadline stores 0, which stops every later chunk. A stopped
    // chunk returns `Err(None)`.
    let failed = AtomicUsize::new(usize::MAX);
    let expand_chunk = |view: &mut View<'_>, chunk: usize, entries: &[(Guard, StateKey, Rat)]| {
        let mut out = Expansion::default();
        for (i, (g, key, m)) in entries.iter().enumerate() {
            if i % DEADLINE_POLL_STRIDE == 0 {
                if failed.load(Ordering::Relaxed) < chunk {
                    return Err(None);
                }
                if opts.deadline.expired() {
                    failed.store(0, Ordering::Relaxed);
                    return Err(None);
                }
            }
            if let Err(e) = expand_config(model, scheduler, sym, view, g, key, m, opts, &mut out) {
                failed.fetch_min(chunk, Ordering::Relaxed);
                return Err(Some(e));
            }
        }
        Ok(out)
    };

    if workers <= 1 || frontier.len() < opts.par_threshold.max(2) {
        let empty = StateStore::default();
        let mut view = View::new(&empty, std::mem::take(store));
        let part = expand_chunk(&mut view, 0, frontier);
        *store = view.into_own();
        return match part {
            Ok(out) => Ok(Some(out)),
            Err(None) => Ok(None),
            Err(Some(e)) => Err(e),
        };
    }

    let chunk_len = frontier.len().div_ceil(workers * TASKS_PER_WORKER).max(1);
    let base = &*store;
    let parts = fan_out(workers, frontier.len().div_ceil(chunk_len), |chunk| {
        let start = chunk * chunk_len;
        let end = (start + chunk_len).min(frontier.len());
        let mut view = View::new(base, base.overlay());
        let out = expand_chunk(&mut view, chunk, &frontier[start..end])?;
        Ok((out, view.into_own()))
    });

    let mut merged = Expansion::default();
    let mut interrupted = false;
    for part in parts {
        match part {
            Ok((mut part, own)) => {
                part.renumber(&store.absorb(own));
                merged.absorb(part);
            }
            Err(None) => interrupted = true,
            Err(Some(e)) => return Err(e),
        }
    }
    Ok(if interrupted { None } else { Some(merged) })
}

/// The symmetry group to canonicalize frontier configurations with, when
/// every gate passes: the model was optimized and has a non-trivial
/// automorphism group, the scheduler *actually running* is
/// permutation-invariant (a `set_scheduler` override can differ from the
/// model's declared kind), and no unbound symbolic parameters remain (the
/// case-split order of symbolic query evaluation would otherwise depend on
/// which orbit representative survives).
pub(crate) fn symmetry_for<'a>(
    model: &'a Model,
    scheduler: &dyn Scheduler,
) -> Option<&'a bayonet_net::opt::SymmetryGroup> {
    if !scheduler.permutation_invariant() || model.has_symbolic_params() {
        return None;
    }
    model.opt_info().and_then(|i| i.symmetry.as_ref())
}

/// Expands one non-terminal configuration by one global step, appending
/// successors to `out`. A successor copies the id slice and changes the
/// ids of at most two nodes.
#[allow(clippy::too_many_arguments)]
fn expand_config(
    model: &Model,
    scheduler: &dyn Scheduler,
    sym: Option<&Symmetry<'_>>,
    view: &mut View<'_>,
    guard: &Guard,
    key: &StateKey,
    mass: &Rat,
    opts: &ExactOptions,
    out: &mut Expansion,
) -> Result<(), ExactError> {
    let k = model.num_nodes();
    let enabled = view.enabled(&key.ids);
    debug_assert!(!enabled.is_empty(), "frontier configs are non-terminal");
    for (action, p_sched, sched_next) in scheduler.distribution(key.sched_state, &enabled, k) {
        let step_mass = mass * &p_sched;
        match action {
            Action::Fwd(i) => {
                let mut ids = key.ids.clone();
                view.forward(model, i, &mut ids)?;
                out.push(view, sym, guard.clone(), sched_next, ids, step_mass);
            }
            Action::Run(i) => {
                // G-Run: every complete handler execution, once per
                // distinct (node, configuration, guard).
                let branches = view.run_branches(model, opts, i, key.ids[i], guard)?;
                for b in branches.iter() {
                    let branch_mass = &step_mass * &b.weight;
                    match b.next {
                        // Conditioning: remove this mass from the
                        // distribution.
                        None => out.discarded.push((b.guard.clone(), branch_mass)),
                        Some(id) => {
                            let mut ids = key.ids.clone();
                            ids[i] = id;
                            out.push(view, sym, b.guard.clone(), sched_next, ids, branch_mass);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Merges identical `(guard, config)` entries by summing their masses, then
/// sorts by the structural `(config, guard)` order so the output order — and
/// everything derived from it downstream — is independent of hash-map
/// iteration order, of intern ids and of the parallel schedule that
/// produced `items`.
fn compress(store: &StateStore, items: Weighted, stats: &mut EngineStats) -> Weighted {
    let mut map: FastMap<(Guard, StateKey), Rat> =
        FastMap::with_capacity_and_hasher(items.len(), Default::default());
    for (g, key, m) in items {
        match map.entry((g, key)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += &m;
                stats.merge_hits += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m);
            }
        }
    }
    let mut out: Weighted = map.into_iter().map(|((g, key), m)| (g, key, m)).collect();
    out.sort_unstable_by(|(g1, k1, _), (g2, k2, _)| {
        store.cmp_keys(k1, k2).then_with(|| g1.cmp(g2))
    });
    out
}

/// The enumeration engine's exploration state between global steps.
///
/// [`analyze`] drives it straight to the fixpoint; the sweep engine
/// ([`crate::sweep`]) instead keeps it at the last step that provably did
/// not depend on a swept parameter ([`EnumState::mark`],
/// [`EnumState::rewind`]) and replays the remainder once per grid point
/// (it is `Clone`, store included).
#[derive(Clone)]
pub(crate) struct EnumState {
    store: StateStore,
    frontier: Weighted,
    terminal_acc: Weighted,
    discarded: FastMap<Guard, Rat>,
    pub(crate) stats: EngineStats,
}

/// An exploration position without its store (see [`EnumState::mark`]).
pub(crate) struct Mark {
    frontier: Weighted,
    terminal_acc: Weighted,
    discarded: FastMap<Guard, Rat>,
    stats: EngineStats,
}

impl EnumState {
    /// Builds the initial distribution (see [`initial_states`]),
    /// canonicalized by symmetry orbit from the start: orbit masses then
    /// evolve exactly under the permutation-invariant step kernel, for any
    /// initial packet placement.
    pub(crate) fn init(
        model: &Model,
        scheduler: &dyn Scheduler,
        opts: &ExactOptions,
    ) -> Result<EnumState, ExactError> {
        let sym = symmetry_for(model, scheduler).map(Symmetry::new);
        let empty = StateStore::default();
        let mut view = View::new(&empty, StateStore::default());
        let initial = initial_states(model, opts, &mut |nc| view.intern(nc))?;
        let mut out = Expansion::default();
        for (guard, ids, mass) in initial {
            out.push(&mut view, sym.as_ref(), guard, 0, ids.into(), mass);
        }
        let store = view.into_own();
        let mut stats = EngineStats {
            orbit_merges: out.orbit_merges,
            ..EngineStats::default()
        };
        let frontier = compress(&store, out.next, &mut stats);
        Ok(EnumState {
            store,
            frontier,
            terminal_acc: out.terminal,
            discarded: FastMap::default(),
            stats,
        })
    }

    /// Has the exploration reached its fixpoint (empty frontier)?
    pub(crate) fn done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The current position, without the store. The store only grows, so
    /// [`EnumState::rewind`] can return to this position after later steps
    /// without the cost of copying the store at every step.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            frontier: self.frontier.clone(),
            terminal_acc: self.terminal_acc.clone(),
            discarded: self.discarded.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Returns to `mark`, taken earlier in this exploration, keeping the
    /// store but not its handler memo: the steps since may have run
    /// handlers under bindings the caller is about to change.
    pub(crate) fn rewind(self, mark: Mark) -> EnumState {
        let mut store = self.store;
        store.forget_handler_runs();
        EnumState {
            store,
            frontier: mark.frontier,
            terminal_acc: mark.terminal_acc,
            discarded: mark.discarded,
            stats: mark.stats,
        }
    }

    /// Executes one global step: bound checks, then a (possibly parallel)
    /// expansion of the whole frontier, then merging.
    ///
    /// Callers must not invoke this once [`EnumState::done`] holds.
    pub(crate) fn step(
        &mut self,
        model: &Model,
        scheduler: &dyn Scheduler,
        opts: &ExactOptions,
        workers: usize,
        step_bound: u64,
    ) -> Result<(), ExactError> {
        let stats = &mut self.stats;
        stats.steps += 1;
        if stats.steps > step_bound {
            let mass: Rat = self
                .frontier
                .iter()
                .fold(Rat::zero(), |acc, (_, _, m)| acc + m);
            return Err(ExactError::Unterminated {
                live_configs: self.frontier.len(),
                mass: format!("{:.6}", mass.to_f64()),
            });
        }
        stats.peak_configs = stats.peak_configs.max(self.frontier.len());
        if self.frontier.len() > opts.max_configs || self.store.entries() > opts.max_configs {
            return Err(ExactError::ConfigLimit(opts.max_configs));
        }
        if opts.deadline.expired() {
            return Err(ExactError::Interrupted {
                steps: stats.steps - 1,
                expansions: stats.expansions,
            });
        }

        stats.expansions += self.frontier.len() as u64;
        let Some(expansion) = expand_frontier(
            model,
            scheduler,
            &mut self.store,
            &self.frontier,
            opts,
            workers,
        )?
        else {
            return Err(ExactError::Interrupted {
                steps: self.stats.steps - 1,
                expansions: self.stats.expansions,
            });
        };
        self.stats.orbit_merges += expansion.orbit_merges;
        self.terminal_acc.extend(expansion.terminal);
        for (g, m) in expansion.discarded {
            *self.discarded.entry(g).or_insert_with(Rat::zero) += &m;
        }
        self.frontier = if opts.merge_configs {
            compress(&self.store, expansion.next, &mut self.stats)
        } else {
            expansion.next
        };
        Ok(())
    }

    /// Seals the exploration into an [`Analysis`]: merge and sort terminals,
    /// decode them back to [`GlobalConfig`]s, sort discarded mass.
    /// Feasibility-cache counters are the caller's responsibility (they are
    /// deltas against a shared cache).
    pub(crate) fn finish(self) -> Analysis {
        let mut stats = self.stats;
        // Terminal configurations are always merged: soundness does not
        // depend on it, and it keeps the posterior small.
        let terminals = compress(&self.store, self.terminal_acc, &mut stats);
        stats.terminal_configs = terminals.len();
        let mut discarded: Vec<(Guard, Rat)> = self.discarded.into_iter().collect();
        discarded.sort_unstable_by(|(g1, _), (g2, _)| g1.cmp(g2));
        Analysis {
            terminals: terminals
                .into_iter()
                .map(|(g, key, m)| (self.store.decode(&key), g, m))
                .collect(),
            discarded,
            stats,
        }
    }
}

/// Rebinds `opts` with a run-level feasibility cache: a caller-provided
/// cache is shared (its counters delta-reported), otherwise the run gets a
/// private one. Returns the cache and its counter snapshot.
pub(crate) fn run_cache_opts(
    opts: &ExactOptions,
) -> (Arc<FeasibilityCache>, ExactOptions, (u64, u64)) {
    let run_cache: Arc<FeasibilityCache> = opts.feasibility_cache.clone().unwrap_or_default();
    let counts_before = run_cache.counts();
    let opts = ExactOptions {
        feasibility_cache: Some(Arc::clone(&run_cache)),
        ..opts.clone()
    };
    (run_cache, opts, counts_before)
}

/// Leases extra expansion workers for a whole run: a big request holds its
/// crew from the shared pool (degrading gracefully when the pool is busy),
/// while `threads` is taken at face value without a pool. Returns the lease
/// guard (workers return to the pool on drop) and the effective crew size.
pub(crate) fn lease_workers(opts: &ExactOptions) -> (Option<crate::pool::PoolLease>, usize) {
    let requested = opts.threads.max(1);
    let lease = match &opts.pool {
        Some(pool) if requested > 1 => Some(pool.lease(requested - 1)),
        _ => None,
    };
    let workers = match &lease {
        Some(lease) => 1 + lease.granted(),
        None => requested,
    };
    (lease, workers)
}

/// The global step bound: the source's `num_steps N;` bounds the
/// exploration like the paper's generated `repeat N { step() };
/// assert(terminated())` (Figure 10), falling back to the options' safety
/// bound.
pub(crate) fn step_bound(model: &Model, opts: &ExactOptions) -> u64 {
    model.num_steps.unwrap_or(opts.max_global_steps)
}

/// Runs the exact engine to the termination fixpoint.
///
/// With `opts.threads > 1` the frontier expansion of each global step fans
/// out over worker lanes ([`crate::pool::fan_out`]); the returned
/// [`Analysis`] is byte-identical to a single-threaded run.
///
/// # Errors
///
/// See [`ExactError`]. In particular, networks that cannot reach a terminal
/// configuration within `opts.max_global_steps` are reported rather than
/// looping forever.
pub fn analyze(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<Analysis, ExactError> {
    // Run the pass pipeline unless the caller opted out or already did it
    // (serve and sweep optimize up front so one optimized model serves many
    // runs); the pipeline is semantics-preserving, so this changes engine
    // statistics, never posteriors.
    let optimized;
    let model = if opts.passes && model.opt_info().is_none() {
        optimized = bayonet_net::opt::optimize(model);
        &optimized
    } else {
        model
    };
    let engine = match opts.engine {
        // Auto resolves through the static cost model; the choice depends
        // only on the model, so statistics stay deterministic.
        EngineKind::Auto => crate::planner::choose_exact(model),
        explicit => explicit,
    };
    if engine == EngineKind::Bdd && model.num_nodes() <= 64 {
        // The diagram backend packs per-node queue flags into a `u128` (two
        // bits per node); larger models fall back to enumeration, which has
        // no such bound.
        return crate::bdd_engine::analyze_bdd(model, scheduler, opts);
    }
    let bound = step_bound(model, opts);
    let (run_cache, opts, (hits_before, misses_before)) = run_cache_opts(opts);
    let (_lease, workers) = lease_workers(&opts);

    let mut state = EnumState::init(model, scheduler, &opts)?;
    while !state.done() {
        state.step(model, scheduler, &opts, workers, bound)?;
    }
    let mut analysis = state.finish();
    let (hits_after, misses_after) = run_cache.counts();
    analysis.stats.feasibility_hits = hits_after - hits_before;
    analysis.stats.feasibility_misses = misses_after - misses_before;
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_lang::parse;
    use bayonet_net::{compile, scheduler_for, NodeConfig};

    /// Id-level canonicalization picks the same orbit representative as the
    /// configuration-level reference, `SymmetryGroup::canonicalize`, on every
    /// state an unreduced gossip K4 exploration reaches.
    #[test]
    fn store_canonicalization_matches_the_reference() {
        let source = include_str!("../../../examples/bay/gossip_k4.bay");
        let plain = compile(&parse(source).unwrap()).unwrap();
        let optimized = bayonet_net::opt::optimize(&plain);
        let group = optimized.opt_info().unwrap().symmetry.as_ref().unwrap();
        let sym = Symmetry::new(group);
        let scheduler = scheduler_for(&plain);
        let opts = ExactOptions::default();

        let mut state = EnumState::init(&plain, &*scheduler, &opts).unwrap();
        let (mut checked, mut moved) = (0, 0);
        while !state.done() {
            for (_, key, _) in &state.frontier {
                let mut reference = state.store.decode(key);
                let reference_moved = group.canonicalize(&mut reference);
                let mut view = View::new(&state.store, state.store.overlay());
                let mut ids = key.ids.clone();
                assert_eq!(view.canonicalize(&sym, &mut ids), reference_moved);
                let canonical: Vec<NodeConfig> =
                    ids.iter().map(|&id| view.node(id).clone()).collect();
                assert_eq!(canonical, reference.nodes);
                checked += 1;
                moved += usize::from(reference_moved);
            }
            state.step(&plain, &*scheduler, &opts, 1, 100).unwrap();
        }
        assert!(
            checked > 1000 && moved > 100,
            "{checked} states, {moved} moved"
        );
    }
}
