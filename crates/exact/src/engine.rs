//! The exact inference engine: exhaustive weighted exploration of the
//! global transition system, built once as a transition DAG and then
//! weighed.
//!
//! This plays the role PSI plays in the paper's toolchain — an exact
//! posterior calculator. The global semantics is a Markov chain over
//! configurations (Figure 7), so identical configurations reached along
//! different traces can have their masses summed; that merging is what makes
//! 30-node networks tractable. Observation failures remove mass, which is
//! restored by normalizing with the surviving mass `Z` (paper §3.2).
//!
//! # Explore once, weigh after
//!
//! [`Dag`] splits the run in two phases. Phase 1 ([`Dag::step`]) works
//! level by level: it gives each distinct `(guard, configuration)` one node,
//! expands each node once with unit mass, and records its out-edges
//! (successor node and weight) and discarded branches in flat arrays. A
//! configuration reached at several depths is expanded once. Phase 2
//! ([`Dag::finish`]) pushes mass through the DAG in topological order
//! (Kahn's algorithm), collecting terminal and discarded mass. Exact
//! rationals make the order of the sums irrelevant, so the posterior equals
//! step-by-step weighing bit for bit. Nodes Kahn cannot sort lie on or
//! behind a reachable cycle, which keeps positive mass forever, so they are
//! reported as [`ExactError::Unterminated`] without walking the step bound;
//! the step bound itself limits the longest path, and `steps` reports it.
//!
//! # State store
//!
//! Configurations live in a per-run [`StateStore`](crate::store): every
//! distinct node configuration is interned once under a dense `u32` id, and
//! a DAG node is `(guard, scheduler state, one id per node)`, stored flat.
//! A `(Run, i)` successor copies the id slice and replaces one id, from
//! handler branches memoized per `(node, id, guard)`; a `(Fwd, i)` successor
//! replaces at most two, from a memoized pop and push. Merging hashes ids,
//! not configurations, and symmetry relabels ids through a memo. The store
//! is dropped with the run; [`Dag::finish`] decodes the terminals back into
//! [`GlobalConfig`]s, so [`Analysis`] is unchanged.
//!
//! # Parallel expansion and determinism
//!
//! Expanding one state is independent of every other, so each level is cut
//! into chunks and handed to [`crate::pool::fan_out`]: every worker lane
//! takes the next unclaimed chunk from one shared counter, and the chunk
//! outputs come back in chunk order. Each chunk interns into its own
//! overlay of the store, absorbed in chunk order after the level. A
//! single-threaded level is the same code with one chunk on one lane,
//! interning straight into the store. Successors are then resolved to
//! nodes sequentially, in that order, so node numbering and every count
//! are the same at any thread count; intern ids depend on the schedule, so
//! nothing is ordered by id. Terminals are sorted by the structural
//! `(GlobalConfig, Guard)` order ([`compress`]), comparing equal ids
//! without looking at the configurations. A single-threaded run and an
//! 8-thread run therefore produce identical [`Analysis`] values (identical
//! terminals, identical statistics apart from the feasibility-cache
//! counters) and report the same error, which
//! `crates/exact/tests/differential.rs` locks down.

use std::fmt;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bayonet_num::{FastMap, Rat};
use bayonet_symbolic::{FeasibilityCache, Guard, ParamId};

use bayonet_net::{Action, Deadline, GlobalConfig, Model, ParamWatch, Scheduler, SemanticsError};

use crate::pool::{fan_out, ComputePool};
use crate::store::{
    after_handler, handler_branches, initial_states, Remap, RunBranch, StateKey, StateStore,
    Symmetry, View,
};

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
    /// Global steps the longest trace takes (the longest path through the
    /// transition DAG).
    pub steps: u64,
    /// Configuration expansions performed: each distinct non-terminal state
    /// is expanded once.
    pub expansions: u64,
    /// The widest exploration level: the most states first reached at one
    /// depth.
    pub peak_configs: usize,
    /// Number of times a successor (or initial state) landed on a state
    /// already reached.
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

/// How many configuration expansions (or, when weighing, DAG nodes) to
/// process between deadline polls.
const DEADLINE_POLL_STRIDE: usize = 256;

/// Target number of frontier chunks per parallel worker. More chunks than
/// workers keeps every lane busy when chunk costs are uneven.
const TASKS_PER_WORKER: usize = 4;

/// Marks an empty slot of [`NodeTable`]'s index.
const EMPTY: u32 = u32::MAX;

/// What the DAG keeps per state besides its ids.
#[derive(Clone, Copy)]
struct NodeMeta {
    hash: u64,
    sched: u32,
    /// Index into [`NodeTable::guards`].
    guard: u32,
    terminal: bool,
}

/// The DAG's states: one node per distinct `(guard, scheduler state, ids)`,
/// numbered in discovery order. Keys are stored flat, `width` ids per node,
/// and the index is an open-addressing table of node numbers that hashes
/// and compares through those flat keys, so each key is stored once.
#[derive(Clone, Default)]
struct NodeTable {
    width: usize,
    /// Whether successors merge into existing nodes (see
    /// [`ExactOptions::merge_configs`]); without merging nothing is indexed.
    merge: bool,
    ids: Vec<u32>,
    meta: Vec<NodeMeta>,
    /// Guards are few per run; nodes store an index into this list.
    guards: Vec<Guard>,
    guard_index: FastMap<Guard, u32>,
    /// Open-addressing index (linear probing, power-of-two length).
    slots: Vec<u32>,
}

/// Nodes the table has room for before its first reallocation.
const INITIAL_NODES: usize = 64;

impl NodeTable {
    fn new(width: usize, merge: bool) -> NodeTable {
        NodeTable {
            width,
            merge,
            ids: Vec::with_capacity(INITIAL_NODES * width),
            meta: Vec::with_capacity(INITIAL_NODES),
            ..NodeTable::default()
        }
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn ids(&self, v: u32) -> &[u32] {
        let start = v as usize * self.width;
        &self.ids[start..start + self.width]
    }

    fn sched(&self, v: u32) -> u32 {
        self.meta[v as usize].sched
    }

    fn terminal(&self, v: u32) -> bool {
        self.meta[v as usize].terminal
    }

    fn guard(&self, v: u32) -> &Guard {
        &self.guards[self.meta[v as usize].guard as usize]
    }

    fn key(&self, v: u32) -> StateKey {
        StateKey {
            sched_state: self.sched(v),
            ids: self.ids(v).into(),
        }
    }

    /// The index of `guard` in [`NodeTable::guards`], added on first sight.
    /// Successors mostly keep the guard of the state before them, so the
    /// most recent guard is tried first.
    fn guard_id(&mut self, guard: &Guard) -> u32 {
        if let Some(last) = self.meta.last() {
            if self.guards[last.guard as usize] == *guard {
                return last.guard;
            }
        }
        if let Some(&g) = self.guard_index.get(guard) {
            return g;
        }
        let g = self.guards.len() as u32;
        self.guards.push(guard.clone());
        self.guard_index.insert(guard.clone(), g);
        g
    }

    fn slot_of(&self, hash: u64) -> usize {
        // Fx mixes into the high bits; take the index from there.
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The node for `(guard, sched, ids)`, added on first sight. Returns
    /// the node and whether it is new.
    fn find_or_insert(
        &mut self,
        guard: &Guard,
        sched: u32,
        ids: &[u32],
        terminal: bool,
    ) -> (u32, bool) {
        let guard = self.guard_id(guard);
        let mut meta = NodeMeta {
            hash: 0,
            sched,
            guard,
            terminal,
        };
        if !self.merge {
            return (self.push(meta, ids), true);
        }
        let mut h = bayonet_num::FxHasher::default();
        h.write_u32(guard);
        h.write_u32(sched);
        for &id in ids {
            h.write_u32(id);
        }
        meta.hash = h.finish();
        if 2 * (self.len() + 1) > self.slots.len() {
            self.reindex((self.slots.len() * 2).max(2 * INITIAL_NODES));
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.slot_of(meta.hash);
        loop {
            let v = self.slots[slot];
            if v == EMPTY {
                let v = self.push(meta, ids);
                self.slots[slot] = v;
                return (v, true);
            }
            let m = &self.meta[v as usize];
            if m.hash == meta.hash && m.sched == sched && m.guard == guard && self.ids(v) == ids {
                return (v, false);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn push(&mut self, meta: NodeMeta, ids: &[u32]) -> u32 {
        let v = u32::try_from(self.len()).expect("fewer than 2^32 states");
        self.ids.extend_from_slice(ids);
        self.meta.push(meta);
        v
    }

    /// Rebuilds the index with `len` slots.
    fn reindex(&mut self, len: usize) {
        self.slots = vec![EMPTY; len];
        if !self.merge {
            return;
        }
        let mask = len - 1;
        for (v, m) in self.meta.iter().enumerate() {
            let mut slot = self.slot_of(m.hash);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = v as u32;
        }
    }

    /// Drops every node numbered `n` or above.
    fn truncate(&mut self, n: usize) {
        self.ids.truncate(n * self.width);
        self.meta.truncate(n);
        self.reindex(self.slots.len());
    }
}

/// Where a parameter-dependent weight comes from: branch `branch` of the
/// handler run of node `node` on configuration `id` (under the expanded
/// state's guard), scaled by the scheduler's `p_sched`.
#[derive(Clone)]
struct Label {
    node: u32,
    id: u32,
    branch: u32,
    p_sched: Rat,
}

/// One successor of an expanded state, before it is resolved to a node.
#[derive(Clone)]
struct Succ {
    guard: Guard,
    sched: u32,
    weight: Rat,
    terminal: bool,
    /// Set when the weight came from a handler run that read a parameter.
    label: Option<Box<Label>>,
}

/// The out-edges produced by expanding a run of states: per state, how many
/// successors and discarded branches it has, then those in order. The
/// successors' ids are stored flat, `width` per successor.
#[derive(Clone, Default)]
struct Expansion {
    counts: Vec<(u32, u32)>,
    succ: Vec<Succ>,
    succ_ids: Vec<u32>,
    discards: Vec<(Guard, Rat, Option<Box<Label>>)>,
    orbit_merges: u64,
}

impl Expansion {
    fn absorb(&mut self, part: Expansion) {
        self.counts.extend(part.counts);
        self.succ.extend(part.succ);
        self.succ_ids.extend(part.succ_ids);
        self.discards.extend(part.discards);
        self.orbit_merges += part.orbit_merges;
    }

    /// Empties the buffers, keeping their capacity for the next level.
    fn clear(&mut self) {
        self.counts.clear();
        self.succ.clear();
        self.succ_ids.clear();
        self.discards.clear();
        self.orbit_merges = 0;
    }

    /// Renumbers successor and label ids after the chunk's overlay was
    /// absorbed.
    fn renumber(&mut self, remap: &Remap) {
        for id in &mut self.succ_ids {
            *id = remap.id(*id);
        }
        let labels = self.succ.iter_mut().map(|s| &mut s.label);
        let discards = self.discards.iter_mut().map(|d| &mut d.2);
        for label in labels.chain(discards).flatten() {
            label.id = remap.id(label.id);
        }
    }

    /// Canonicalizes the successor whose ids were just appended by symmetry
    /// orbit (counting the replacement when it changed anything) and files
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        view: &mut View<'_>,
        sym: Option<&Symmetry<'_>>,
        guard: Guard,
        sched: u32,
        weight: Rat,
        label: Option<Box<Label>>,
        start: usize,
    ) {
        let ids = &mut self.succ_ids[start..];
        if let Some(sym) = sym {
            if view.canonicalize(sym, ids) {
                self.orbit_merges += 1;
            }
        }
        let terminal = view.is_terminal(ids);
        self.succ.push(Succ {
            guard,
            sched,
            weight,
            terminal,
            label,
        });
    }
}

/// Expands the states `level` over up to `workers` threads and concatenates
/// the chunk outputs in chunk order, which is exactly the order one
/// sequential pass would produce. A level below
/// [`ExactOptions::par_threshold`] (or a single worker) is one chunk on the
/// caller's thread that interns straight into `store` and writes into the
/// emptied buffers of `scratch`; otherwise the level
/// is split into `workers × TASKS_PER_WORKER` chunks, each interning into
/// its own overlay of `store`, and the overlays are absorbed in chunk order.
///
/// Error rule: the error from the earliest failing chunk wins, and it wins
/// over an interruption. A chunk stops early only when an earlier chunk
/// has already failed, so that error is the one a sequential pass would
/// hit first. An expired deadline stops every chunk and returns `Ok(None)`.
#[allow(clippy::too_many_arguments)]
fn expand_frontier(
    model: &Model,
    scheduler: &dyn Scheduler,
    sym: Option<&Symmetry<'_>>,
    store: &mut StateStore,
    nodes: &NodeTable,
    level: &[u32],
    opts: &ExactOptions,
    workers: usize,
    scratch: Expansion,
) -> Result<Option<Expansion>, ExactError> {
    // The lowest chunk that has failed so far (`usize::MAX`: none). An
    // expired deadline stores 0, which stops every later chunk. A stopped
    // chunk returns `Err(None)`.
    let failed = AtomicUsize::new(usize::MAX);
    let expand_chunk = |view: &mut View<'_>, chunk: usize, entries: &[u32], mut out: Expansion| {
        for (i, &v) in entries.iter().enumerate() {
            if i % DEADLINE_POLL_STRIDE == 0 {
                if failed.load(Ordering::Relaxed) < chunk {
                    return Err(None);
                }
                if opts.deadline.expired() {
                    failed.store(0, Ordering::Relaxed);
                    return Err(None);
                }
            }
            match expand_config(model, scheduler, sym, view, nodes, v, opts, &mut out) {
                Ok(()) => {}
                Err(ExactError::Interrupted { .. }) => {
                    failed.store(0, Ordering::Relaxed);
                    return Err(None);
                }
                Err(e) => {
                    failed.fetch_min(chunk, Ordering::Relaxed);
                    return Err(Some(e));
                }
            }
        }
        Ok(out)
    };

    if workers <= 1 || level.len() < opts.par_threshold.max(2) {
        let empty = StateStore::default();
        let mut view = View::new(&empty, std::mem::take(store));
        let part = expand_chunk(&mut view, 0, level, scratch);
        *store = view.into_own();
        return match part {
            Ok(out) => Ok(Some(out)),
            Err(None) => Ok(None),
            Err(Some(e)) => Err(e),
        };
    }

    let chunk_len = level.len().div_ceil(workers * TASKS_PER_WORKER).max(1);
    let base = &*store;
    let parts = fan_out(workers, level.len().div_ceil(chunk_len), |chunk| {
        let start = chunk * chunk_len;
        let end = (start + chunk_len).min(level.len());
        let mut view = View::new(base, base.overlay());
        let out = expand_chunk(&mut view, chunk, &level[start..end], Expansion::default())?;
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

/// The symmetry group of [`symmetry_for`], prepared for id-level
/// canonicalization; built once per run.
pub(crate) fn run_symmetry<'a>(
    model: &'a Model,
    scheduler: &dyn Scheduler,
) -> Option<Symmetry<'a>> {
    symmetry_for(model, scheduler).map(Symmetry::new)
}

/// Expands state `v` by one global step with unit mass, appending its
/// successors and discarded branches to `out`. A successor copies the id
/// slice and changes the ids of at most two nodes.
#[allow(clippy::too_many_arguments)]
fn expand_config(
    model: &Model,
    scheduler: &dyn Scheduler,
    sym: Option<&Symmetry<'_>>,
    view: &mut View<'_>,
    nodes: &NodeTable,
    v: u32,
    opts: &ExactOptions,
    out: &mut Expansion,
) -> Result<(), ExactError> {
    let k = model.num_nodes();
    let (ids, guard) = (nodes.ids(v), nodes.guard(v));
    let (succ0, disc0) = (out.succ.len(), out.discards.len());
    let enabled = view.enabled(ids);
    debug_assert!(!enabled.is_empty(), "expanded states are non-terminal");
    let sched_state = nodes.sched(v);
    for (action, p_sched, sched_next) in scheduler.distribution(sched_state, &enabled, k) {
        match action {
            Action::Fwd(i) => {
                let start = out.succ_ids.len();
                out.succ_ids.extend_from_slice(ids);
                view.forward(model, i, &mut out.succ_ids[start..])?;
                out.push(view, sym, guard.clone(), sched_next, p_sched, None, start);
            }
            Action::Run(i) => {
                // G-Run: every complete handler execution, once per
                // distinct (node, configuration, guard).
                let (branches, reads) = view.run_branches(model, opts, i, ids[i], guard)?;
                for (branch, b) in branches.iter().enumerate() {
                    let weight = &p_sched * &b.weight;
                    let label = reads.then(|| {
                        Box::new(Label {
                            node: i as u32,
                            id: ids[i],
                            branch: branch as u32,
                            p_sched: p_sched.clone(),
                        })
                    });
                    match b.next {
                        // Conditioning: this mass leaves the distribution.
                        None => out.discards.push((b.guard.clone(), weight, label)),
                        Some(id) => {
                            let start = out.succ_ids.len();
                            out.succ_ids.extend_from_slice(ids);
                            out.succ_ids[start + i] = id;
                            let g = b.guard.clone();
                            out.push(view, sym, g, sched_next, weight, label, start);
                        }
                    }
                }
            }
        }
    }
    out.counts.push((
        (out.succ.len() - succ0) as u32,
        (out.discards.len() - disc0) as u32,
    ));
    Ok(())
}

/// `acc += m · w`, skipping the arithmetic that an empty accumulator or a
/// unit weight makes trivial: masses grow into multi-limb rationals, whose
/// every operation normalizes by a gcd.
fn add_to(acc: &mut Rat, m: &Rat, w: &Rat) {
    let c = if w.is_one() { m.clone() } else { m * w };
    if acc.is_zero() {
        *acc = c;
    } else {
        *acc += &c;
    }
}

/// Merges identical `(guard, config)` entries by summing their masses, then
/// sorts by the structural `(config, guard)` order so the output order — and
/// everything derived from it downstream — is independent of hash-map
/// iteration order, of intern ids and of the parallel schedule that
/// produced `items`.
fn compress(
    store: &StateStore,
    items: Vec<(Guard, StateKey, Rat)>,
    stats: &mut EngineStats,
) -> Vec<(Guard, StateKey, Rat)> {
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
    let mut out: Vec<_> = map.into_iter().map(|((g, key), m)| (g, key, m)).collect();
    out.sort_unstable_by(|(g1, k1, _), (g2, k2, _)| {
        store.cmp_keys(k1, k2).then_with(|| g1.cmp(g2))
    });
    out
}

/// The enumeration engine's exploration: the transition DAG built so far
/// (phase 1), weighed by [`Dag::finish`] (phase 2).
///
/// Phase 1 works level by level. Level 0 is the initial states; each
/// [`Dag::step`] expands the states first discovered one level earlier,
/// once each and with unit mass, recording their out-edges (successor node
/// and weight) and discarded branches. Every state the run ever reaches is
/// a node, so expanding a level in node order also closes the nodes in
/// node order, and out-edges live in one flat array indexed by `ends`.
///
/// Edges and discards point into a table of weight slots. A slot holds
/// either a plain weight, shared by every edge with that value, or a
/// *label*: the scheduler probability times one branch of a handler run
/// that read a parameter the model's watch watches. Labelled slots are
/// never shared with plain ones, so [`KeptDag::reweigh`] can recompute
/// them under another binding and weigh the same DAG again.
///
/// [`analyze`] drives it straight to the end of phase 1; the sweep engine
/// ([`crate::sweep`]) instead keeps it at the last level that provably did
/// not depend on a swept parameter ([`Dag::mark`], [`Dag::rewind`]) and
/// replays the remainder once per grid point (it is `Clone`, store
/// included).
#[derive(Clone)]
pub(crate) struct Dag {
    store: StateStore,
    nodes: NodeTable,
    /// Initial states and their masses (a state may appear more than once).
    initial: Vec<(u32, Rat)>,
    /// `(edge end, discard end)` per closed node: node `v`'s out-edges are
    /// `edges[ends[v - 1].0..ends[v].0]`, likewise its discarded branches.
    /// A node is closed once its level has been expanded.
    ends: Vec<(u32, u32)>,
    /// Out-edges: successor node and a weight slot.
    edges: Vec<(u32, u32)>,
    /// Weight slots: a run's edges share few distinct weights (scheduler
    /// probabilities times branch probabilities).
    weights: Vec<Rat>,
    /// Plain slots by value, and the slot last returned for one.
    weight_index: FastMap<Rat, u32>,
    last_weight: u32,
    /// Discarded branches: guard and weight slot.
    discards: Vec<(Guard, u32)>,
    /// Handler runs that read a watched parameter, as `(node, id, guard
    /// index)`, in first-use order, with their index.
    runs: Vec<(u32, u32, u32)>,
    run_index: FastMap<(u32, u32, u32), u32>,
    /// Labelled slots: `(slot, run, branch, scheduler probability)`, and
    /// the slot of each `(run, branch, scheduler probability)`.
    labels: Vec<(u32, u32, u32, Rat)>,
    label_index: FastMap<(u32, u32, Rat), u32>,
    /// The non-terminal states the next step expands.
    level: Vec<u32>,
    /// Set when a level reached the step bound unexpanded.
    cut: bool,
    /// Expansion buffers reused from level to level.
    scratch: Expansion,
    pub(crate) stats: EngineStats,
}

/// An exploration position without its store (see [`Dag::mark`]).
pub(crate) struct Mark {
    nodes: usize,
    ends: usize,
    edges: usize,
    discards: usize,
    level: Vec<u32>,
    stats: EngineStats,
}

impl Dag {
    /// Builds the initial distribution (see [`initial_states`]),
    /// canonicalized by symmetry orbit from the start: orbit masses then
    /// evolve exactly under the permutation-invariant step kernel, for any
    /// initial packet placement. `sym` is the run's symmetry group (see
    /// [`run_symmetry`]).
    pub(crate) fn init(
        model: &Model,
        sym: Option<&Symmetry<'_>>,
        opts: &ExactOptions,
    ) -> Result<Dag, ExactError> {
        let empty = StateStore::default();
        let mut view = View::new(&empty, StateStore::default());
        let initial = initial_states(model, opts, &mut |nc| view.intern(nc))?;
        let mut out = Expansion::default();
        for (guard, ids, mass) in initial {
            let start = out.succ_ids.len();
            out.succ_ids.extend(ids);
            out.push(&mut view, sym, guard, 0, mass, None, start);
        }
        let mut dag = Dag {
            store: view.into_own(),
            nodes: NodeTable::new(model.num_nodes(), opts.merge_configs),
            initial: Vec::with_capacity(out.succ.len()),
            ends: Vec::new(),
            edges: Vec::new(),
            weights: Vec::new(),
            weight_index: FastMap::default(),
            last_weight: EMPTY,
            discards: Vec::new(),
            runs: Vec::new(),
            run_index: FastMap::default(),
            labels: Vec::new(),
            label_index: FastMap::default(),
            level: Vec::new(),
            cut: false,
            scratch: Expansion::default(),
            stats: EngineStats {
                orbit_merges: out.orbit_merges,
                ..EngineStats::default()
            },
        };
        let width = dag.nodes.width;
        for (s, ids) in out.succ.into_iter().zip(out.succ_ids.chunks(width.max(1))) {
            let v = dag.resolve(&s, ids);
            dag.initial.push((v, s.weight));
        }
        dag.stats.peak_configs = dag.level.len();
        Ok(dag)
    }

    /// The node for a successor, added (and queued for the next level, when
    /// non-terminal) on first sight; a repeat counts as a merge hit.
    fn resolve(&mut self, s: &Succ, ids: &[u32]) -> u32 {
        let (v, new) = self
            .nodes
            .find_or_insert(&s.guard, s.sched, ids, s.terminal);
        if !new {
            self.stats.merge_hits += 1;
        } else if !s.terminal {
            self.level.push(v);
        }
        v
    }

    /// Has phase 1 finished: nothing left to expand, or the step bound cut
    /// it short?
    pub(crate) fn done(&self) -> bool {
        self.level.is_empty() || self.cut
    }

    /// The current position, without the store. The store only grows, so
    /// [`Dag::rewind`] can return to this position after later steps
    /// without the cost of copying the store at every step.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            nodes: self.nodes.len(),
            ends: self.ends.len(),
            edges: self.edges.len(),
            discards: self.discards.len(),
            level: self.level.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Returns to `mark`, taken earlier in this exploration: drops the
    /// nodes, edges and index entries added since, and keeps the store but
    /// not its handler memo, since the steps since may have run handlers
    /// under bindings the caller is about to change. Labels go with the
    /// handler memo; a sweep marks only positions before the first read.
    pub(crate) fn rewind(mut self, mark: Mark) -> Dag {
        self.store.forget_handler_runs();
        self.nodes.truncate(mark.nodes);
        self.ends.truncate(mark.ends);
        self.edges.truncate(mark.edges);
        self.discards.truncate(mark.discards);
        self.runs.clear();
        self.run_index.clear();
        self.labels.clear();
        self.label_index.clear();
        self.level = mark.level;
        self.cut = false;
        self.stats = mark.stats;
        self
    }

    /// Phase 1, one level: bound checks, then a (possibly parallel)
    /// expansion of the level's states, then resolving their successors to
    /// nodes in order. A level at the step bound is not expanded; it stays
    /// unresolved and [`Dag::finish`] reports it.
    ///
    /// Callers must not invoke this once [`Dag::done`] holds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        model: &Model,
        scheduler: &dyn Scheduler,
        sym: Option<&Symmetry<'_>>,
        opts: &ExactOptions,
        workers: usize,
        step_bound: u64,
    ) -> Result<(), ExactError> {
        if self.stats.steps >= step_bound {
            self.cut = true;
            return Ok(());
        }
        self.stats.steps += 1;
        if self.nodes.len() > opts.max_configs || self.store.entries() > opts.max_configs {
            return Err(ExactError::ConfigLimit(opts.max_configs));
        }
        if opts.deadline.expired() {
            return Err(ExactError::Interrupted {
                steps: self.stats.steps - 1,
                expansions: self.stats.expansions,
            });
        }

        self.stats.expansions += self.level.len() as u64;
        let Some(expansion) = expand_frontier(
            model,
            scheduler,
            sym,
            &mut self.store,
            &self.nodes,
            &self.level,
            opts,
            workers,
            std::mem::take(&mut self.scratch),
        )?
        else {
            return Err(ExactError::Interrupted {
                steps: self.stats.steps - 1,
                expansions: self.stats.expansions,
            });
        };
        self.stats.orbit_merges += expansion.orbit_merges;

        // Close this level's nodes in node order: the level is every
        // non-terminal node from the first unclosed one on, so the
        // terminal nodes between them close with no edges.
        let level = std::mem::take(&mut self.level);
        let mut expansion = expansion;
        let width = self.nodes.width;
        {
            let mut succ = expansion.succ.drain(..);
            let mut disc = expansion.discards.drain(..);
            let mut succ_ids = expansion.succ_ids.chunks(width.max(1));
            for (&v, &(n_succ, n_disc)) in level.iter().zip(&expansion.counts) {
                while self.ends.len() < v as usize {
                    self.close();
                }
                let guard = self.nodes.meta[v as usize].guard;
                for _ in 0..n_succ {
                    let s = succ.next().expect("counted successor");
                    let ids = succ_ids.next().expect("counted successor ids");
                    let to = self.resolve(&s, ids);
                    let w = self.slot(s.weight, s.label, guard);
                    self.edges.push((to, w));
                }
                for (g, weight, label) in disc.by_ref().take(n_disc as usize) {
                    let w = self.slot(weight, label, guard);
                    self.discards.push((g, w));
                }
                self.close();
            }
        }
        expansion.clear();
        self.scratch = expansion;
        self.stats.peak_configs = self.stats.peak_configs.max(self.level.len());
        Ok(())
    }

    /// The weight slot for `w`: the labelled slot of `label` (its run keyed
    /// under the expanded state's guard index `guard`), or the plain slot
    /// of `w`; either is added on first sight.
    fn slot(&mut self, w: Rat, label: Option<Box<Label>>, guard: u32) -> u32 {
        let Some(label) = label else {
            return self.weight_id(w);
        };
        let Label {
            node,
            id,
            branch,
            p_sched,
        } = *label;
        let key = (node, id, guard);
        let next = self.runs.len() as u32;
        let run = *self.run_index.entry(key).or_insert(next);
        if run == next {
            self.runs.push(key);
        }
        let key = (run, branch, p_sched);
        if let Some(&slot) = self.label_index.get(&key) {
            return slot;
        }
        let slot = self.weights.len() as u32;
        self.weights.push(w);
        self.labels.push((slot, run, key.1, key.2.clone()));
        self.label_index.insert(key, slot);
        slot
    }

    /// The plain slot of `w`, added on first sight.
    fn weight_id(&mut self, w: Rat) -> u32 {
        if self.last_weight != EMPTY && self.weights[self.last_weight as usize] == w {
            return self.last_weight;
        }
        let next = self.weights.len() as u32;
        let slot = match self.weight_index.entry(w) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.weights.push(e.key().clone());
                e.insert(next);
                next
            }
        };
        self.last_weight = slot;
        slot
    }

    /// Closes the next node with the edges and discards pushed since the
    /// previous one.
    fn close(&mut self) {
        self.ends
            .push((self.edges.len() as u32, self.discards.len() as u32));
    }

    /// The weight of every slot under the binding the DAG was explored with.
    pub(crate) fn weights(&self) -> &[Rat] {
        &self.weights
    }

    /// Phase 2: pushes mass through the DAG in topological order (Kahn's
    /// algorithm) with slot weights `weights`, collects terminal and
    /// discarded mass, and seals the result into an [`Analysis`]: terminals
    /// merged, sorted and decoded back to [`GlobalConfig`]s, discarded mass
    /// sorted by guard. `steps` becomes the longest path, the number of
    /// global steps the slowest trace takes. Feasibility-cache counters are
    /// the caller's responsibility (they are deltas against a shared cache).
    ///
    /// # Errors
    ///
    /// [`ExactError::Unterminated`] when some state cannot be resolved
    /// within the step bound: it lies on or behind a reachable cycle (Kahn
    /// leaves it unsorted), a path of `step_bound` or more steps reaches it,
    /// or phase 1 stopped before expanding it. The reported mass is the
    /// probability of reaching such a state.
    pub(crate) fn finish(
        &self,
        weights: &[Rat],
        step_bound: u64,
        deadline: &Deadline,
    ) -> Result<Analysis, ExactError> {
        let n = self.nodes.len();
        // Per node: unweighed in-edges, and the longest path to it in steps.
        let mut order = vec![(0u32, 0u32); n];
        for (to, _) in &self.edges {
            order[*to as usize].0 += 1;
        }
        let mut mass = vec![Rat::zero(); n];
        for (v, m) in &self.initial {
            mass[*v as usize] += m;
        }
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&v| order[v as usize].0 == 0)
            .collect();
        let levels = self.stats.steps;
        let mut stats = self.stats.clone();
        stats.steps = 0;
        let mut settled = 0usize;
        let mut terminal_acc = Vec::new();
        let mut discarded: FastMap<Guard, Rat> = FastMap::default();
        while let Some(v) = ready.pop() {
            if settled.is_multiple_of(DEADLINE_POLL_STRIDE) && deadline.expired() {
                return Err(ExactError::Interrupted {
                    steps: levels,
                    expansions: stats.expansions,
                });
            }
            let i = v as usize;
            if self.nodes.terminal(v) {
                let m = std::mem::take(&mut mass[i]);
                terminal_acc.push((self.nodes.guard(v).clone(), self.nodes.key(v), m));
                settled += 1;
                continue;
            }
            let depth = order[i].1;
            if i >= self.ends.len() || u64::from(depth) >= step_bound {
                continue; // unresolved: its mass stays behind
            }
            let m = std::mem::take(&mut mass[i]);
            settled += 1;
            stats.steps = stats.steps.max(u64::from(depth) + 1);
            let (e0, d0) = if i == 0 { (0, 0) } else { self.ends[i - 1] };
            let (e1, d1) = self.ends[i];
            for (g, w) in &self.discards[d0 as usize..d1 as usize] {
                add_to(
                    discarded.entry(g.clone()).or_default(),
                    &m,
                    &weights[*w as usize],
                );
            }
            for &(to, w) in &self.edges[e0 as usize..e1 as usize] {
                let t = to as usize;
                add_to(&mut mass[t], &m, &weights[w as usize]);
                let next = &mut order[t];
                next.1 = next.1.max(depth + 1);
                next.0 -= 1;
                if next.0 == 0 {
                    ready.push(to);
                }
            }
        }
        if settled < n {
            let unresolved = mass.iter().fold(Rat::zero(), |acc, m| acc + m);
            let live_configs = (0..n as u32).filter(|&v| !self.nodes.terminal(v)).count()
                - (settled - terminal_acc.len());
            return Err(ExactError::Unterminated {
                live_configs,
                mass: format!("{:.6}", unresolved.to_f64()),
            });
        }

        // Terminal states are unique nodes under merging; without it the
        // tree's repeated terminals merge here.
        let terminals = compress(&self.store, terminal_acc, &mut stats);
        stats.terminal_configs = terminals.len();
        let mut discarded: Vec<(Guard, Rat)> = discarded.into_iter().collect();
        discarded.sort_unstable_by(|(g1, _), (g2, _)| g1.cmp(g2));
        Ok(Analysis {
            terminals: terminals
                .into_iter()
                .map(|(g, key, m)| (self.store.decode(&key), g, m))
                .collect(),
            discarded,
            stats,
        })
    }
}

/// A finished exploration kept to answer other bindings of the same
/// program without exploring (see [`analyze_keeping`]): the DAG with its
/// configurations, and the branches each labelled handler run gave under
/// the binding it was explored with.
pub struct KeptDag {
    dag: Dag,
    /// Per entry of the DAG's `runs`: its branches when explored.
    runs: Vec<Arc<[RunBranch]>>,
    step_bound: u64,
}

/// What a run of [`analyze_keeping`] lets later bindings of the same model
/// reuse.
pub enum Reuse {
    /// Nothing: a state initializer or init packet read a parameter, or
    /// the run was not an enumeration of a fully bound model.
    Never,
    /// The whole analysis: nothing read a parameter, so every binding
    /// explores and weighs the same.
    Blind,
    /// The DAG: only handler runs read a parameter, so another binding can
    /// re-run those and re-weigh it ([`KeptDag::reweigh`]).
    Reweigh(Box<KeptDag>),
}

impl KeptDag {
    /// Drops what only exploring needs (the store's memos and intern index,
    /// the node and weight indexes, the expansion buffers) and takes the
    /// labelled runs' branches from the store first.
    fn keep(mut dag: Dag, step_bound: u64) -> KeptDag {
        let runs = dag
            .runs
            .iter()
            .map(|&(node, id, guard)| {
                let guard = &dag.nodes.guards[guard as usize];
                Arc::clone(
                    dag.store
                        .handler_run(node, id, guard)
                        .expect("a labelled run is memoized"),
                )
            })
            .collect();
        dag.store.keep_configs_only();
        dag.nodes.slots = Vec::new();
        dag.nodes.guard_index = FastMap::default();
        dag.nodes.ids.shrink_to_fit();
        dag.nodes.meta.shrink_to_fit();
        dag.edges.shrink_to_fit();
        dag.ends.shrink_to_fit();
        dag.weight_index = FastMap::default();
        dag.run_index = FastMap::default();
        dag.label_index = FastMap::default();
        dag.scratch = Expansion::default();
        KeptDag {
            dag,
            runs,
            step_bound,
        }
    }

    /// A rough size in bytes: the configurations (see
    /// [`NodeConfig::approx_bytes`](bayonet_net::NodeConfig::approx_bytes)),
    /// the DAG's tables and the kept runs' branches. Heap words inside
    /// rationals and guards are not counted.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let d = &self.dag;
        let branches: usize = self.runs.iter().map(|r| size_of_val(&**r)).sum();
        d.store.config_bytes()
            + size_of_val(d.nodes.ids.as_slice())
            + size_of_val(d.nodes.meta.as_slice())
            + size_of_val(d.nodes.guards.as_slice())
            + size_of_val(d.initial.as_slice())
            + size_of_val(d.ends.as_slice())
            + size_of_val(d.edges.as_slice())
            + size_of_val(d.weights.as_slice())
            + size_of_val(d.discards.as_slice())
            + size_of_val(d.runs.as_slice())
            + size_of_val(d.labels.as_slice())
            + self.runs.len() * size_of::<Arc<[RunBranch]>>()
            + branches
    }

    /// Answers `model` — the model the DAG was explored on, under another
    /// binding — without exploring: re-runs each labelled handler run and
    /// checks it gives the same branches (equal guards, the same next
    /// configurations), then weighs the DAG with the labelled slots
    /// recomputed. The result equals a fresh [`analyze`] of `model`,
    /// statistics included, apart from the feasibility-cache counters.
    ///
    /// Returns `Ok(None)` when the binding changes the DAG's shape: a run
    /// gives other branches or fails (a fresh exploration reports its
    /// error), or the step bound differs.
    ///
    /// # Errors
    ///
    /// [`ExactError::Interrupted`] when the deadline expires.
    pub fn reweigh(
        &self,
        model: &Model,
        opts: &ExactOptions,
    ) -> Result<Option<Analysis>, ExactError> {
        if step_bound(model, opts) != self.step_bound {
            return Ok(None);
        }
        let (run_cache, opts, (hits_before, misses_before)) = run_cache_opts(opts);
        let dag = &self.dag;
        let mut branch_weights = Vec::with_capacity(self.runs.len());
        for (&(node, id, guard), kept) in dag.runs.iter().zip(&self.runs) {
            let guard = &dag.nodes.guards[guard as usize];
            let nc = dag.store.node(id);
            let got = match handler_branches(model, &opts, node as usize, nc, guard) {
                Ok(got) => got,
                Err(e @ ExactError::Interrupted { .. }) => return Err(e),
                Err(_) => return Ok(None),
            };
            if got.len() != kept.len() {
                return Ok(None);
            }
            let mut run_weights = Vec::with_capacity(got.len());
            for (now, then) in got.into_iter().zip(kept.iter()) {
                let same_next = match (after_handler(now.result), then.next) {
                    (Some(nc), Some(id)) => nc == *dag.store.node(id),
                    (None, None) => true,
                    _ => false,
                };
                if now.guard != then.guard || !same_next {
                    return Ok(None);
                }
                run_weights.push(now.weight);
            }
            branch_weights.push(run_weights);
        }
        let mut weights = dag.weights.clone();
        for (slot, run, branch, p_sched) in &dag.labels {
            weights[*slot as usize] = p_sched * &branch_weights[*run as usize][*branch as usize];
        }
        let mut analysis = dag.finish(&weights, self.step_bound, &opts.deadline)?;
        let (hits_after, misses_after) = run_cache.counts();
        analysis.stats.feasibility_hits = hits_after - hits_before;
        analysis.stats.feasibility_misses = misses_after - misses_before;
        Ok(Some(analysis))
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
    run(model, scheduler, opts, false).map(|(analysis, _)| analysis)
}

/// [`analyze`], watching every parameter read, and reporting what later
/// runs of `model` under other full bindings can reuse ([`Reuse`]). Only
/// an enumeration of a fully bound model keeps anything; the analysis is
/// the one [`analyze`] returns.
///
/// # Errors
///
/// As [`analyze`].
pub fn analyze_keeping(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<(Analysis, Reuse), ExactError> {
    run(model, scheduler, opts, true)
}

fn run(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
    keep: bool,
) -> Result<(Analysis, Reuse), ExactError> {
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
        let analysis = crate::bdd_engine::analyze_bdd(model, scheduler, opts)?;
        return Ok((analysis, Reuse::Never));
    }
    if !keep || model.has_symbolic_params() {
        let (analysis, ..) = explore(model, scheduler, opts)?;
        return Ok((analysis, Reuse::Never));
    }
    let all: Vec<ParamId> = model.params.iter().collect();
    let mut watched = model.clone();
    watched.set_param_watch(Arc::new(ParamWatch::new(all.len(), &all)));
    let (analysis, dag, init_reads) = explore(&watched, scheduler, opts)?;
    // After the initial states only handler runs read bindings, and each
    // such run labels its edges.
    let reuse = if init_reads > 0 {
        Reuse::Never
    } else if watched.param_reads() == 0 {
        Reuse::Blind
    } else if dag.runs.is_empty() {
        Reuse::Never
    } else {
        Reuse::Reweigh(Box::new(KeptDag::keep(dag, step_bound(model, opts))))
    };
    Ok((analysis, reuse))
}

/// One enumeration to the end of phase 1, weighed: the analysis, the DAG,
/// and the parameter reads (see [`Model::param_reads`]) the initial states
/// made.
fn explore(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<(Analysis, Dag, u64), ExactError> {
    let bound = step_bound(model, opts);
    let (run_cache, opts, (hits_before, misses_before)) = run_cache_opts(opts);
    let (_lease, workers) = lease_workers(&opts);
    let sym = run_symmetry(model, scheduler);
    let sym = sym.as_ref();

    let mut dag = Dag::init(model, sym, &opts)?;
    let init_reads = model.param_reads();
    while !dag.done() {
        dag.step(model, scheduler, sym, &opts, workers, bound)?;
    }
    let mut analysis = dag.finish(dag.weights(), bound, &opts.deadline)?;
    let (hits_after, misses_after) = run_cache.counts();
    analysis.stats.feasibility_hits = hits_after - hits_before;
    analysis.stats.feasibility_misses = misses_after - misses_before;
    Ok((analysis, dag, init_reads))
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

        let mut state = Dag::init(&plain, None, &opts).unwrap();
        let (mut checked, mut moved) = (0, 0);
        while !state.done() {
            for &v in &state.level {
                let key = state.nodes.key(v);
                let mut reference = state.store.decode(&key);
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
            state
                .step(&plain, &*scheduler, None, &opts, 1, 100)
                .unwrap();
        }
        assert!(
            checked > 1000 && moved > 100,
            "{checked} states, {moved} moved"
        );
    }
}
