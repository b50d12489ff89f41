//! The exact engines' state store: hash-consed node configurations.
//!
//! A global configuration is a scheduler state plus one local configuration
//! per node, and one scheduler action changes at most two of those. So the
//! store interns every distinct node configuration once under a dense `u32`
//! id ([`Interner`]), and a global configuration becomes a [`StateKey`]: the
//! scheduler state and one id per node. A successor copies the id slice and
//! interns at most two new node configurations; hashing and equality work
//! on ids, and action enabling and termination read per-id [`NodeFlags`].
//!
//! The enumeration engine also memoizes, per run, everything an action
//! derives from one node configuration ([`StateStore`]):
//!
//! * `(Run, i)` handler branches per `(node, id, guard)`, with whether the
//!   run read a watched parameter (what a kept DAG re-runs, see
//!   [`KeptDag`](crate::KeptDag));
//! * the two halves of `(Fwd, i)`: the sender's pop per `(node, id)` and the
//!   receiver's push per `(sender, sender id, receiver id)`;
//! * symmetry relabelling per `(group element, node, id)`.
//!
//! # Ids and order
//!
//! Ids are handed out in discovery order, which depends on the parallel
//! schedule. Nothing is ever ordered by id: [`StateStore::cmp_keys`]
//! compares structurally (the derived order of [`GlobalConfig`]), with
//! equal ids as the fast path, and canonical orbit representatives are
//! picked the same way. Results therefore do not depend on the schedule.
//!
//! # Parallel steps
//!
//! During a parallel step the run's store is read-only and shared by every
//! worker; each chunk interns into its own overlay ([`View`]), whose ids
//! continue after the shared store's. After the step the overlays are
//! absorbed in chunk order ([`StateStore::absorb`]) and the chunk's
//! successors are renumbered. A sequential step is the same code with the
//! store itself as the only overlay, so nothing is renumbered.

use std::cmp::Ordering;
use std::sync::Arc;

use bayonet_num::{FastMap, Rat};
use bayonet_symbolic::Guard;

use bayonet_net::opt::SymmetryGroup;
use bayonet_net::{
    depart, initial_config, run_handler, Action, GlobalConfig, HandlerOutcome, Model, NodeConfig,
    Val,
};

use crate::engine::{ExactError, ExactOptions};
use crate::enumerate::{enumerate_bounded, Bounds, Branch};

/// What action enabling and termination read from a node configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeFlags {
    /// The input queue is nonempty: `(Run, i)` is enabled.
    pub(crate) run: bool,
    /// The output queue is nonempty: `(Fwd, i)` is enabled.
    pub(crate) fwd: bool,
    /// The node is in the error state ⊥.
    pub(crate) error: bool,
}

impl NodeFlags {
    /// `(run, fwd)`: the queue flags, without the error flag.
    pub(crate) fn queues(self) -> (bool, bool) {
        (self.run, self.fwd)
    }

    fn of(nc: &NodeConfig) -> NodeFlags {
        NodeFlags {
            run: !nc.q_in.is_empty(),
            fwd: !nc.q_out.is_empty(),
            error: nc.error,
        }
    }
}

/// Dense interner for node configurations. Ids start at `offset`, so an
/// overlay's ids continue after its base's.
#[derive(Clone, Default)]
struct Interner {
    offset: u32,
    nodes: Vec<NodeConfig>,
    flags: Vec<NodeFlags>,
    map: FastMap<NodeConfig, u32>,
}

impl Interner {
    /// The id of `nc`, interning it on first sight.
    fn intern(&mut self, nc: NodeConfig) -> u32 {
        if let Some(&id) = self.map.get(&nc) {
            return id;
        }
        let id = self.end();
        self.flags.push(NodeFlags::of(&nc));
        self.map.insert(nc.clone(), id);
        self.nodes.push(nc);
        id
    }

    /// The configuration interned under `id`.
    fn get(&self, id: u32) -> &NodeConfig {
        &self.nodes[(id - self.offset) as usize]
    }

    /// The flags of the configuration interned under `id`.
    fn flags(&self, id: u32) -> NodeFlags {
        self.flags[(id - self.offset) as usize]
    }

    /// One past the largest id handed out.
    fn end(&self) -> u32 {
        let len = u32::try_from(self.nodes.len()).expect("fewer than 2^32 node configurations");
        self.offset + len
    }
}

/// A global configuration in the store: the scheduler state plus the id of
/// every node's local configuration. Equal keys mean equal configurations.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct StateKey {
    pub(crate) sched_state: u32,
    pub(crate) ids: Box<[u32]>,
}

/// One handler branch of `(Run, i)` on an interned node configuration.
#[derive(Clone, Debug)]
pub(crate) struct RunBranch {
    pub(crate) guard: Guard,
    pub(crate) weight: Rat,
    /// The node's configuration after the handler (error flag set after a
    /// failed `assert`), or `None` when an `observe` failed and the mass is
    /// discarded.
    pub(crate) next: Option<u32>,
}

/// Memoized handler branches for one `(node, id)`: one entry per guard,
/// with whether the run read a watched parameter (see
/// [`View::run_branches`]).
type RunMemo = Vec<(Guard, Arc<[RunBranch]>, bool)>;

/// The enumeration engine's per-run store: interned node configurations
/// and the action memos keyed by their ids (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct StateStore {
    nodes: Interner,
    run: FastMap<(u32, u32), RunMemo>,
    /// `(node, id)` → (sender id after the pop, destination node).
    depart: FastMap<(u32, u32), (u32, u32)>,
    /// `(sender node, sender id before the pop, receiver id)` → receiver id
    /// after the push.
    arrive: FastMap<(u32, u32, u32), u32>,
    /// `(group element, node, id)` → id of the relabelled configuration.
    relabel: FastMap<(u32, u32, u32), u32>,
}

/// Renumbers an absorbed overlay's ids into its base's.
pub(crate) struct Remap {
    offset: u32,
    ids: Vec<u32>,
}

impl Remap {
    pub(crate) fn id(&self, id: u32) -> u32 {
        if id < self.offset {
            id
        } else {
            self.ids[(id - self.offset) as usize]
        }
    }
}

impl StateStore {
    /// An empty overlay for a parallel step over this store.
    pub(crate) fn overlay(&self) -> StateStore {
        StateStore {
            nodes: Interner {
                offset: self.nodes.end(),
                ..Interner::default()
            },
            ..StateStore::default()
        }
    }

    /// Moves an overlay's configurations and memos into this store and
    /// returns the renumbering for ids the overlay handed out.
    pub(crate) fn absorb(&mut self, own: StateStore) -> Remap {
        let remap = Remap {
            offset: own.nodes.offset,
            ids: own
                .nodes
                .nodes
                .into_iter()
                .map(|nc| self.nodes.intern(nc))
                .collect(),
        };
        let id = |v: u32| remap.id(v);
        for ((node, v), entries) in own.run {
            let memo = self.run.entry((node, id(v))).or_default();
            for (guard, branches, reads) in entries {
                if memo.iter().all(|(g, ..)| *g != guard) {
                    let branches = branches
                        .iter()
                        .map(|b| RunBranch {
                            next: b.next.map(id),
                            ..b.clone()
                        })
                        .collect();
                    memo.push((guard, branches, reads));
                }
            }
        }
        for ((node, v), (sent, dst)) in own.depart {
            self.depart.entry((node, id(v))).or_insert((id(sent), dst));
        }
        for ((node, v, u), arrived) in own.arrive {
            self.arrive
                .entry((node, id(v), id(u)))
                .or_insert(id(arrived));
        }
        for ((elem, node, v), image) in own.relabel {
            self.relabel.entry((elem, node, id(v))).or_insert(id(image));
        }
        remap
    }

    /// Node configurations interned plus memo keys held: what the store
    /// charges against [`ExactOptions::max_configs`].
    pub(crate) fn entries(&self) -> usize {
        self.nodes.nodes.len()
            + self.run.len()
            + self.depart.len()
            + self.arrive.len()
            + self.relabel.len()
    }

    /// Drops the memoized handler branches. A sweep keeps the store of a
    /// probe run under one binding for replays under others, and handler
    /// branches are the only memo that can depend on a parameter.
    pub(crate) fn forget_handler_runs(&mut self) {
        self.run.clear();
    }

    /// The memoized branches of the handler run `(node, id, guard)`.
    pub(crate) fn handler_run(
        &self,
        node: u32,
        id: u32,
        guard: &Guard,
    ) -> Option<&Arc<[RunBranch]>> {
        let memo = self.run.get(&(node, id))?;
        memo.iter().find(|(g, ..)| g == guard).map(|(_, b, _)| b)
    }

    /// Drops everything but the configurations themselves: the memos and
    /// the intern index. What is left still decodes and orders keys, which
    /// is all weighing a finished exploration needs.
    pub(crate) fn keep_configs_only(&mut self) {
        let nodes = std::mem::take(&mut self.nodes.nodes);
        *self = StateStore::default();
        self.nodes.nodes = nodes;
    }

    /// A rough size in bytes of the interned configurations (see
    /// [`NodeConfig::approx_bytes`]).
    pub(crate) fn config_bytes(&self) -> usize {
        self.nodes.nodes.iter().map(NodeConfig::approx_bytes).sum()
    }

    /// The configuration interned under `id`.
    pub(crate) fn node(&self, id: u32) -> &NodeConfig {
        self.nodes.get(id)
    }

    /// The structural order of the configurations behind two keys: the
    /// derived order of [`GlobalConfig`], with equal ids as the fast path.
    pub(crate) fn cmp_keys(&self, a: &StateKey, b: &StateKey) -> Ordering {
        a.sched_state.cmp(&b.sched_state).then_with(|| {
            for (&x, &y) in a.ids.iter().zip(b.ids.iter()) {
                if x != y {
                    return self.nodes.get(x).cmp(self.nodes.get(y));
                }
            }
            Ordering::Equal
        })
    }

    /// The global configuration behind `key`.
    pub(crate) fn decode(&self, key: &StateKey) -> GlobalConfig {
        GlobalConfig {
            sched_state: key.sched_state,
            nodes: key
                .ids
                .iter()
                .map(|&id| self.nodes.get(id).clone())
                .collect(),
        }
    }
}

/// A symmetry group prepared for id-level canonicalization.
pub(crate) struct Symmetry<'g> {
    group: &'g SymmetryGroup,
    /// Per element, the inverse node permutation: position `j` of the
    /// image holds node `inverse[j]`.
    inverse: Vec<Vec<usize>>,
}

impl<'g> Symmetry<'g> {
    pub(crate) fn new(group: &'g SymmetryGroup) -> Symmetry<'g> {
        let inverse = group
            .elems()
            .iter()
            .map(|e| {
                let mut inv = vec![0; e.node_perm.len()];
                for (i, &pi) in e.node_perm.iter().enumerate() {
                    inv[pi] = i;
                }
                inv
            })
            .collect();
        Symmetry { group, inverse }
    }
}

/// A store as one expansion chunk sees it: a read-only base plus the
/// chunk's own overlay, which receives every new configuration and memo
/// entry.
pub(crate) struct View<'a> {
    base: &'a StateStore,
    own: StateStore,
}

impl<'a> View<'a> {
    /// A view that adds to `own`, whose ids continue after `base`'s.
    pub(crate) fn new(base: &'a StateStore, own: StateStore) -> View<'a> {
        debug_assert_eq!(own.nodes.offset, base.nodes.end());
        View { base, own }
    }

    /// The overlay with everything this view added.
    pub(crate) fn into_own(self) -> StateStore {
        self.own
    }

    /// Entries held by the base and the overlay (see
    /// [`StateStore::entries`]).
    pub(crate) fn entries(&self) -> usize {
        self.base.entries() + self.own.entries()
    }

    /// The configuration interned under `id`.
    pub(crate) fn node(&self, id: u32) -> &NodeConfig {
        if id < self.own.nodes.offset {
            self.base.nodes.get(id)
        } else {
            self.own.nodes.get(id)
        }
    }

    /// The flags of the configuration interned under `id`.
    pub(crate) fn flags(&self, id: u32) -> NodeFlags {
        if id < self.own.nodes.offset {
            self.base.nodes.flags(id)
        } else {
            self.own.nodes.flags(id)
        }
    }

    /// The id of `nc`, interning it into the overlay on first sight.
    pub(crate) fn intern(&mut self, nc: NodeConfig) -> u32 {
        match self.base.nodes.map.get(&nc) {
            Some(&id) => id,
            None => self.own.nodes.intern(nc),
        }
    }

    /// The enabled actions in canonical order: `Run(0..k)` for nonempty
    /// input queues, then `Fwd(0..k)` for nonempty output queues (as
    /// [`GlobalConfig::enabled_actions`]).
    pub(crate) fn enabled(&self, ids: &[u32]) -> Vec<Action> {
        let nodes = || ids.iter().map(|&id| self.flags(id)).enumerate();
        let runs = nodes().filter(|(_, f)| f.run).map(|(i, _)| Action::Run(i));
        let fwds = nodes().filter(|(_, f)| f.fwd).map(|(i, _)| Action::Fwd(i));
        runs.chain(fwds).collect()
    }

    /// Whether the configuration is terminal: some node is in ⊥ or no
    /// action is enabled (as [`GlobalConfig::is_terminal`]).
    pub(crate) fn is_terminal(&self, ids: &[u32]) -> bool {
        let flags = || ids.iter().map(|&id| self.flags(id));
        flags().any(|f| f.error) || flags().all(|f| !f.run && !f.fwd)
    }

    /// The handler branches of `(Run, node)` on configuration `id` under
    /// `guard`, computed once per distinct `(node, id, guard)`, and whether
    /// computing them read a parameter the model's [`ParamWatch`] watches
    /// (the watch's counter moved; under parallel expansion another
    /// thread's read can move it too, so a run may be marked needlessly,
    /// never missed).
    ///
    /// [`ParamWatch`]: bayonet_net::ParamWatch
    pub(crate) fn run_branches(
        &mut self,
        model: &Model,
        opts: &ExactOptions,
        node: usize,
        id: u32,
        guard: &Guard,
    ) -> Result<(Arc<[RunBranch]>, bool), ExactError> {
        let key = (node as u32, id);
        for memo in [self.base.run.get(&key), self.own.run.get(&key)]
            .into_iter()
            .flatten()
        {
            // Guards per (node, config) are few; a linear scan beats
            // cloning the guard into the hash key.
            if let Some((_, branches, reads)) = memo.iter().find(|(g, ..)| g == guard) {
                return Ok((Arc::clone(branches), *reads));
            }
        }
        let reads_before = model.param_reads();
        let raw = handler_branches(model, opts, node, self.node(id), guard)?;
        let reads = model.param_reads() != reads_before;
        let branches: Arc<[RunBranch]> = raw
            .into_iter()
            .map(|b| RunBranch {
                guard: b.guard,
                weight: b.weight,
                next: after_handler(b.result).map(|nc| self.intern(nc)),
            })
            .collect();
        self.own
            .run
            .entry(key)
            .or_default()
            .push((guard.clone(), Arc::clone(&branches), reads));
        Ok((branches, reads))
    }

    /// Applies `(Fwd, node)` (rule G-Fwd) to `ids` in place: the sender's
    /// pop and the receiver's push, each memoized.
    pub(crate) fn forward(
        &mut self,
        model: &Model,
        node: usize,
        ids: &mut [u32],
    ) -> Result<(), ExactError> {
        let v = ids[node];
        let key = (node as u32, v);
        let (sent, dst) = match self.base.depart.get(&key).or(self.own.depart.get(&key)) {
            Some(&hit) => hit,
            None => {
                let mut nc = self.node(v).clone();
                let (dst, _) = depart(model, &mut nc, node)?;
                let hit = (self.intern(nc), dst as u32);
                self.own.depart.insert(key, hit);
                hit
            }
        };
        let dst = dst as usize;
        // A self-link pushes onto the sender's own post-pop configuration.
        let receiver = if dst == node { sent } else { ids[dst] };
        let key = (node as u32, v, receiver);
        let arrived = match self.base.arrive.get(&key).or(self.own.arrive.get(&key)) {
            Some(&hit) => hit,
            None => {
                let (_, entry) = depart(model, &mut self.node(v).clone(), node)?;
                let mut nc = self.node(receiver).clone();
                // A full queue drops the packet silently: congestion.
                nc.q_in.push_back(entry);
                let hit = self.intern(nc);
                self.own.arrive.insert(key, hit);
                hit
            }
        };
        ids[node] = sent;
        ids[dst] = arrived;
        Ok(())
    }

    /// The id of node `node`'s configuration `id` relabelled by group
    /// element `elem`.
    fn relabel(&mut self, sym: &Symmetry<'_>, elem: usize, node: usize, id: u32) -> u32 {
        let e = &sym.group.elems()[elem];
        if e.port_maps[node].is_empty() {
            return id; // the relabelling is the identity on this node
        }
        let key = (elem as u32, node as u32, id);
        if let Some(&image) = self.base.relabel.get(&key).or(self.own.relabel.get(&key)) {
            return image;
        }
        let image = e.relabel_node(node, self.node(id));
        let image = self.intern(image);
        self.own.relabel.insert(key, image);
        image
    }

    /// Structural order of two interned node configurations.
    fn cmp_nodes(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            Ordering::Equal
        } else {
            self.node(a).cmp(self.node(b))
        }
    }

    /// Replaces `ids` with the structurally smallest member of its orbit
    /// (the representative [`SymmetryGroup::canonicalize`] picks). Returns
    /// whether anything changed. Losing images are compared position by
    /// position and abandoned at the first difference.
    pub(crate) fn canonicalize(&mut self, sym: &Symmetry<'_>, ids: &mut [u32]) -> bool {
        let k = ids.len();
        let mut best: Option<Vec<u32>> = None;
        let mut image = Vec::with_capacity(k);
        for (elem, inverse) in sym.inverse.iter().enumerate() {
            image.clear();
            let mut order = Ordering::Equal;
            for (j, &src) in inverse.iter().enumerate() {
                let id = self.relabel(sym, elem, src, ids[src]);
                image.push(id);
                let current = best.as_ref().map_or(ids[j], |b| b[j]);
                order = self.cmp_nodes(id, current);
                if order != Ordering::Equal {
                    break;
                }
            }
            if order == Ordering::Less {
                for &src in &inverse[image.len()..] {
                    let id = self.relabel(sym, elem, src, ids[src]);
                    image.push(id);
                }
                best = Some(image.clone());
            }
        }
        match best {
            Some(b) => {
                ids.copy_from_slice(&b);
                true
            }
            None => false,
        }
    }
}

/// Every complete execution of node `node`'s handler on `nc` under
/// `guard`: per branch, its guard, its weight, and the node's
/// configuration with the handler's outcome (see [`after_handler`]).
pub(crate) fn handler_branches(
    model: &Model,
    opts: &ExactOptions,
    node: usize,
    nc: &NodeConfig,
    guard: &Guard,
) -> Result<Vec<Branch<(NodeConfig, HandlerOutcome)>>, ExactError> {
    let bounds = Bounds {
        max_branches: opts.max_configs,
        deadline: &opts.deadline,
    };
    enumerate_bounded(
        guard,
        opts.fm_pruning,
        opts.feasibility_cache.as_deref(),
        Some(&bounds),
        |driver| {
            let mut nc = nc.clone();
            let outcome = run_handler(model, node, &mut nc, driver)?;
            Ok((nc, outcome))
        },
    )
}

/// The node's configuration after a handler run that ended in `outcome`
/// (error flag set after a failed `assert`), or `None` when an `observe`
/// failed and the mass is discarded.
pub(crate) fn after_handler((mut nc, outcome): (NodeConfig, HandlerOutcome)) -> Option<NodeConfig> {
    match outcome {
        HandlerOutcome::ObserveFailed => None,
        HandlerOutcome::Completed => Some(nc),
        HandlerOutcome::AssertFailed => {
            nc.error = true;
            Some(nc)
        }
    }
}

/// One entry of the initial distribution: the guard, one interned id per
/// node, and the mass.
pub(crate) type Initial = (Guard, Vec<u32>, Rat);

/// The initial distribution shared by both exact engines: enumerate every
/// node's (possibly random) state initializer, intern each resulting node
/// configuration once, and take the product. An initializer reads only its
/// program, so nodes sharing a program share one enumeration. The product
/// is charged against [`ExactOptions::max_configs`] as it grows, before
/// anything is allocated for it.
///
/// # Errors
///
/// A failing state initializer or init packet, or
/// [`ExactError::ConfigLimit`] when the product exceeds the limit.
pub(crate) fn initial_states(
    model: &Model,
    opts: &ExactOptions,
    intern: &mut dyn FnMut(NodeConfig) -> u32,
) -> Result<Vec<Initial>, ExactError> {
    let k = model.num_nodes();
    // Distinct programs with their initializer branches, and per node the
    // index of its program among them.
    let mut distinct: Vec<(&Arc<_>, Vec<Branch<Vec<Val>>>)> = Vec::new();
    let mut per_node = Vec::with_capacity(k);
    // Branch indices per node, with the mass and guard of the prefix.
    let mut product: Vec<(Vec<usize>, Rat, Guard)> =
        vec![(Vec::with_capacity(k), Rat::one(), Guard::top())];
    let bounds = Bounds {
        max_branches: opts.max_configs,
        deadline: &opts.deadline,
    };
    for prog in &model.programs {
        let p = match distinct.iter().position(|(q, _)| Arc::ptr_eq(q, prog)) {
            Some(p) => p,
            None => {
                let branches = enumerate_bounded(
                    &Guard::top(),
                    opts.fm_pruning,
                    opts.feasibility_cache.as_deref(),
                    Some(&bounds),
                    |driver| bayonet_net::eval_state_init(model, prog, driver),
                )?;
                distinct.push((prog, branches));
                distinct.len() - 1
            }
        };
        let branches = &distinct[p].1;
        let size = product
            .len()
            .checked_mul(branches.len())
            .filter(|&n| n <= opts.max_configs)
            .ok_or(ExactError::ConfigLimit(opts.max_configs))?;
        let mut next = Vec::with_capacity(size);
        for (picks, mass, guard) in &product {
            for (b, branch) in branches.iter().enumerate() {
                let Some(combined) = guard.conjoin(&branch.guard) else {
                    continue; // contradictory parameter assumptions
                };
                let mut picks = picks.clone();
                picks.push(b);
                next.push((picks, mass * &branch.weight, combined));
            }
        }
        product = next;
        per_node.push(p);
    }
    if product.is_empty() {
        return Ok(Vec::new());
    }
    // Every node starts with empty state and its init packets; only the
    // state differs between branches.
    let template = initial_config(model, vec![Vec::new(); k])?;
    let ids: Vec<Vec<u32>> = per_node
        .into_iter()
        .zip(&template.nodes)
        .map(|(p, start)| {
            distinct[p]
                .1
                .iter()
                .map(|b| {
                    intern(NodeConfig {
                        state: b.result.clone(),
                        ..start.clone()
                    })
                })
                .collect()
        })
        .collect();
    Ok(product
        .into_iter()
        .map(|(picks, mass, guard)| {
            let key = picks
                .iter()
                .enumerate()
                .map(|(node, &b)| ids[node][b])
                .collect();
            (guard, key, mass)
        })
        .collect())
}
