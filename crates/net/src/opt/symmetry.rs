//! Topology symmetry detection and frontier canonicalization.
//!
//! A *symmetry* of a compiled model is a node permutation `π` together with
//! a per-node port relabeling `σ_i` (one bijection per node, derived
//! uniquely from the link structure) such that relabeling every
//! configuration through `(π, σ)` commutes with the global step relation:
//!
//! * `π` maps each node to one running an equal program (`Arc` identity or
//!   structural equality), so handler behavior is literally the same code;
//! * links are preserved: `(i, p) ↔ (j, q)` implies
//!   `(π(i), σ_i(p)) ↔ (π(j), σ_j(q))`, and a port is linked at `i` iff its
//!   image is linked at `π(i)` (unlinked forwards error identically);
//! * port constants inside a program pin `σ`: a program that reads the
//!   arrival port anywhere is *rigid* (`σ_i` must be the identity), a
//!   `fwd(c)` pins `σ_i(c) = c`, and a `fwd(uniformInt(lo, hi))` requires
//!   `σ_i` to map `{lo..hi}` onto itself (each draw's error/success and
//!   destination correspond 1:1 across the pair);
//! * every declared query is invariant under `π` modulo commutativity and
//!   associativity of `+`, `*`, `and`, `or` and operand order of `==`/`!=`
//!   (exact rational arithmetic makes those reorderings value- and
//!   error-identical).
//!
//! Under a uniform scheduler (the enabled-action *set* permutes, and each
//! action keeps probability `1/|enabled|`) the step kernel then satisfies
//! `K(g·c, g·d) = K(c, d)`, so collapsing each frontier configuration to
//! the lexicographic minimum of its orbit and merging weights preserves
//! every query posterior, `Z`, and error mass bit-for-bit — for **any**
//! initial packet placement, because configurations are canonicalized from
//! the initial state onward and orbit masses evolve exactly.
//!
//! The engines additionally gate canonicalization at analysis time on the
//! runtime scheduler being permutation-invariant
//! ([`crate::Scheduler::permutation_invariant`], which a
//! [`crate::Network::set_scheduler`] override can break) and on the model
//! having no unbound parameters (symbolic state values would make query
//! case-split order depend on the chosen orbit representative).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::compile::{CExpr, CStmt, CompiledProgram, Model, QExpr, SchedKind};
use crate::config::{GlobalConfig, NodeConfig};
use crate::queue::PktQueue;

/// Abort the backtracking search after this many extension steps; models
/// hitting it get a trivial group (sound, just unoptimized).
const SEARCH_BUDGET: usize = 200_000;

/// Largest group we keep. Canonicalization applies every element per
/// frontier push, so huge groups would cost more than they save.
const MAX_ORDER: usize = 720;

/// One non-identity symmetry: a node permutation plus per-node port
/// relabelings (sparse: identity entries are omitted, so an empty map is
/// the identity relabeling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupElem {
    /// `node_perm[i]` is the image of node `i`.
    pub node_perm: Vec<usize>,
    /// `port_maps[i]` maps ports of node `i` to ports of its image,
    /// as sorted `(from, to)` pairs with `from != to`.
    pub port_maps: Vec<Vec<(u32, u32)>>,
}

impl GroupElem {
    fn map_port(&self, node: usize, port: u32) -> u32 {
        match self.port_maps[node].binary_search_by_key(&port, |&(f, _)| f) {
            Ok(idx) => self.port_maps[node][idx].1,
            Err(_) => port,
        }
    }

    /// The local configuration node `node`'s configuration `nc` becomes at
    /// position `node_perm[node]`: queue entry ports relabeled through
    /// `σ_node`, state and packets unchanged.
    pub fn relabel_node(&self, node: usize, nc: &NodeConfig) -> NodeConfig {
        remap_node(nc, self, node)
    }
}

/// The automorphism group of a model's topology (always excludes models
/// where it would be trivial — `find_symmetry` returns `None` there).
#[derive(Debug, Clone)]
pub struct SymmetryGroup {
    elems: Vec<GroupElem>,
}

impl SymmetryGroup {
    /// Group order (non-identity elements plus the identity).
    pub fn order(&self) -> usize {
        self.elems.len() + 1
    }

    /// The non-identity elements.
    pub fn elems(&self) -> &[GroupElem] {
        &self.elems
    }

    /// Node orbits (every node appears in exactly one; singletons included).
    pub fn orbits(&self) -> Vec<Vec<usize>> {
        let n = match self.elems.first() {
            Some(e) => e.node_perm.len(),
            None => return Vec::new(),
        };
        let mut rep: Vec<usize> = (0..n).collect();
        fn find(rep: &mut Vec<usize>, i: usize) -> usize {
            if rep[i] != i {
                let r = find(rep, rep[i]);
                rep[i] = r;
            }
            rep[i]
        }
        for e in &self.elems {
            for i in 0..n {
                let (a, b) = (find(&mut rep, i), find(&mut rep, e.node_perm[i]));
                if a != b {
                    rep[a.max(b)] = a.min(b);
                }
            }
        }
        let mut orbits: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            let r = find(&mut rep, i);
            orbits.entry(r).or_default().push(i);
        }
        orbits.into_values().collect()
    }

    /// Replaces `cfg` with the lexicographically smallest configuration in
    /// its orbit. Returns whether `cfg` changed (i.e. it was not already
    /// the orbit representative) — the engines' `orbit_merges` counter.
    pub fn canonicalize(&self, cfg: &mut GlobalConfig) -> bool {
        // Hot path: this runs once per frontier insertion. Losing
        // candidates (the common case) are compared lazily against the
        // running minimum without materializing the permuted
        // configuration; only a new minimum pays for `apply`.
        let mut best: Option<GlobalConfig> = None;
        for e in &self.elems {
            let current = best.as_ref().unwrap_or(cfg);
            if cmp_applied(e, cfg, current) == Ordering::Less {
                best = Some(apply(e, cfg));
            }
        }
        match best {
            Some(b) => {
                *cfg = b;
                true
            }
            None => false,
        }
    }
}

/// Compares `apply(e, cfg)` against `other` in the derived lexicographic
/// order of [`GlobalConfig`] — `(sched_state, nodes)`, each node
/// `(state, q_in, q_out, error)`, each queue `(entries, capacity)` — but
/// element by element, without building the permuted configuration.
fn cmp_applied(e: &GroupElem, cfg: &GlobalConfig, other: &GlobalConfig) -> Ordering {
    // `apply` leaves scheduler state untouched; `other` is always a
    // member of the same orbit, so `sched_state` ties by construction.
    debug_assert_eq!(cfg.sched_state, other.sched_state);
    let n = cfg.nodes.len();
    // Position `j` of the permuted configuration holds node `π⁻¹(j)`.
    let mut inv = vec![0usize; n];
    for (i, &pi) in e.node_perm.iter().enumerate() {
        inv[pi] = i;
    }
    for (&i, other_node) in inv.iter().zip(&other.nodes) {
        let ord = cmp_remapped_node(&cfg.nodes[i], e, i, other_node);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn cmp_remapped_node(nc: &NodeConfig, e: &GroupElem, node: usize, other: &NodeConfig) -> Ordering {
    nc.state
        .cmp(&other.state)
        .then_with(|| cmp_remapped_queue(&nc.q_in, e, node, &other.q_in))
        .then_with(|| cmp_remapped_queue(&nc.q_out, e, node, &other.q_out))
        .then_with(|| nc.error.cmp(&other.error))
}

fn cmp_remapped_queue(q: &PktQueue, e: &GroupElem, node: usize, other: &PktQueue) -> Ordering {
    q.iter()
        .map(|(pkt, port)| (pkt, e.map_port(node, *port)))
        .cmp(other.iter().map(|(pkt, port)| (pkt, *port)))
        .then_with(|| q.capacity().cmp(&other.capacity()))
}

/// Applies a group element to a configuration: node `i`'s local state moves
/// to position `π(i)` with its queue entry ports relabeled through `σ_i`.
/// Scheduler state is untouched (the uniform scheduler is stateless).
fn apply(e: &GroupElem, cfg: &GlobalConfig) -> GlobalConfig {
    let mut nodes: Vec<Option<NodeConfig>> = vec![None; cfg.nodes.len()];
    for (i, nc) in cfg.nodes.iter().enumerate() {
        nodes[e.node_perm[i]] = Some(remap_node(nc, e, i));
    }
    GlobalConfig {
        sched_state: cfg.sched_state,
        nodes: nodes
            .into_iter()
            .map(|n| n.expect("permutation is total"))
            .collect(),
    }
}

fn remap_node(nc: &NodeConfig, e: &GroupElem, node: usize) -> NodeConfig {
    if e.port_maps[node].is_empty() {
        return nc.clone();
    }
    let mut q_in = PktQueue::new(nc.q_in.capacity());
    for (pkt, port) in nc.q_in.iter() {
        q_in.push_back((pkt.clone(), e.map_port(node, *port)));
    }
    let mut q_out = PktQueue::new(nc.q_out.capacity());
    for (pkt, port) in nc.q_out.iter() {
        q_out.push_back((pkt.clone(), e.map_port(node, *port)));
    }
    NodeConfig {
        state: nc.state.clone(),
        q_in,
        q_out,
        error: nc.error,
    }
}

/// Port constraints a program imposes on the relabelings of nodes running
/// it.
#[derive(Debug, Clone, Default, PartialEq)]
struct PortProfile {
    /// Program reads the arrival port or forwards to a data-dependent
    /// target: `σ` must be the identity.
    rigid: bool,
    /// `fwd(c)` constants: `σ(c) = c`.
    fixed: BTreeSet<u32>,
    /// `fwd(uniformInt(lo, hi))` ranges (clamped to `1..`): `σ` must map
    /// each range onto itself.
    ranges: BTreeSet<(u32, u32)>,
}

fn profile_of(p: &CompiledProgram) -> PortProfile {
    let mut prof = PortProfile::default();
    for s in &p.body {
        profile_stmt(s, &mut prof);
    }
    prof
}

fn profile_stmt(s: &CStmt, prof: &mut PortProfile) {
    match s {
        CStmt::Fwd(e) => {
            profile_expr(e, prof);
            match e {
                CExpr::Const(c) => match c.to_i64() {
                    // A constant that is not a valid port always errors at
                    // this site — no constraint on σ.
                    Some(v) if v >= 1 && v <= u32::MAX as i64 => {
                        prof.fixed.insert(v as u32);
                    }
                    _ => {}
                },
                CExpr::UniformInt(lo, hi) => match (lo.as_ref(), hi.as_ref()) {
                    (CExpr::Const(a), CExpr::Const(b)) => {
                        match (a.to_i64(), b.to_i64()) {
                            (Some(ia), Some(ib)) if ia <= ib => {
                                // Draws below 1 error identically at every
                                // node; only valid ports constrain σ.
                                let lo = ia.max(1);
                                if lo <= ib && ib <= u32::MAX as i64 {
                                    if ib - lo > 64 {
                                        // Don't chase huge ranges.
                                        prof.rigid = true;
                                    } else {
                                        prof.ranges.insert((lo as u32, ib as u32));
                                    }
                                }
                            }
                            // Invalid bounds error before drawing.
                            _ => {}
                        }
                    }
                    _ => prof.rigid = true,
                },
                _ => prof.rigid = true,
            }
        }
        CStmt::AssignState(_, e)
        | CStmt::AssignLocal(_, e)
        | CStmt::FieldAssign(_, e)
        | CStmt::Assert(e)
        | CStmt::Observe(e) => profile_expr(e, prof),
        CStmt::If(c, t, f) => {
            profile_expr(c, prof);
            for s in t.iter().chain(f) {
                profile_stmt(s, prof);
            }
        }
        CStmt::While(c, b) => {
            profile_expr(c, prof);
            for s in b {
                profile_stmt(s, prof);
            }
        }
        CStmt::New | CStmt::Drop | CStmt::Dup | CStmt::Skip => {}
    }
}

fn profile_expr(e: &CExpr, prof: &mut PortProfile) {
    match e {
        CExpr::Port => prof.rigid = true,
        CExpr::Flip(a) | CExpr::Not(a) | CExpr::Neg(a) => profile_expr(a, prof),
        CExpr::UniformInt(a, b) | CExpr::Binary(_, a, b) => {
            profile_expr(a, prof);
            profile_expr(b, prof);
        }
        CExpr::Const(_) | CExpr::Param(_) | CExpr::State(_) | CExpr::Local(_) | CExpr::Field(_) => {
        }
    }
}

fn progs_equal(a: &std::sync::Arc<CompiledProgram>, b: &std::sync::Arc<CompiledProgram>) -> bool {
    std::sync::Arc::ptr_eq(a, b) || **a == **b
}

/// Finds the model's automorphism group. Returns `(None, why)` when the
/// group is trivial or detection was abandoned.
pub(super) fn find_symmetry(model: &Model) -> (Option<SymmetryGroup>, String) {
    if model.scheduler != SchedKind::Uniform {
        return (None, "scheduler is not uniform".into());
    }
    let n = model.num_nodes();
    if n < 2 {
        return (None, "fewer than two nodes".into());
    }

    // Program equivalence classes (index of first equal program).
    let class: Vec<usize> = (0..n)
        .map(|i| {
            (0..i)
                .find(|&j| progs_equal(&model.programs[j], &model.programs[i]))
                .unwrap_or(i)
        })
        .collect();

    // Adjacency: node -> neighbor -> sorted local ports. Parallel links and
    // self-loops make σ derivation ambiguous; bail conservatively.
    let mut adj: Vec<BTreeMap<usize, Vec<u32>>> = vec![BTreeMap::new(); n];
    for ((i, p), (j, _)) in model.links() {
        if i == j {
            return (None, "self-loop link".into());
        }
        adj[i].entry(j).or_default().push(p);
    }
    for row in &mut adj {
        for ports in row.values_mut() {
            ports.sort_unstable();
            if ports.len() > 1 {
                return (None, "parallel links between a node pair".into());
            }
        }
    }

    // Pruning signature: own class, plus the sorted multiset of neighbor
    // classes. Candidate images must match.
    let sig: Vec<(usize, Vec<usize>)> = (0..n)
        .map(|i| {
            let mut neigh: Vec<usize> = adj[i].keys().map(|&j| class[j]).collect();
            neigh.sort_unstable();
            (class[i], neigh)
        })
        .collect();
    let candidates: Vec<Vec<usize>> = (0..n)
        .map(|i| (0..n).filter(|&j| sig[j] == sig[i]).collect())
        .collect();

    let profiles: Vec<PortProfile> = model.programs.iter().map(|p| profile_of(p)).collect();

    let mut search = Search {
        model,
        adj: &adj,
        profiles: &profiles,
        candidates: &candidates,
        perm: vec![usize::MAX; n],
        used: vec![false; n],
        budget: SEARCH_BUDGET,
        elems: Vec::new(),
        overflow: false,
    };
    search.extend(0);
    if search.budget == 0 {
        return (None, "search budget exhausted".into());
    }
    if search.overflow {
        return (None, format!("group order exceeds cap of {MAX_ORDER}"));
    }
    if search.elems.is_empty() {
        return (None, "no non-trivial automorphism".into());
    }
    let order = search.elems.len() + 1;
    (
        Some(SymmetryGroup {
            elems: search.elems,
        }),
        format!("found automorphism group of order {order}"),
    )
}

struct Search<'a> {
    model: &'a Model,
    adj: &'a [BTreeMap<usize, Vec<u32>>],
    profiles: &'a [PortProfile],
    candidates: &'a [Vec<usize>],
    perm: Vec<usize>,
    used: Vec<bool>,
    budget: usize,
    elems: Vec<GroupElem>,
    overflow: bool,
}

impl Search<'_> {
    fn extend(&mut self, i: usize) {
        if self.budget == 0 || self.overflow {
            return;
        }
        let n = self.perm.len();
        if i == n {
            if self.perm.iter().enumerate().all(|(a, &b)| a == b) {
                return; // identity
            }
            if let Some(elem) = self.finish() {
                if self.elems.len() + 1 >= MAX_ORDER {
                    self.overflow = true;
                    return;
                }
                self.elems.push(elem);
            }
            return;
        }
        for idx in 0..self.candidates[i].len() {
            let j = self.candidates[i][idx];
            if self.used[j] {
                continue;
            }
            self.budget = self.budget.saturating_sub(1);
            if self.budget == 0 {
                return;
            }
            // Local consistency: every already-mapped neighbor of i must map
            // to a neighbor of j with the same link count.
            let ok = self.adj[i].iter().all(|(&nb, ports)| {
                let img = self.perm[nb];
                img == usize::MAX || self.adj[j].get(&img).map(|v| v.len()) == Some(ports.len())
            });
            if !ok {
                continue;
            }
            self.perm[i] = j;
            self.used[j] = true;
            self.extend(i + 1);
            self.perm[i] = usize::MAX;
            self.used[j] = false;
            if self.budget == 0 || self.overflow {
                return;
            }
        }
    }

    /// Validates a complete node permutation: derives σ from the link
    /// structure, then checks the link bijection, the port profiles, and
    /// query invariance.
    fn finish(&self) -> Option<GroupElem> {
        let n = self.perm.len();
        let mut port_maps: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        // σ_i: the k-th port of i toward neighbor j maps to the k-th port
        // of π(i) toward π(j); with parallel links excluded each list has
        // exactly one entry.
        for (i, row) in self.adj.iter().enumerate() {
            let ii = self.perm[i];
            for (&j, ports) in row {
                let jj = self.perm[j];
                let theirs = self.adj[ii].get(&jj)?;
                if theirs.len() != ports.len() {
                    return None;
                }
                for (&p, &p2) in ports.iter().zip(theirs) {
                    if p != p2 {
                        port_maps[i].push((p, p2));
                    }
                }
            }
            port_maps[i].sort_unstable();
        }
        let elem = GroupElem {
            node_perm: self.perm.clone(),
            port_maps,
        };
        // Link bijection: (i, p) <-> (j, q) implies images linked the same
        // way. (σ is injective per node by construction: distinct neighbors
        // have distinct images.)
        for ((i, p), (j, q)) in self.model.links() {
            let (pi, pj) = (elem.node_perm[i], elem.node_perm[j]);
            let (p2, q2) = (elem.map_port(i, p), elem.map_port(j, q));
            if self.model.link_dest(pi, p2) != Some((pj, q2)) {
                return None;
            }
        }
        // Port profiles.
        for i in 0..n {
            let prof = &self.profiles[i];
            let ii = elem.node_perm[i];
            if prof.rigid && !elem.port_maps[i].is_empty() {
                return None;
            }
            for &c in &prof.fixed {
                if elem.map_port(i, c) != c {
                    return None;
                }
                // A fixed forward must find the same linkedness at the
                // image node (unlinked forwards error).
                let here = self.model.link_dest(i, c).is_some();
                let there = self.model.link_dest(ii, c).is_some();
                if here != there {
                    return None;
                }
            }
            for &(lo, hi) in &prof.ranges {
                let mut image: BTreeSet<u32> = BTreeSet::new();
                for p in lo..=hi {
                    let img = elem.map_port(i, p);
                    // Linkedness of each draw must be preserved so the
                    // error/success split of the uniform choice matches.
                    let here = self.model.link_dest(i, p).is_some();
                    let there = self.model.link_dest(ii, img).is_some();
                    if here != there {
                        return None;
                    }
                    image.insert(img);
                }
                if image != (lo..=hi).collect() {
                    return None;
                }
            }
        }
        // Query invariance.
        for q in &self.model.queries {
            let permuted = permute_query(&q.expr, &elem.node_perm);
            if qcanon(&q.expr) != qcanon(&permuted) {
                return None;
            }
        }
        Some(elem)
    }
}

fn permute_query(e: &QExpr, perm: &[usize]) -> QExpr {
    match e {
        QExpr::At { node, slot } => QExpr::At {
            node: perm[*node],
            slot: *slot,
        },
        QExpr::Binary(op, a, b) => QExpr::Binary(
            *op,
            Box::new(permute_query(a, perm)),
            Box::new(permute_query(b, perm)),
        ),
        QExpr::Not(x) => QExpr::Not(Box::new(permute_query(x, perm))),
        QExpr::Neg(x) => QExpr::Neg(Box::new(permute_query(x, perm))),
        QExpr::Const(_) | QExpr::Param(_) => e.clone(),
    }
}

/// Canonical form modulo commutativity/associativity of `+`, `*`, `and`,
/// `or` and operand order of `==`/`!=`. Exact rational arithmetic makes
/// these reorderings value-identical, and their error behavior depends only
/// on the operand multiset, so canon-equality implies evaluation equality.
fn qcanon(e: &QExpr) -> QExpr {
    use bayonet_lang::BinOp;
    match e {
        QExpr::Binary(op @ (BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or), _, _) => {
            let mut operands = Vec::new();
            flatten(e, *op, &mut operands);
            let mut canon: Vec<QExpr> = operands.iter().map(qcanon).collect();
            canon.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            let mut it = canon.into_iter();
            let first = it.next().expect("binary op has operands");
            it.fold(first, |acc, x| {
                QExpr::Binary(*op, Box::new(acc), Box::new(x))
            })
        }
        QExpr::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b) => {
            let (ca, cb) = (qcanon(a), qcanon(b));
            if format!("{ca:?}") <= format!("{cb:?}") {
                QExpr::Binary(*op, Box::new(ca), Box::new(cb))
            } else {
                QExpr::Binary(*op, Box::new(cb), Box::new(ca))
            }
        }
        QExpr::Binary(op, a, b) => QExpr::Binary(*op, Box::new(qcanon(a)), Box::new(qcanon(b))),
        QExpr::Not(x) => QExpr::Not(Box::new(qcanon(x))),
        QExpr::Neg(x) => QExpr::Neg(Box::new(qcanon(x))),
        QExpr::Const(_) | QExpr::Param(_) | QExpr::At { .. } => e.clone(),
    }
}

fn flatten(e: &QExpr, op: bayonet_lang::BinOp, out: &mut Vec<QExpr>) {
    match e {
        QExpr::Binary(o, a, b) if *o == op => {
            flatten(a, op, out);
            flatten(b, op, out);
        }
        other => out.push(other.clone()),
    }
}
