//! Hash-consed algebraic decision diagrams (ADDs) for exact inference.
//!
//! The enumeration engine explores the global Markov chain one configuration
//! at a time; this crate provides the knowledge-compilation substrate for the
//! alternative `bdd` backend, which represents a whole weighted *set* of
//! global configurations as one decision diagram and transforms the set per
//! scheduler action. Independence between nodes' local states then shows up
//! as structure sharing: a frontier of `c^k` product configurations costs
//! `O(c·k)` diagram nodes instead of `c^k` explicit states.
//!
//! # Representation
//!
//! A diagram is a **quasi-reduced, hash-consed binary trie with exact
//! rational weights on edges** (a multiplicative edge-valued ADD, the SLDD×
//! of the knowledge-compilation literature):
//!
//! * Variables are bit positions. Variable indices are grouped into fixed
//!   [`BLOCK_BITS`]-wide *blocks*, one block per network node; block `b`
//!   encodes the interned id of node `b`'s local configuration.
//! * Within a block, an id is laid down in its **Elias-gamma** code
//!   (`id + 1` as `ℓ-1` zeros followed by the `ℓ` value bits, MSB first).
//!   Gamma codes are prefix-free, so ids interned at different times — with
//!   different code lengths — coexist in one diagram without re-encoding.
//! * A [`NodeRef`] is a pair of an interned [`bayonet_num::Rat`] **weight**
//!   and a structure node; the weight of a path is the product of the edge
//!   weights along it. There is a single terminal, so a terminal ref is
//!   just its weight. Keeping weights multiplicative on edges is what makes
//!   [`Store::scale`] O(1) — crucial when every inference step multiplies
//!   whole frontiers by scheduler and branch probabilities — and makes
//!   summing two structurally identical diagrams an O(1) weight addition.
//! * The structure is *quasi-reduced*: a node's two children may be equal
//!   (no skip levels), and the reduction rules are (a) a node with two
//!   [`NodeRef::ZERO`] children is itself `ZERO`, and (b) every node is
//!   **weight-normalized** — the first nonzero child carries weight one,
//!   with the common factor extracted to the incoming edge. A diagram is
//!   therefore the minimal trie of its nonzero paths with shared suffixes
//!   and a canonical weight placement, which makes it **canonical by
//!   construction**: two diagrams denote the same weight function iff they
//!   are the same [`NodeRef`].
//!
//! Canonicity is what turns configuration merging into a constant-time
//! side effect of hash-consing (the internal `mk` returns an existing node via
//! the unique table keyed on `(var, lo, hi)` — weighted children included),
//! and weighted model counting ([`Store::mass`]) is a single memoized
//! bottom-up sum.

use bayonet_num::{FastMap, FastSet, Rat};

/// Number of variable bit positions reserved per block (per network node).
///
/// A gamma code for id `< 2^31` needs at most `2·31 + 1 = 63` bits, so one
/// block always fits any id the store can intern.
pub const BLOCK_BITS: u32 = 64;

/// Structure index of the unique terminal.
const TERM: u32 = u32::MAX;

/// Interned weight index of zero.
const W_ZERO: u32 = 0;

/// Interned weight index of one.
const W_ONE: u32 = 1;

/// A reference to a diagram: an interned edge **weight** times a structure
/// node (or the unique terminal). Copyable and canonical — equal weight
/// functions have equal refs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeRef {
    /// Interned weight index (into the store's weight table).
    w: u32,
    /// Structure node index, or [`TERM`] for the terminal.
    n: u32,
}

impl NodeRef {
    /// The zero diagram: the constant-0 weight function (empty set).
    pub const ZERO: NodeRef = NodeRef { w: W_ZERO, n: TERM };

    /// Whether this reference is a terminal (pure weight) ref.
    pub fn is_terminal(self) -> bool {
        self.n == TERM
    }
}

/// A decision node. `lo` is the 0-branch, `hi` the 1-branch of bit `var`.
/// Children are weight-normalized: the first nonzero child has weight one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// Snapshot of the store's hash-consing counters, surfaced as
/// `bayonet_bdd_*` metrics by the server and `--stats` by the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Decision nodes allocated in the arena (live unique nodes).
    pub nodes: u64,
    /// `mk` calls answered by the unique table (structural merges).
    pub unique_hits: u64,
    /// Operations (`add`/weight arithmetic/block rewrites) answered by a
    /// memo cache.
    pub apply_cache_hits: u64,
}

/// The hash-consed node store: arena, unique table, interned weights, and
/// operation memo caches. All diagrams live in one store and may share
/// structure freely.
pub struct Store {
    nodes: Vec<Node>,
    unique: FastMap<(u32, NodeRef, NodeRef), u32>,
    weights: Vec<Rat>,
    weight_ids: FastMap<Rat, u32>,
    memo_add: FastMap<(u32, u32, u32), NodeRef>,
    memo_mul: FastMap<(u32, u32), u32>,
    memo_div: FastMap<(u32, u32), u32>,
    memo_wadd: FastMap<(u32, u32), u32>,
    memo_mass: FastMap<u32, Rat>,
    memo_paths: FastMap<u32, u64>,
    unique_hits: u64,
    apply_hits: u64,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// Creates an empty store. The zero and one weights are pre-interned so
    /// [`NodeRef::ZERO`] is valid from the start.
    pub fn new() -> Store {
        let mut weight_ids = FastMap::default();
        weight_ids.insert(Rat::zero(), W_ZERO);
        weight_ids.insert(Rat::one(), W_ONE);
        Store {
            nodes: Vec::new(),
            unique: FastMap::default(),
            weights: vec![Rat::zero(), Rat::one()],
            weight_ids,
            memo_add: FastMap::default(),
            memo_mul: FastMap::default(),
            memo_div: FastMap::default(),
            memo_wadd: FastMap::default(),
            memo_mass: FastMap::default(),
            memo_paths: FastMap::default(),
            unique_hits: 0,
            apply_hits: 0,
        }
    }

    /// Interns a weight value.
    fn weight_id(&mut self, w: Rat) -> u32 {
        if let Some(&id) = self.weight_ids.get(&w) {
            return id;
        }
        let id = self.weights.len() as u32;
        assert!(id != TERM, "weight table full");
        self.weights.push(w.clone());
        self.weight_ids.insert(w, id);
        id
    }

    /// Interns a weight and returns its id. Callers that scale many refs by
    /// the same weight should intern once and use [`Store::scale_id`] /
    /// [`Store::mul_weights`]: id arithmetic is memoized on `u32` pairs and
    /// never re-hashes the rational.
    pub fn intern_weight(&mut self, w: &Rat) -> u32 {
        if let Some(&id) = self.weight_ids.get(w) {
            return id;
        }
        self.weight_id(w.clone())
    }

    /// Memoized product of two interned weight ids.
    pub fn mul_weights(&mut self, a: u32, b: u32) -> u32 {
        self.mul_id(a, b)
    }

    /// Memoized sum of two interned weight ids.
    fn add_weights(&mut self, a: u32, b: u32) -> u32 {
        if a == W_ZERO {
            return b;
        }
        if b == W_ZERO {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.memo_wadd.get(&key) {
            self.apply_hits += 1;
            return r;
        }
        let w = &self.weights[a as usize] + &self.weights[b as usize];
        let r = self.weight_id(w);
        self.memo_wadd.insert(key, r);
        r
    }

    /// Multiplies every path weight by the interned weight `w` — O(1).
    pub fn scale_id(&mut self, a: NodeRef, w: u32) -> NodeRef {
        if w == W_ZERO {
            return NodeRef::ZERO;
        }
        self.mul_ref(a, w)
    }

    /// Memoized product of two interned weights.
    fn mul_id(&mut self, a: u32, b: u32) -> u32 {
        if a == W_ONE {
            return b;
        }
        if b == W_ONE {
            return a;
        }
        if a == W_ZERO || b == W_ZERO {
            return W_ZERO;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&r) = self.memo_mul.get(&key) {
            self.apply_hits += 1;
            return r;
        }
        let w = &self.weights[a as usize] * &self.weights[b as usize];
        let r = self.weight_id(w);
        self.memo_mul.insert(key, r);
        r
    }

    /// Memoized quotient of two interned weights (`b` must be nonzero).
    fn div_id(&mut self, a: u32, b: u32) -> u32 {
        if b == W_ONE || a == W_ZERO {
            return a;
        }
        if a == b {
            return W_ONE;
        }
        debug_assert!(b != W_ZERO, "division by the zero weight");
        if let Some(&r) = self.memo_div.get(&(a, b)) {
            self.apply_hits += 1;
            return r;
        }
        let w = &self.weights[a as usize] / &self.weights[b as usize];
        let r = self.weight_id(w);
        self.memo_div.insert((a, b), r);
        r
    }

    /// Multiplies a ref's edge weight by an interned weight — O(1); the
    /// structure is untouched.
    fn mul_ref(&mut self, a: NodeRef, w: u32) -> NodeRef {
        if a == NodeRef::ZERO {
            return NodeRef::ZERO;
        }
        NodeRef {
            w: self.mul_id(a.w, w),
            n: a.n,
        }
    }

    /// Interns a terminal weight; equal weights always return the same ref.
    pub fn terminal(&mut self, w: Rat) -> NodeRef {
        let w = self.weight_id(w);
        if w == W_ZERO {
            return NodeRef::ZERO;
        }
        NodeRef { w, n: TERM }
    }

    /// The weight of a terminal ref.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a decision node.
    pub fn terminal_value(&self, r: NodeRef) -> &Rat {
        assert!(r.is_terminal(), "terminal_value of a decision node");
        &self.weights[r.w as usize]
    }

    fn node(&self, n: u32) -> Node {
        debug_assert!(n != TERM, "expected a decision node");
        self.nodes[n as usize]
    }

    /// Hash-consed node constructor. Reduction rules: `mk(v, ZERO, ZERO) =
    /// ZERO`, and the first nonzero child's weight is extracted to the
    /// returned ref (weight normalization), which keeps every diagram the
    /// minimal trie of its nonzero paths with a canonical weight placement.
    fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        let (c, lo, hi) = if lo == NodeRef::ZERO {
            if hi == NodeRef::ZERO {
                return NodeRef::ZERO;
            }
            (hi.w, NodeRef::ZERO, NodeRef { w: W_ONE, n: hi.n })
        } else {
            let hi_w = self.div_id(hi.w, lo.w);
            (
                lo.w,
                NodeRef { w: W_ONE, n: lo.n },
                NodeRef { w: hi_w, n: hi.n },
            )
        };
        let key = (var, lo, hi);
        match self.unique.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.unique_hits += 1;
                NodeRef { w: c, n: *e.get() }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                assert!(self.nodes.len() < TERM as usize, "node arena full");
                let n = self.nodes.len() as u32;
                self.nodes.push(Node { var, lo, hi });
                e.insert(n);
                NodeRef { w: c, n }
            }
        }
    }

    /// Pointwise sum of two weight functions (the `apply(+)` operation).
    ///
    /// Both operands must be *aligned*: built over the same block layout, so
    /// at every shared path the two nodes test the same variable. The engine
    /// guarantees this because it only ever sums diagrams over identical
    /// decision histories.
    pub fn add(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == NodeRef::ZERO {
            return b;
        }
        if b == NodeRef::ZERO {
            return a;
        }
        if a.n == b.n {
            // Structurally identical diagrams (terminals included) sum by
            // weight alone — the O(1) merge canonicity buys.
            let w = self.add_weights(a.w, b.w);
            if w == W_ZERO {
                return NodeRef::ZERO;
            }
            return NodeRef { w, n: a.n };
        }
        assert!(
            !a.is_terminal() && !b.is_terminal(),
            "misaligned ADD operands in add"
        );
        // Normalize to a's weight: a + b = wa · (A + (wb/wa)·B).
        let r = self.div_id(b.w, a.w);
        let sum = self.add_norm(a.n, b.n, r);
        self.mul_ref(sum, a.w)
    }

    /// `A + r·B` over weight-one refs to distinct structure nodes.
    fn add_norm(&mut self, na: u32, nb: u32, r: u32) -> NodeRef {
        let key = (na, nb, r);
        if let Some(&out) = self.memo_add.get(&key) {
            self.apply_hits += 1;
            return out;
        }
        let (a, b) = (self.node(na), self.node(nb));
        assert_eq!(a.var, b.var, "misaligned ADD operands in add");
        let rb_lo = self.mul_ref(b.lo, r);
        let lo = self.add(a.lo, rb_lo);
        let rb_hi = self.mul_ref(b.hi, r);
        let hi = self.add(a.hi, rb_hi);
        let out = self.mk(a.var, lo, hi);
        self.memo_add.insert(key, out);
        out
    }

    /// Multiplies every path weight by `w` — O(1): weights live on edges,
    /// so scaling only touches the root ref.
    pub fn scale(&mut self, a: NodeRef, w: &Rat) -> NodeRef {
        if a == NodeRef::ZERO || w.is_one() {
            return a;
        }
        debug_assert!(!w.is_zero(), "scaling by zero collapses the diagram");
        let w = self.weight_id(w.clone());
        self.mul_ref(a, w)
    }

    /// Weighted model count: the sum of all path weights. Memoized globally
    /// per structure node (node identity is canonical, so the memo never
    /// goes stale).
    pub fn mass(&mut self, a: NodeRef) -> Rat {
        let m = self.mass_node(a.n);
        m * &self.weights[a.w as usize]
    }

    fn mass_node(&mut self, n: u32) -> Rat {
        if n == TERM {
            return Rat::one();
        }
        if let Some(m) = self.memo_mass.get(&n) {
            return m.clone();
        }
        let node = self.node(n);
        let lo = self.mass(node.lo);
        let hi = self.mass(node.hi);
        let m = lo + &hi;
        self.memo_mass.insert(n, m.clone());
        m
    }

    /// Number of distinct root-to-terminal paths (= distinct configurations
    /// the diagram represents). Memoized globally per structure node.
    pub fn paths(&mut self, a: NodeRef) -> u64 {
        if a == NodeRef::ZERO {
            return 0;
        }
        self.paths_node(a.n)
    }

    fn paths_node(&mut self, n: u32) -> u64 {
        if n == TERM {
            return 1;
        }
        if let Some(&p) = self.memo_paths.get(&n) {
            return p;
        }
        let node = self.node(n);
        let lo = self.paths(node.lo);
        let hi = self.paths(node.hi);
        let p = lo.saturating_add(hi);
        self.memo_paths.insert(n, p);
        p
    }

    /// Gamma-code geometry for `id`: `(value, code length in bits)` where
    /// the total code is `2·len - 1` bits.
    fn gamma(id: u32) -> (u32, u32) {
        let v = id.checked_add(1).expect("id overflow");
        (v, 32 - v.leading_zeros())
    }

    /// Whether bit `t` (0-based from the block start) of `id`'s gamma code
    /// is set.
    fn gamma_bit(v: u32, len: u32, t: u32) -> bool {
        let total = 2 * len - 1;
        debug_assert!(t < total);
        if t < len - 1 {
            false // leading zeros
        } else {
            (v >> (total - 1 - t)) & 1 == 1
        }
    }

    /// Lays down `id`'s gamma code in `block`, ending at `below`. Returns
    /// `ZERO` when `below` is `ZERO` (no node ever has two zero children).
    pub fn encode(&mut self, block: u32, id: u32, below: NodeRef) -> NodeRef {
        if below == NodeRef::ZERO {
            return NodeRef::ZERO;
        }
        let (v, len) = Self::gamma(id);
        let total = 2 * len - 1;
        debug_assert!(total < BLOCK_BITS, "gamma code exceeds its block");
        let base = block * BLOCK_BITS;
        let mut cur = below;
        for t in (0..total).rev() {
            cur = if Self::gamma_bit(v, len, t) {
                self.mk(base + t, NodeRef::ZERO, cur)
            } else {
                self.mk(base + t, cur, NodeRef::ZERO)
            };
        }
        cur
    }

    /// Follows `id`'s gamma code from a block-entry ref; `ZERO` when the
    /// diagram has no path for that id. The returned ref carries the edge
    /// weights crossed on the way down.
    fn descend(&mut self, entry: NodeRef, id: u32) -> NodeRef {
        let (v, len) = Self::gamma(id);
        let total = 2 * len - 1;
        let mut cur = entry;
        for t in 0..total {
            if cur == NodeRef::ZERO {
                return NodeRef::ZERO;
            }
            let n = self.node(cur.n);
            let child = if Self::gamma_bit(v, len, t) {
                n.hi
            } else {
                n.lo
            };
            cur = self.mul_ref(child, cur.w);
        }
        cur
    }

    /// Collects every `(id, below)` pair decodable from a block-entry ref.
    /// Prefix-freeness of the gamma code makes the decode unambiguous even
    /// when ids of different code lengths share the block; `below` refs
    /// carry the edge weights crossed on the way down.
    fn decode_entry(&mut self, entry: NodeRef, out: &mut Vec<(u32, NodeRef)>) {
        self.walk_zeros(entry, 0, out);
    }

    /// Phase one of the gamma decode: counting leading zeros. The 1-branch
    /// (shorter codes, smaller ids) is visited first so decoded ids come
    /// out in ascending order.
    fn walk_zeros(&mut self, r: NodeRef, zeros: u32, out: &mut Vec<(u32, NodeRef)>) {
        let n = self.node(r.n);
        let hi = self.mul_ref(n.hi, r.w);
        if hi != NodeRef::ZERO {
            // The marker 1 is the value's MSB; `zeros` more bits follow.
            self.walk_value(hi, zeros, 1, out);
        }
        let lo = self.mul_ref(n.lo, r.w);
        if lo != NodeRef::ZERO {
            self.walk_zeros(lo, zeros + 1, out);
        }
    }

    /// Phase two: reading the remaining `rem` value bits.
    fn walk_value(&mut self, r: NodeRef, rem: u32, acc: u64, out: &mut Vec<(u32, NodeRef)>) {
        if rem == 0 {
            out.push(((acc - 1) as u32, r));
            return;
        }
        let n = self.node(r.n);
        let lo = self.mul_ref(n.lo, r.w);
        if lo != NodeRef::ZERO {
            self.walk_value(lo, rem - 1, acc << 1, out);
        }
        let hi = self.mul_ref(n.hi, r.w);
        if hi != NodeRef::ZERO {
            self.walk_value(hi, rem - 1, (acc << 1) | 1, out);
        }
    }

    /// Finds the distinct block-entry structure nodes for `block` reachable
    /// from `root` (deduplicated: shared structure is visited once; edge
    /// weights are irrelevant for which ids appear).
    fn entries_at_block(&self, root: NodeRef, block: u32, out: &mut Vec<u32>) {
        if root == NodeRef::ZERO {
            return;
        }
        let base = block * BLOCK_BITS;
        let mut seen: FastSet<u32> = FastSet::default();
        let mut stack = vec![root.n];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            assert!(n != TERM, "diagram ends before block {block}");
            let node = self.node(n);
            if node.var >= base {
                debug_assert_eq!(node.var, base, "entry not at block start");
                out.push(n);
            } else {
                if node.lo != NodeRef::ZERO {
                    stack.push(node.lo.n);
                }
                if node.hi != NodeRef::ZERO {
                    stack.push(node.hi.n);
                }
            }
        }
    }

    /// The sorted, deduplicated set of ids stored at `block` anywhere in
    /// `root` — i.e. every local configuration node `block` can be in.
    pub fn ids_at_block(&mut self, root: NodeRef, block: u32) -> Vec<u32> {
        let mut entries = Vec::new();
        self.entries_at_block(root, block, &mut entries);
        let mut ids = Vec::new();
        let mut pairs = Vec::new();
        for e in entries {
            pairs.clear();
            self.decode_entry(NodeRef { w: W_ONE, n: e }, &mut pairs);
            ids.extend(pairs.iter().map(|&(id, _)| id));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Restricts `root` to paths where `block` holds `old_id` and rewrites
    /// that block to `new_id`: the per-action transition of one node's
    /// local configuration applied to the whole represented set at once.
    /// With `old_id == new_id` this is a pure restriction.
    pub fn replace_block(
        &mut self,
        root: NodeRef,
        block: u32,
        old_id: u32,
        new_id: u32,
    ) -> NodeRef {
        let mut memo: FastMap<u32, NodeRef> = FastMap::default();
        self.replace_rec(root, block, old_id, new_id, &mut memo)
    }

    fn replace_rec(
        &mut self,
        r: NodeRef,
        block: u32,
        old_id: u32,
        new_id: u32,
        memo: &mut FastMap<u32, NodeRef>,
    ) -> NodeRef {
        if r == NodeRef::ZERO {
            return NodeRef::ZERO;
        }
        if let Some(&v) = memo.get(&r.n) {
            self.apply_hits += 1;
            return self.mul_ref(v, r.w);
        }
        assert!(!r.is_terminal(), "diagram ends before block {block}");
        let n = self.node(r.n);
        let unit = NodeRef { w: W_ONE, n: r.n };
        let out = if n.var >= block * BLOCK_BITS {
            debug_assert_eq!(n.var, block * BLOCK_BITS, "entry not at block start");
            let below = self.descend(unit, old_id);
            self.encode(block, new_id, below)
        } else {
            let lo = self.replace_rec(n.lo, block, old_id, new_id, memo);
            let hi = self.replace_rec(n.hi, block, old_id, new_id, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(r.n, out);
        self.mul_ref(out, r.w)
    }

    /// Decodes every path of `root` into its per-block id vector and path
    /// weight. Used to read terminal posteriors back out.
    pub fn enumerate(&mut self, root: NodeRef, out: &mut Vec<(Vec<u32>, Rat)>) {
        let mut prefix = Vec::new();
        self.enum_rec(root, &mut prefix, out);
    }

    fn enum_rec(&mut self, r: NodeRef, prefix: &mut Vec<u32>, out: &mut Vec<(Vec<u32>, Rat)>) {
        if r == NodeRef::ZERO {
            return;
        }
        if r.is_terminal() {
            out.push((prefix.clone(), self.weights[r.w as usize].clone()));
            return;
        }
        debug_assert_eq!(
            self.node(r.n).var % BLOCK_BITS,
            0,
            "enumerate must start at a block boundary"
        );
        let mut pairs = Vec::new();
        self.decode_entry(r, &mut pairs);
        for (id, below) in pairs {
            prefix.push(id);
            self.enum_rec(below, prefix, out);
            prefix.pop();
        }
    }

    /// Low-level hash-consed node constructor, exposed for engine-side
    /// batched transforms that rebuild a diagram's prefix while rewriting a
    /// block. Callers must preserve the block discipline: children of
    /// `var` belong to `var + 1` (or the next block boundary / a terminal),
    /// and both-`ZERO` children collapse to `ZERO` automatically.
    pub fn mk_node(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        self.mk(var, lo, hi)
    }

    /// The `(var, lo, hi)` of a decision ref, with the ref's edge weight
    /// multiplied into both children; `None` for terminals.
    pub fn children(&mut self, r: NodeRef) -> Option<(u32, NodeRef, NodeRef)> {
        if r.is_terminal() {
            return None;
        }
        let n = self.node(r.n);
        let lo = self.mul_ref(n.lo, r.w);
        let hi = self.mul_ref(n.hi, r.w);
        Some((n.var, lo, hi))
    }

    /// The structure identity of a ref, ignoring its edge weight. Two refs
    /// with equal `structure` represent proportional weight functions —
    /// engine transform memos key on this and rescale (every engine
    /// transform is linear in the weight).
    pub fn structure(&self, r: NodeRef) -> u32 {
        r.n
    }

    /// Drops a ref's edge weight (the canonical weight-one representative
    /// of its proportionality class).
    pub fn unit(&self, r: NodeRef) -> NodeRef {
        NodeRef { w: W_ONE, n: r.n }
    }

    /// The edge weight a ref carries on top of its [`Store::unit`]
    /// structure, as an interned id usable with [`Store::rescale`].
    pub fn edge_weight(&self, r: NodeRef) -> u32 {
        r.w
    }

    /// Multiplies a ref by a previously observed edge weight id — O(1).
    pub fn rescale(&mut self, r: NodeRef, w: u32) -> NodeRef {
        self.mul_ref(r, w)
    }

    /// Decodes every `(id, below)` pair stored under a block-entry ref (a
    /// ref whose variable is the first bit of its block).
    pub fn decode_block(&mut self, entry: NodeRef) -> Vec<(u32, NodeRef)> {
        let mut out = Vec::new();
        self.decode_entry(entry, &mut out);
        out
    }

    /// Current hash-consing counters.
    pub fn counters(&self) -> Counters {
        Counters {
            nodes: self.nodes.len() as u64,
            unique_hits: self.unique_hits,
            apply_cache_hits: self.apply_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: i64) -> Rat {
        Rat::ratio(n, d)
    }

    /// Builds the one-path diagram for an id vector with the given mass.
    fn chain(s: &mut Store, ids: &[u32], mass: Rat) -> NodeRef {
        let mut cur = s.terminal(mass);
        for (block, &id) in ids.iter().enumerate().rev() {
            cur = s.encode(block as u32, id, cur);
        }
        cur
    }

    #[test]
    fn encode_then_enumerate_roundtrips() {
        let mut s = Store::new();
        let a = chain(&mut s, &[0, 7, 2], rat(1, 3));
        let mut out = Vec::new();
        s.enumerate(a, &mut out);
        assert_eq!(out, vec![(vec![0, 7, 2], rat(1, 3))]);
    }

    #[test]
    fn canonical_by_construction() {
        let mut s = Store::new();
        // The same weight function assembled in two different orders is the
        // same ref (weights included).
        let a1 = chain(&mut s, &[1, 4], rat(1, 2));
        let a2 = chain(&mut s, &[3, 4], rat(1, 4));
        let left = s.add(a1, a2);
        let b1 = chain(&mut s, &[3, 4], rat(1, 4));
        let b2 = chain(&mut s, &[1, 4], rat(1, 2));
        let right = s.add(b1, b2);
        assert_eq!(left, right);
        // And a diagram summed with ZERO is untouched.
        assert_eq!(s.add(left, NodeRef::ZERO), left);
    }

    #[test]
    fn add_merges_identical_paths_by_weight() {
        let mut s = Store::new();
        let a = chain(&mut s, &[2, 2], rat(1, 6));
        let b = chain(&mut s, &[2, 2], rat(1, 3));
        let sum = s.add(a, b);
        let mut out = Vec::new();
        s.enumerate(sum, &mut out);
        assert_eq!(out, vec![(vec![2, 2], rat(1, 2))]);
        assert_eq!(s.paths(sum), 1);
        // Identical structure merges without touching the arena.
        assert_eq!(s.structure(a), s.structure(sum));
    }

    #[test]
    fn mass_is_the_weighted_model_count() {
        let mut s = Store::new();
        let mut acc = NodeRef::ZERO;
        for (ids, m) in [
            ([0, 1], rat(1, 4)),
            ([5, 1], rat(1, 4)),
            ([0, 9], rat(1, 2)),
        ] {
            let p = chain(&mut s, &ids, m);
            acc = s.add(acc, p);
        }
        assert_eq!(s.mass(acc), Rat::one());
        assert_eq!(s.paths(acc), 3);
        assert_eq!(s.ids_at_block(acc, 0), vec![0, 5]);
        assert_eq!(s.ids_at_block(acc, 1), vec![1, 9]);
    }

    #[test]
    fn mixed_code_lengths_share_a_block() {
        // Gamma codes are prefix-free: ids 0 (1 bit) and 100 (13 bits) in
        // the same block must decode independently.
        let mut s = Store::new();
        let a = chain(&mut s, &[0], rat(1, 2));
        let b = chain(&mut s, &[100], rat(1, 2));
        let sum = s.add(a, b);
        assert_eq!(s.ids_at_block(sum, 0), vec![0, 100]);
        assert_eq!(s.mass(sum), Rat::one());
    }

    #[test]
    fn replace_block_restricts_and_rewrites() {
        let mut s = Store::new();
        let a = chain(&mut s, &[1, 5], rat(1, 2));
        let b = chain(&mut s, &[2, 5], rat(1, 2));
        let sum = s.add(a, b);
        // Restrict to id 1 at block 0 and rewrite it to 9.
        let moved = s.replace_block(sum, 0, 1, 9);
        let mut out = Vec::new();
        s.enumerate(moved, &mut out);
        assert_eq!(out, vec![(vec![9, 5], rat(1, 2))]);
        // Restriction to an absent id is ZERO.
        assert_eq!(s.replace_block(sum, 0, 7, 7), NodeRef::ZERO);
        // Pure restriction keeps the id (and the exact path weight).
        let kept = s.replace_block(sum, 0, 2, 2);
        assert_eq!(kept, b);
    }

    #[test]
    fn replace_preserves_untouched_blocks() {
        let mut s = Store::new();
        let mut acc = NodeRef::ZERO;
        for id0 in [0u32, 3, 17] {
            let p = chain(&mut s, &[id0, 4, 8], rat(1, 3));
            acc = s.add(acc, p);
        }
        let out = s.replace_block(acc, 1, 4, 11);
        assert_eq!(s.ids_at_block(out, 0), vec![0, 3, 17]);
        assert_eq!(s.ids_at_block(out, 1), vec![11]);
        assert_eq!(s.ids_at_block(out, 2), vec![8]);
        assert_eq!(s.mass(out), Rat::one());
    }

    #[test]
    fn scale_multiplies_every_path_weight() {
        let mut s = Store::new();
        let a = chain(&mut s, &[1, 2], rat(1, 2));
        let b = chain(&mut s, &[3, 2], rat(1, 3));
        let sum = s.add(a, b);
        let before = s.counters().nodes;
        let scaled = s.scale(sum, &rat(1, 5));
        // O(1): scaling allocates no structure.
        assert_eq!(s.counters().nodes, before);
        assert_eq!(s.mass(scaled), rat(1, 6));
        let mut out = Vec::new();
        s.enumerate(scaled, &mut out);
        assert_eq!(
            out,
            vec![(vec![1, 2], rat(1, 10)), (vec![3, 2], rat(1, 15))]
        );
        // Scaling by one is the identity ref, not just an equal value.
        assert_eq!(s.scale(sum, &Rat::one()), sum);
    }

    #[test]
    fn counters_reflect_consing() {
        let mut s = Store::new();
        let a = chain(&mut s, &[1, 2, 3], rat(1, 2));
        let before = s.counters();
        // Rebuilding the same chain allocates nothing new.
        let b = chain(&mut s, &[1, 2, 3], rat(1, 2));
        let after = s.counters();
        assert_eq!(a, b);
        assert_eq!(before.nodes, after.nodes);
        assert!(after.unique_hits > before.unique_hits);
    }

    #[test]
    fn weight_normalization_shares_structure() {
        // The same *shape* with proportional weights shares all structure:
        // only the root edge weight differs.
        let mut s = Store::new();
        let a = chain(&mut s, &[4, 6], rat(1, 2));
        let b = chain(&mut s, &[4, 6], rat(1, 7));
        assert_eq!(s.structure(a), s.structure(b));
        assert_ne!(a, b);
        assert_eq!(s.unit(a), s.unit(b));
        let w = s.edge_weight(b);
        assert_eq!(s.rescale(s.unit(a), w), b);
    }
}
