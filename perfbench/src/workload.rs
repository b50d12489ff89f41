//! The three workloads: seeded, reproducible request streams.
//!
//! Everything a request carries (program mix, order, bindings, SMC seeds)
//! comes from the workload seed, so one seed always yields a byte-identical
//! stream. Request classes come in fixed blocks whose order the seed
//! shuffles: the class weights are exact over every block, which keeps the
//! p50 and p90 ranks inside one class's latency band on every seed.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::oracle::Q;

/// One of the curated example programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prog {
    /// `gossip_k4_sweep.bay`: gossip on K4 with a threshold parameter `K`.
    GossipK,
    /// `gossip_k4.bay`.
    Gossip,
    /// `ecmp_costs.bay`: the paper's Section 2 network with OSPF costs.
    Ecmp,
    /// `fattree_k4.bay`: a k=4 fat-tree with a lossy core.
    Fattree,
    /// `lossy_link.bay`.
    Lossy,
    /// `firewall_nat.bay`.
    Firewall,
    /// `ttl_triangle.bay`.
    Ttl,
}

impl Prog {
    pub fn source(self) -> &'static str {
        match self {
            Prog::GossipK => include_str!("../../examples/bay/gossip_k4_sweep.bay"),
            Prog::Gossip => include_str!("../../examples/bay/gossip_k4.bay"),
            Prog::Ecmp => include_str!("../../examples/bay/ecmp_costs.bay"),
            Prog::Fattree => include_str!("../../examples/bay/fattree_k4.bay"),
            Prog::Lossy => include_str!("../../examples/bay/lossy_link.bay"),
            Prog::Firewall => include_str!("../../examples/bay/firewall_nat.bay"),
            Prog::Ttl => include_str!("../../examples/bay/ttl_triangle.bay"),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Prog::GossipK => "gossip",
            Prog::Gossip => "gossip_k4",
            Prog::Ecmp => "ecmp",
            Prog::Fattree => "fattree",
            Prog::Lossy => "lossy",
            Prog::Firewall => "firewall",
            Prog::Ttl => "ttl",
        }
    }
}

/// Fixed SMC settings of one item; `seed` is drawn from the workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Smc {
    pub particles: usize,
    pub seed: u64,
}

/// One inference: a program, its bindings, and the engine (`auto` unless
/// `smc` is set).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    pub prog: Prog,
    pub bindings: Vec<(&'static str, Q)>,
    pub smc: Option<Smc>,
}

/// What one HTTP request asks for.
#[derive(Clone, Debug)]
pub enum Work {
    /// `POST /v1/run` with `"engine": "auto"`.
    Run(Item),
    /// `POST /v1/sweep` over one parameter; one answer per point.
    Sweep {
        prog: Prog,
        param: &'static str,
        points: Vec<Q>,
    },
    /// `POST /v1/batch`, with one shared top-level source or per-item ones.
    Batch {
        shared: Option<Prog>,
        items: Vec<Item>,
    },
}

/// One request of a stream, with its rendered body.
#[derive(Clone, Debug)]
pub struct Req {
    /// Latency class (a label for the README's band argument).
    pub class: &'static str,
    pub work: Work,
    pub body: String,
}

impl Req {
    pub fn new(class: &'static str, work: Work) -> Req {
        let body = render(&work);
        Req { class, work, body }
    }

    pub fn path(&self) -> &'static str {
        match self.work {
            Work::Run(_) => "/v1/run",
            Work::Sweep { .. } => "/v1/sweep",
            Work::Batch { .. } => "/v1/batch",
        }
    }

    /// Answers this request yields: one run result, batch-item frame or
    /// sweep-point frame each.
    pub fn answers(&self) -> usize {
        match &self.work {
            Work::Run(_) => 1,
            Work::Sweep { points, .. } => points.len(),
            Work::Batch { items, .. } => items.len(),
        }
    }

    /// The item whose answer frame `index` must carry.
    pub fn item(&self, index: usize) -> Option<Item> {
        match &self.work {
            Work::Run(item) => (index == 0).then(|| item.clone()),
            Work::Batch { items, .. } => items.get(index).cloned(),
            Work::Sweep {
                prog,
                param,
                points,
            } => points.get(index).map(|p| Item {
                prog: *prog,
                bindings: vec![(*param, *p)],
                smc: None,
            }),
        }
    }
}

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RunMiss,
    SweepBatch,
    BatchHit,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "run_miss" => Some(Kind::RunMiss),
            "sweep_batch" => Some(Kind::SweepBatch),
            "batch_hit" => Some(Kind::BatchHit),
            _ => None,
        }
    }

    /// Whether the server's result cache answers the measured window
    /// (reads) rather than missing on every lookup (inserts).
    pub fn hits_cache(self) -> bool {
        self == Kind::BatchHit
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next_u64() % (hi - lo) as u64) as i128
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Denominator of fresh gossip thresholds (prime, so every numerator gives
/// a distinct value).
const K_DEN: i128 = 10_007;
/// Denominator of fresh loss probabilities (prime, as above).
const P_DEN: i128 = 100_003;
/// Particles of every SMC item.
const SMC_PARTICLES: usize = 300;
/// Items of one `batch_hit` request, by program; 64 in all.
const HIT_MIX: [(Prog, usize); 7] = [
    (Prog::Fattree, 10),
    (Prog::Ecmp, 10),
    (Prog::GossipK, 10),
    (Prog::Lossy, 10),
    (Prog::Gossip, 8),
    (Prog::Firewall, 8),
    (Prog::Ttl, 8),
];

/// An endless request stream for one workload and seed.
pub struct Stream {
    kind: Kind,
    rng: Rng,
    /// Every binding handed out so far, so cache-miss streams never repeat
    /// one.
    used: HashSet<(Prog, Vec<(&'static str, Q)>)>,
    block: Vec<&'static str>,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64) -> Stream {
        Stream {
            kind,
            rng: Rng::new(seed),
            used: HashSet::new(),
            block: Vec::new(),
        }
    }

    /// The warm-up: for `batch_hit` every distinct item the stream will
    /// draw (so the window only reads the cache), otherwise the stream's
    /// first requests. Sized so process spawn is a small share of set-up.
    pub fn warmup(&mut self) -> Vec<Req> {
        match self.kind {
            Kind::BatchHit => {
                let fill = Work::Batch {
                    shared: None,
                    items: hit_universe(),
                };
                let mut reqs = vec![Req::new("warmup", fill)];
                reqs.push(self.next_req());
                reqs
            }
            Kind::RunMiss => (0..20).map(|_| self.next_req()).collect(),
            Kind::SweepBatch => (0..10).map(|_| self.next_req()).collect(),
        }
    }

    pub fn next_req(&mut self) -> Req {
        if self.block.is_empty() {
            self.block = match self.kind {
                // Per 20 requests: 40% gossip, 20% ECMP, 30% fat-tree,
                // 10% lossy link. ECMP costs run slower in the order
                // lt < gt < eq, so two of its four requests are gt and the
                // p50 rank (ranks 45%..55% are gt) sits inside one band.
                Kind::RunMiss => [
                    ["gossip"; 8].as_slice(),
                    &["ecmp_lt", "ecmp_gt", "ecmp_gt", "ecmp_eq"],
                    &["fattree"; 6],
                    &["lossy"; 2],
                ]
                .concat(),
                Kind::SweepBatch => [
                    ["sweep_gossip"; 3].as_slice(),
                    &["sweep_fattree"; 3],
                    &["batch_fattree"; 4],
                ]
                .concat(),
                Kind::BatchHit => vec!["batch_hit"],
            };
            self.rng.shuffle(&mut self.block);
        }
        let class = self.block.pop().expect("refilled above");
        let work = match class {
            "gossip" => Work::Run(self.fresh(Prog::GossipK, None)),
            "fattree" => Work::Run(self.fresh(Prog::Fattree, None)),
            "lossy" => Work::Run(self.fresh(Prog::Lossy, None)),
            "ecmp_lt" => Work::Run(self.fresh_ecmp(-1)),
            "ecmp_eq" => Work::Run(self.fresh_ecmp(0)),
            "ecmp_gt" => Work::Run(self.fresh_ecmp(1)),
            "sweep_gossip" => self.fresh_sweep(Prog::GossipK, "K"),
            "sweep_fattree" => self.fresh_sweep(Prog::Fattree, "P_LOSS"),
            "batch_fattree" => {
                let mut items: Vec<Item> =
                    (0..8).map(|_| self.fresh(Prog::Fattree, None)).collect();
                for _ in 0..4 {
                    let smc = Smc {
                        particles: SMC_PARTICLES,
                        seed: self.rng.next_u64() >> 32,
                    };
                    items.push(self.fresh(Prog::Fattree, Some(smc)));
                }
                Work::Batch {
                    shared: Some(Prog::Fattree),
                    items,
                }
            }
            "batch_hit" => {
                let universe = hit_universe();
                let mut items = Vec::with_capacity(64);
                for (prog, count) in HIT_MIX {
                    let choices: Vec<&Item> = universe.iter().filter(|i| i.prog == prog).collect();
                    for _ in 0..count {
                        let pick = self.rng.next_u64() as usize % choices.len();
                        items.push(choices[pick].clone());
                    }
                }
                self.rng.shuffle(&mut items);
                Work::Batch {
                    shared: None,
                    items,
                }
            }
            other => unreachable!("unknown class {other}"),
        };
        Req::new(class, work)
    }

    /// A fresh value of `param` for `prog`: a threshold around 1..5 for
    /// gossip, a loss probability in [1/20, 19/20) otherwise.
    fn draw(&mut self, param: &'static str) -> Q {
        match param {
            "K" => Q::new(self.rng.range(K_DEN / 2, 5 * K_DEN), K_DEN),
            _ => Q::new(self.rng.range(P_DEN / 20, P_DEN * 19 / 20), P_DEN),
        }
    }

    fn claim(&mut self, prog: Prog, bindings: &[(&'static str, Q)]) -> bool {
        self.used.insert((prog, bindings.to_vec()))
    }

    fn fresh(&mut self, prog: Prog, smc: Option<Smc>) -> Item {
        let param = if prog == Prog::GossipK { "K" } else { "P_LOSS" };
        loop {
            let bindings = vec![(param, self.draw(param))];
            if self.claim(prog, &bindings) {
                return Item {
                    prog,
                    bindings,
                    smc,
                };
            }
        }
    }

    /// Fresh ECMP costs with `COST_01 - (COST_02 + COST_21)` of the given
    /// sign.
    fn fresh_ecmp(&mut self, sign: i128) -> Item {
        loop {
            let c02 = self.rng.range(1, 1000);
            let c21 = self.rng.range(1, 1000);
            let detour = c02 + c21;
            let c01 = match sign {
                -1 => self.rng.range(1, detour),
                0 => detour,
                _ => detour + self.rng.range(1, 1000),
            };
            let bindings = vec![
                ("COST_01", Q::int(c01)),
                ("COST_02", Q::int(c02)),
                ("COST_21", Q::int(c21)),
            ];
            if self.claim(Prog::Ecmp, &bindings) {
                return Item {
                    prog: Prog::Ecmp,
                    bindings,
                    smc: None,
                };
            }
        }
    }

    /// Sixteen fresh points of `param`.
    fn fresh_sweep(&mut self, prog: Prog, param: &'static str) -> Work {
        let points = (0..16)
            .map(|_| self.fresh(prog, None).bindings[0].1)
            .collect();
        Work::Sweep {
            prog,
            param,
            points,
        }
    }
}

/// Every distinct item a `batch_hit` request draws from: the curated
/// corpus, each parameterized program at a few fixed bindings.
pub fn hit_universe() -> Vec<Item> {
    let item = |prog, bindings: Vec<(&'static str, Q)>| Item {
        prog,
        bindings,
        smc: None,
    };
    let mut items = Vec::new();
    for k in 1..=5 {
        items.push(item(Prog::GossipK, vec![("K", Q::int(k))]));
    }
    for c01 in 1..=3 {
        let costs = vec![
            ("COST_01", Q::int(c01)),
            ("COST_02", Q::int(1)),
            ("COST_21", Q::int(1)),
        ];
        items.push(item(Prog::Ecmp, costs));
    }
    for d in [4, 3, 2] {
        items.push(item(Prog::Fattree, vec![("P_LOSS", Q::new(1, d))]));
        items.push(item(Prog::Lossy, vec![("P_LOSS", Q::new(1, d))]));
    }
    for prog in [Prog::Gossip, Prog::Firewall, Prog::Ttl] {
        items.push(item(prog, Vec::new()));
    }
    items
}

/// Renders `s` as a JSON string literal.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_bindings(out: &mut String, bindings: &[(&'static str, Q)]) {
    out.push('{');
    for (i, (name, value)) in bindings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":\"{value}\"");
    }
    out.push('}');
}

/// The item's fields; the source only when `with_source`.
fn render_item(out: &mut String, item: &Item, with_source: bool) {
    out.push('{');
    if with_source {
        out.push_str("\"source\":");
        json_str(out, item.prog.source());
        out.push(',');
    }
    match item.smc {
        Some(smc) => {
            let _ = write!(
                out,
                "\"engine\":\"smc\",\"particles\":{},\"seed\":{},",
                smc.particles, smc.seed
            );
        }
        None => out.push_str("\"engine\":\"auto\","),
    }
    out.push_str("\"bindings\":");
    render_bindings(out, &item.bindings);
    out.push('}');
}

/// The JSON request body of `work`.
pub fn render(work: &Work) -> String {
    let mut out = String::new();
    match work {
        Work::Run(item) => render_item(&mut out, item, true),
        Work::Sweep {
            prog,
            param,
            points,
        } => {
            out.push_str("{\"source\":");
            json_str(&mut out, prog.source());
            let _ = write!(out, ",\"sweep\":{{\"{param}\":[");
            for (i, p) in points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{p}\"");
            }
            out.push_str("]}}");
        }
        Work::Batch { shared, items } => {
            out.push('{');
            if let Some(prog) = shared {
                out.push_str("\"source\":");
                json_str(&mut out, prog.source());
                out.push(',');
            }
            out.push_str("\"items\":[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_item(&mut out, item, shared.is_none());
            }
            out.push_str("]}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(kind: Kind, seed: u64, n: usize) -> Vec<String> {
        let mut s = Stream::new(kind, seed);
        let mut out: Vec<String> = s.warmup().into_iter().map(|r| r.body).collect();
        out.extend((0..n).map(|_| s.next_req().body));
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for kind in [Kind::RunMiss, Kind::SweepBatch, Kind::BatchHit] {
            assert_eq!(bodies(kind, 7, 60), bodies(kind, 7, 60), "{kind:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_bindings() {
        for kind in [Kind::RunMiss, Kind::SweepBatch, Kind::BatchHit] {
            assert_ne!(bodies(kind, 7, 20), bodies(kind, 8, 20), "{kind:?}");
        }
    }

    #[test]
    fn miss_streams_never_repeat_a_binding() {
        for kind in [Kind::RunMiss, Kind::SweepBatch] {
            let mut s = Stream::new(kind, 3);
            let mut seen = HashSet::new();
            let mut reqs = s.warmup();
            reqs.extend((0..400).map(|_| s.next_req()));
            for req in &reqs {
                for i in 0..req.answers() {
                    let item = req.item(i).unwrap();
                    assert!(seen.insert((item.prog, item.bindings.clone())), "{item:?}");
                }
            }
        }
    }

    #[test]
    fn class_weights_are_exact_per_block() {
        let mut s = Stream::new(Kind::RunMiss, 11);
        let classes: Vec<&str> = (0..20).map(|_| s.next_req().class).collect();
        assert_eq!(classes.iter().filter(|c| **c == "gossip").count(), 8);
        assert_eq!(classes.iter().filter(|c| c.starts_with("ecmp")).count(), 4);
        assert_eq!(classes.iter().filter(|c| **c == "fattree").count(), 6);
        assert_eq!(classes.iter().filter(|c| **c == "lossy").count(), 2);
    }

    #[test]
    fn hit_batches_draw_only_warmed_items() {
        let universe = hit_universe();
        let mut s = Stream::new(Kind::BatchHit, 5);
        for _ in 0..10 {
            let req = s.next_req();
            assert_eq!(req.answers(), 64);
            for i in 0..64 {
                assert!(universe.contains(&req.item(i).unwrap()));
            }
        }
    }

    #[test]
    fn bodies_are_valid_json() {
        for kind in [Kind::RunMiss, Kind::SweepBatch, Kind::BatchHit] {
            for body in bodies(kind, 1, 10) {
                bayonet_serve::parse_json(&body).unwrap();
            }
        }
    }
}
