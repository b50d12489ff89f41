//! Exploration-memo differential suite. A service that kept a program's
//! exploration under one binding must answer any other binding with
//! exactly the bytes a fresh service returns — errors included — for every
//! curated example and for 200 generated programs of each kind (a
//! parameter in a threshold, a parameter inside `flip`). Parameter-blind
//! programs are reused whole; programs whose `flip`s read a parameter
//! (`fattree_k4.bay`, `lossy_link.bay`) are re-weighed unless a binding
//! changes the DAG's shape; ECMP, whose costs land in node state, falls
//! back after one failed check. Over HTTP, a second binding of
//! `gossip_k4_sweep.bay` or `fattree_k4.bay` costs no exploration and no
//! result-cache hit.

use std::fs;
use std::path::PathBuf;

use bayonet_lang::{parse, testgen::ProgramGen};
use bayonet_net::compile;
use bayonet_num::Rat;
use bayonet_serve::{parse_json, start, Json, Request, Service};

mod common;
use common::{http, metric};

fn example_sources() -> Vec<(String, String)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/bay"));
    let mut out: Vec<(String, String)> = fs::read_dir(dir)
        .expect("examples/bay exists")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            (path.extension()? == "bay").then(|| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read_to_string(&path).expect("readable example"))
            })
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no example programs found");
    out
}

/// A small deterministic generator (xorshift64*), so every run draws the
/// same bindings.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// One binding: parameter name and value.
type Binding = Vec<(String, String)>;

/// Two different random bindings `(A, B)` of every parameter `source`
/// declares, each value drawn from `values`. A program without parameters
/// gets two empty bindings.
fn two_bindings(source: &str, values: &[&str], rng: &mut Rng) -> (Binding, Binding) {
    let model = compile(&parse(source).expect("parses")).expect("compiles");
    let names: Vec<String> = model
        .params
        .iter()
        .map(|id| model.params.name(id).to_string())
        .collect();
    let draw =
        |rng: &mut Rng| -> Vec<usize> { names.iter().map(|_| rng.below(values.len())).collect() };
    let a = draw(rng);
    let mut b = draw(rng);
    while !names.is_empty() && a == b {
        b = draw(rng);
    }
    let binding = |picks: &[usize]| {
        names
            .iter()
            .zip(picks)
            .map(|(name, &i)| (name.clone(), values[i].to_string()))
            .collect()
    };
    (binding(&a), binding(&b))
}

/// The `/v1/run` body for `source` under `binding`, on the enumeration
/// engine.
fn run_body(source: &str, binding: &[(String, String)]) -> String {
    let pairs = binding
        .iter()
        .map(|(name, value)| (name.clone(), Json::Str(value.clone())))
        .collect();
    Json::obj(vec![
        ("source", Json::Str(source.into())),
        ("engine", Json::Str("exact".into())),
        ("bindings", Json::Obj(pairs)),
    ])
    .to_string()
}

fn post(svc: &Service, body: &str) -> (u16, Vec<u8>) {
    let resp = svc.handle(&Request {
        method: "POST".into(),
        path: "/v1/run".into(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    (resp.status, resp.body)
}

/// What the warm service's memo did over a sequence of runs.
#[derive(Debug, PartialEq)]
struct Memo {
    hits: u64,
    reweighs: u64,
    fallbacks: u64,
    bytes: u64,
}

/// Runs `bindings` in order on one service with the result cache off, and
/// checks each answer against a fresh service. Returns what the warm
/// service's memo did.
fn assert_sequence_matches_fresh(label: &str, source: &str, bindings: &[&Binding]) -> Memo {
    let warm = Service::new(0);
    let fresh = |body: &str| post(&Service::new(0), body);
    for (step, binding) in bindings.iter().enumerate() {
        let body = run_body(source, binding);
        let got = post(&warm, &body);
        let want = fresh(&body);
        assert_eq!(
            got,
            want,
            "{label}: binding {step} ({body}) differs from a fresh service:\n{}\nvs\n{}",
            String::from_utf8_lossy(&got.1),
            String::from_utf8_lossy(&want.1)
        );
    }
    let text = warm.metrics().render();
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 0, "{label}");
    let memo = Memo {
        hits: metric(&text, "bayonet_exploration_memo_hits_total"),
        reweighs: metric(&text, "bayonet_exploration_memo_reweighs_total"),
        fallbacks: metric(&text, "bayonet_exploration_memo_shape_fallbacks_total"),
        bytes: metric(&text, "bayonet_exploration_memo_bytes"),
    };
    let misses = metric(&text, "bayonet_exploration_memo_misses_total");
    assert_eq!(
        memo.hits + misses,
        bindings.len() as u64,
        "{label}: every run consults the memo"
    );
    memo
}

/// Runs A, then B, then A again (see [`assert_sequence_matches_fresh`]).
fn assert_reuse_matches_fresh(label: &str, source: &str, a: &Binding, b: &Binding) -> Memo {
    assert_sequence_matches_fresh(label, source, &[a, b, a])
}

/// The value `binding` gives `name`, as a rational.
fn value(binding: &Binding, name: &str) -> Rat {
    let (_, v) = binding.iter().find(|(n, _)| n == name).expect("bound");
    v.parse().expect("a rational")
}

#[test]
fn every_example_answers_a_new_binding_like_a_fresh_service() {
    // Valid for every declared parameter in the curated set: probabilities
    // for `P_LOSS`, plain rationals for costs and thresholds.
    let values = ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"];
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for (name, source) in example_sources() {
        let (a, b) = two_bindings(&source, &values, &mut rng);
        let memo = assert_reuse_matches_fresh(&name, &source, &a, &b);
        match name.as_str() {
            // Only a `flip(P_LOSS)` reads the parameter: the DAG is kept
            // and re-weighed for B and A again. A `flip` of 0 or 1 does not
            // branch, so such a binding changes the shape: one fallback,
            // then every run explores.
            "fattree_k4.bay" | "lossy_link.bay" => {
                let degenerate = |x: &Binding| {
                    let p = value(x, "P_LOSS");
                    p.is_zero() || p.is_one()
                };
                let (hits, fallbacks) = match degenerate(&a) || degenerate(&b) {
                    false => (2, 0),
                    true => (0, 1),
                };
                assert_eq!(
                    (memo.hits, memo.reweighs, memo.fallbacks),
                    (hits, hits, fallbacks),
                    "{name}: {a:?} then {b:?}"
                );
                assert_eq!(memo.bytes > 0, hits > 0, "{name}");
            }
            // The handlers store the route costs in node state: B reuses
            // the DAG only when it gives both routes the same costs as A.
            "ecmp_costs.bay" => {
                let routes = |x: &Binding| {
                    (
                        value(x, "COST_01"),
                        value(x, "COST_02") + value(x, "COST_21"),
                    )
                };
                let (hits, fallbacks) = match routes(&a) == routes(&b) {
                    true => (2, 0),
                    false => (0, 1),
                };
                assert_eq!(
                    (memo.hits, memo.reweighs, memo.fallbacks),
                    (hits, hits, fallbacks),
                    "{name}: {a:?} then {b:?}"
                );
            }
            // Only the query reads `K`, and the others declare none: the
            // first run is kept and answers the next two.
            _ => assert_eq!(
                (memo.hits, memo.reweighs),
                (2, 0),
                "{name}: a parameter-blind program was not reused"
            ),
        }
    }
}

#[test]
fn generated_programs_answer_a_new_binding_like_a_fresh_service() {
    // `PT` sits in the query threshold and, for some seeds, in a
    // forwarding guard: both the kept and the never-kept paths run.
    let values = ["0", "1", "2", "3"];
    let mut rng = Rng(0x5151_5151);
    let (mut reused, mut not_reused) = (0, 0);
    for seed in 0..200 {
        let source = ProgramGen::new_parameterized(seed).generate();
        let (a, b) = two_bindings(&source, &values, &mut rng);
        match assert_reuse_matches_fresh(&format!("seed {seed}"), &source, &a, &b).hits {
            0 => not_reused += 1,
            _ => reused += 1,
        }
    }
    assert!(reused > 0, "no generated program was reused");
    assert!(not_reused > 0, "every generated program was reused");
}

#[test]
fn generated_flip_programs_answer_a_new_binding_like_a_fresh_service() {
    // `PF` is a `flip` probability; 0 and 1 make those flips
    // deterministic, which changes the DAG's shape.
    let values = ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"];
    let mut rng = Rng(0x0f1f_2f3f);
    let (mut reweighed, mut fell_back) = (0, 0);
    for seed in 0..200 {
        let source = ProgramGen::new_flip_parameterized(seed).generate();
        let (a, b) = two_bindings(&source, &values, &mut rng);
        let memo = assert_reuse_matches_fresh(&format!("seed {seed}"), &source, &a, &b);
        assert_eq!(
            memo.hits, memo.reweighs,
            "seed {seed}: a flip program reused whole"
        );
        reweighed += memo.reweighs;
        fell_back += memo.fallbacks;
    }
    assert!(reweighed > 0, "no generated program was re-weighed");
    assert!(
        fell_back > 0,
        "no binding changed a generated program's shape"
    );
}

/// The binding `name = value`.
fn bind(name: &str, value: &str) -> Binding {
    vec![(name.to_string(), value.to_string())]
}

fn example(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/bay/");
    fs::read_to_string(format!("{dir}{name}")).expect("example")
}

#[test]
fn fattree_and_lossy_are_reweighed_on_their_second_and_third_bindings() {
    for name in ["fattree_k4.bay", "lossy_link.bay"] {
        let source = example(name);
        let [a, b, c] = ["1/4", "1/3", "1/2"].map(|v| bind("P_LOSS", v));
        let memo = assert_sequence_matches_fresh(name, &source, &[&a, &b, &c]);
        assert_eq!(
            (memo.hits, memo.reweighs, memo.fallbacks),
            (2, 2, 0),
            "{name}"
        );
        assert!(memo.bytes > 0, "{name}");
    }
}

#[test]
fn out_of_range_flips_after_a_kept_fattree_match_a_fresh_service() {
    // Each invalid probability fails the re-run of a `flip(P_LOSS)`: the
    // run falls back and reports the fresh exploration's error, byte for
    // byte. Later bindings explore afresh.
    let source = example("fattree_k4.bay");
    let [kept, over, under, valid] = ["1/4", "3/2", "-1/4", "1/3"].map(|v| bind("P_LOSS", v));
    let memo = assert_sequence_matches_fresh("fattree", &source, &[&kept, &over, &under, &valid]);
    assert_eq!((memo.hits, memo.fallbacks, memo.bytes), (0, 1, 0));
}

#[test]
fn an_ecmp_shape_change_falls_back_like_a_fresh_service() {
    // New costs are new node states: the re-weigh check fails once, and
    // every later binding explores as if nothing were kept.
    let source = example("ecmp_costs.bay");
    let costs = |c01: &str, c02: &str, c21: &str| -> Binding {
        [("COST_01", c01), ("COST_02", c02), ("COST_21", c21)]
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    };
    let (a, b, c) = (
        costs("1", "1", "1"),
        costs("3", "1", "1"),
        costs("2", "1", "1"),
    );
    let memo = assert_sequence_matches_fresh("ecmp", &source, &[&a, &b, &c, &a]);
    assert_eq!((memo.hits, memo.fallbacks, memo.bytes), (0, 1, 0));
    // Other costs that give both routes the same costs are the same DAG.
    let same_routes = costs("1", "3/2", "1/2");
    let memo = assert_sequence_matches_fresh("ecmp", &source, &[&a, &same_routes]);
    assert_eq!((memo.hits, memo.reweighs, memo.fallbacks), (1, 1, 0));
}

/// Over HTTP, on a fresh server: `K=2` explores, `K=3` answers from the
/// kept exploration; likewise `P_LOSS=1/4` and `1/3` of the fat tree,
/// whose second binding re-weighs the kept DAG. The engine counters show
/// one exploration, the memo one hit, and the result cache no hit.
#[test]
fn second_binding_over_http_costs_no_exploration() {
    let cases = [
        ("gossip_k4_sweep.bay", "K", ["2", "3"], 0),
        ("fattree_k4.bay", "P_LOSS", ["1/4", "1/3"], 1),
    ];
    for (name, param, values, reweighs) in cases {
        let source = example(name);
        let handle = start(common::test_config()).expect("start server");
        let addr = handle.addr();
        let mut expansions = Vec::new();
        for value in values {
            let body = run_body(&source, &bind(param, value));
            let (status, _, payload) = http(addr, "POST", "/v1/run", &body);
            assert_eq!(status, 200, "{name}: {payload}");
            let doc = parse_json(&payload).expect("json body");
            let stats = doc.get("stats").expect("stats");
            expansions.push(stats.get("expansions").and_then(Json::as_u64).unwrap());
        }
        // Byte-identical responses report the same exploration both times.
        assert_eq!(expansions[0], expansions[1], "{name}");
        assert!(expansions[0] > 0, "{name}");

        let text = common::metrics(addr);
        assert_eq!(
            metric(&text, "bayonet_engine_expansions_total"),
            expansions[0],
            "{name}: the second binding explored again"
        );
        assert_eq!(metric(&text, "bayonet_exploration_memo_hits_total"), 1);
        assert_eq!(
            metric(&text, "bayonet_exploration_memo_reweighs_total"),
            reweighs
        );
        assert_eq!(metric(&text, "bayonet_exploration_memo_misses_total"), 1);
        assert!(metric(&text, "bayonet_exploration_memo_bytes") > 0);
        assert_eq!(metric(&text, "bayonet_cache_hits_total"), 0);
        assert_eq!(metric(&text, "bayonet_cache_misses_total"), 2);
        handle.shutdown();
    }
}
