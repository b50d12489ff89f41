//! Exploration-memo differential suite. A service that kept a program's
//! exploration under one binding must answer any other binding with
//! exactly the bytes a fresh service returns, for every curated example
//! and 200 generated programs; programs whose handlers read a parameter
//! must never be kept; and over HTTP, a second binding of
//! `gossip_k4_sweep.bay` must cost no exploration and no result-cache hit.

use std::fs;
use std::path::PathBuf;

use bayonet_lang::{parse, testgen::ProgramGen};
use bayonet_net::compile;
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

/// Runs A, then B, then A again on one service with the result cache off,
/// and checks each answer against a fresh service. Returns the warm
/// service's memo hits and kept bytes.
fn assert_reuse_matches_fresh(label: &str, source: &str, a: &Binding, b: &Binding) -> (u64, u64) {
    let warm = Service::new(0);
    let fresh = |body: &str| post(&Service::new(0), body);
    for (step, binding) in [("A", a), ("B", b), ("A again", a)] {
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
    let hits = metric(&text, "bayonet_exploration_memo_hits_total");
    let misses = metric(&text, "bayonet_exploration_memo_misses_total");
    assert_eq!(hits + misses, 3, "{label}: every run consults the memo");
    (hits, metric(&text, "bayonet_exploration_memo_bytes"))
}

#[test]
fn every_example_answers_a_new_binding_like_a_fresh_service() {
    // Valid for every declared parameter in the curated set: probabilities
    // for `P_LOSS`, plain rationals for costs and thresholds.
    let values = ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"];
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for (name, source) in example_sources() {
        let (a, b) = two_bindings(&source, &values, &mut rng);
        let (hits, bytes) = assert_reuse_matches_fresh(&name, &source, &a, &b);
        match name.as_str() {
            // Handlers read these parameters: a guard on the ECMP costs, a
            // `flip` on the loss rate. Each run trips the watch.
            "ecmp_costs.bay" | "fattree_k4.bay" | "lossy_link.bay" => {
                assert_eq!(
                    (hits, bytes),
                    (0, 0),
                    "{name}: a parameter-reading program was kept"
                )
            }
            // Only the query reads `K`, and the others declare none: the
            // first run is kept and answers the next two.
            _ => assert_eq!(hits, 2, "{name}: a parameter-blind program was not reused"),
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
        match assert_reuse_matches_fresh(&format!("seed {seed}"), &source, &a, &b) {
            (0, _) => not_reused += 1,
            _ => reused += 1,
        }
    }
    assert!(reused > 0, "no generated program was reused");
    assert!(not_reused > 0, "every generated program was reused");
}

/// Over HTTP, on a fresh server: `K=2` explores, `K=3` answers from the
/// kept exploration. The engine counters show one exploration, the memo
/// one hit, and the result cache no hit.
#[test]
fn second_binding_over_http_costs_no_exploration() {
    let source = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/bay/gossip_k4_sweep.bay"
    ))
    .expect("example");
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let mut expansions = Vec::new();
    for k in ["2", "3"] {
        let body = run_body(&source, &[("K".to_string(), k.to_string())]);
        let (status, _, payload) = http(addr, "POST", "/v1/run", &body);
        assert_eq!(status, 200, "{payload}");
        let doc = parse_json(&payload).expect("json body");
        let stats = doc.get("stats").expect("stats");
        expansions.push(stats.get("expansions").and_then(Json::as_u64).unwrap());
    }
    // Byte-identical responses report the same exploration both times.
    assert_eq!(expansions[0], expansions[1]);
    assert!(expansions[0] > 0);

    let text = common::metrics(addr);
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        expansions[0],
        "the second binding explored again"
    );
    assert_eq!(metric(&text, "bayonet_exploration_memo_hits_total"), 1);
    assert_eq!(metric(&text, "bayonet_exploration_memo_misses_total"), 1);
    assert!(metric(&text, "bayonet_exploration_memo_bytes") > 0);
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 0);
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 2);
    handle.shutdown();
}
