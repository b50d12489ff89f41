//! Perf-regression harness: the trajectory every perf PR is judged against.
//!
//! Times each pipeline phase — parse, compile, enumerate, query, synthesis —
//! over the curated `examples/bay` corpus plus generated scaling programs,
//! and emits a JSON report with per-phase medians over N trials and machine
//! info. Every workload is enumerated by **both** exact backends — frontier
//! enumeration and the `bayonet-bdd` knowledge-compilation engine — with the
//! FNV-1a answer digests asserted equal, so the report doubles as a
//! bit-identity witness while exposing the per-engine wall-clock trade-off
//! (`enumerate_ns` vs. `bdd_enumerate_ns`, summarized as `bdd_speedup`).
//! Each row also records the engine `engine: "auto"` picks for it
//! (`auto_engine`, planned on the optimized model exactly as `analyze`
//! plans it), that engine's time (`auto_enumerate_ns`), and how much
//! slower it is than the fastest exact engine (`auto_vs_best`, 1.0 when
//! the planner picked the winner).
//! A dedicated parameter-sweep workload (`gossip_k4_sweep16`) times a
//! 16-point grid both as independent pointwise runs and as one `sweep()`
//! call, asserts their digests identical, and reports the shared-prefix
//! speedup (`pointwise_ns` vs. `sweep_ns`, summarized as `sweep_speedup`);
//! both phases are gated by `--check` alongside the enumerate phases.
//! The report is self-validated by re-parsing it with the same JSON
//! parser the service uses, so CI can gate on "harness ran and produced
//! well-formed output" without gating on wall-clock numbers.
//!
//! Run with:
//!   cargo run --release -p bayonet-bench --bin regress -- --out BENCH_5.json
//!
//! Flags:
//!   --quick          single trial over the curated corpus only (CI smoke)
//!   --trials N       median over N trials (default 5)
//!   --out PATH       write the report to PATH (always printed to stdout)
//!   --baseline PATH  embed a prior report under "baseline" and compute
//!                    per-workload enumerate-phase speedups
//!   --check PATH     CI regression gate: exit 1 when any enumerate-phase
//!                    median (either backend) regresses more than 25% vs.
//!                    the committed baseline at PATH. Tune with
//!                    BAYONET_BENCH_TOLERANCE / BAYONET_BENCH_STRICT (see
//!                    `bayonet_bench::gate`). The same flag also fails when
//!                    any row's `auto_vs_best` exceeds 1.25 (rows whose
//!                    auto-routed time is under the gate's noise floor are
//!                    printed, not gated); that check needs no baseline, so
//!                    it runs on every host class.

use std::sync::Arc;
use std::time::Instant;

use bayonet::{parse, Network, Rat};
use bayonet_bench::gate;
use bayonet_bench::workloads::{self, curated, Workload};
use bayonet_exact::planner::choose_exact;
use bayonet_exact::{
    analyze, answer, answer_cached, sweep, synthesize_result, EngineKind, ExactOptions,
    FeasibilityCache, Objective, SynthesisOptions,
};
use bayonet_net::opt::optimize;
use bayonet_net::{scheduler_for, Model};
use bayonet_serve::{parse_json, Json};

/// Largest `auto_vs_best` the `--check` gate accepts: the auto-routed
/// engine may be at most this much slower than the fastest exact engine.
const MAX_AUTO_VS_BEST: f64 = 1.25;

/// One trial's phase timings (nanoseconds) plus determinism evidence.
/// The `bdd_*` fields come from re-enumerating the same compiled model
/// under the knowledge-compilation backend; `run_trial` asserts its
/// digest matches the enumeration digest before returning.
#[derive(Default)]
struct Trial {
    parse_ns: u64,
    compile_ns: u64,
    enumerate_ns: u64,
    query_ns: u64,
    bdd_enumerate_ns: u64,
    bdd_query_ns: u64,
    synthesis_ns: Option<u64>,
    feasibility_hits: u64,
    feasibility_misses: u64,
    answer_digest: u64,
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// FNV-1a over the rendered answers: a compact fingerprint proving the
/// posteriors are byte-identical between baseline and current runs.
fn fnv1a(acc: u64, text: &str) -> u64 {
    let mut h = if acc == 0 { 0xcbf2_9ce4_8422_2325 } else { acc };
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One engine's share of a trial: analyze, answer every query, and (when
/// the workload asks) synthesize — all timed, all folded into one digest.
struct EnginePass {
    enumerate_ns: u64,
    query_ns: u64,
    synthesis_ns: Option<u64>,
    feasibility_hits: u64,
    feasibility_misses: u64,
    digest: u64,
}

fn engine_pass(network: &Network, w: &Workload, engine: EngineKind) -> EnginePass {
    // One feasibility memo table per pass, shared across analyze and
    // query answering — the same sharing the serve request path uses.
    let cache = Arc::new(FeasibilityCache::new());
    let opts = ExactOptions {
        engine,
        feasibility_cache: Some(Arc::clone(&cache)),
        ..ExactOptions::default()
    };
    let start = Instant::now();
    let analysis = analyze(network.model(), network.scheduler(), &opts).expect("analyze");
    let enumerate_ns = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut results = Vec::new();
    for q in network.queries() {
        results.push(
            answer_cached(network.model(), &analysis, q, opts.fm_pruning, Some(&cache))
                .expect("answer"),
        );
    }
    let query_ns = start.elapsed().as_nanos() as u64;
    let (feasibility_hits, feasibility_misses) = cache.counts();
    let mut digest = 0u64;
    for r in &results {
        digest = fnv1a(digest, &r.to_string());
    }

    let mut synthesis_ns = None;
    if w.synthesize {
        let sopts = SynthesisOptions {
            objective: Objective::Maximize,
            positive_params: true,
        };
        let start = Instant::now();
        let syn = synthesize_result(network.model(), &results[0], sopts).expect("synthesize");
        synthesis_ns = Some(start.elapsed().as_nanos() as u64);
        digest = fnv1a(digest, &format!("{} {:?}", syn.constraint, syn.assignment));
    }

    EnginePass {
        enumerate_ns,
        query_ns,
        synthesis_ns,
        feasibility_hits,
        feasibility_misses,
        digest,
    }
}

fn run_trial(w: &Workload) -> Trial {
    let mut t = Trial::default();

    let start = Instant::now();
    let program = parse(&w.source).expect("parse");
    t.parse_ns = start.elapsed().as_nanos() as u64;
    drop(program);

    let start = Instant::now();
    let network = w.network();
    t.compile_ns = start.elapsed().as_nanos() as u64;

    let enumeration = engine_pass(&network, w, EngineKind::Enum);
    let diagrams = engine_pass(&network, w, EngineKind::Bdd);
    // The whole point of timing both: the answers must be bit-identical,
    // otherwise the speedup is comparing different computations.
    assert_eq!(
        enumeration.digest, diagrams.digest,
        "{}: enum and bdd posteriors diverge",
        w.name
    );

    t.enumerate_ns = enumeration.enumerate_ns;
    t.query_ns = enumeration.query_ns;
    t.bdd_enumerate_ns = diagrams.enumerate_ns;
    t.bdd_query_ns = diagrams.query_ns;
    t.synthesis_ns = enumeration.synthesis_ns;
    t.feasibility_hits = enumeration.feasibility_hits;
    t.feasibility_misses = enumeration.feasibility_misses;
    t.answer_digest = enumeration.digest;

    t
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// `a / b`, rounded to three decimals.
fn ratio(a: f64, b: f64) -> Json {
    Json::Num((a / b.max(1.0) * 1000.0).round() / 1000.0)
}

/// The routing fields of a row: the exact engine `engine: "auto"` runs on
/// `model` (planned on the optimized model when `passes` is on, as
/// `analyze` does), its measured enumerate time, and that time over the
/// fastest exact engine's.
fn auto_fields(
    model: &Model,
    passes: bool,
    enum_ns: u64,
    bdd_ns: u64,
) -> Vec<(&'static str, Json)> {
    let optimized;
    let planned = if passes {
        optimized = optimize(model);
        &optimized
    } else {
        model
    };
    let (engine, auto_ns) = match choose_exact(planned) {
        EngineKind::Bdd => ("bdd", bdd_ns),
        _ => ("enum", enum_ns),
    };
    vec![
        ("auto_engine", Json::Str(engine.to_string())),
        ("auto_enumerate_ns", num(auto_ns)),
        (
            "auto_vs_best",
            ratio(auto_ns as f64, enum_ns.min(bdd_ns) as f64),
        ),
    ]
}

fn bench_workload(w: &Workload, trials: usize) -> Json {
    let network = w.network();
    let runs: Vec<Trial> = (0..trials).map(|_| run_trial(w)).collect();
    let digest = runs[0].answer_digest;
    assert!(
        runs.iter().all(|t| t.answer_digest == digest),
        "{}: non-deterministic answers across trials",
        w.name
    );
    let mut phases = vec![
        (
            "parse_ns",
            num(median(runs.iter().map(|t| t.parse_ns).collect())),
        ),
        (
            "compile_ns",
            num(median(runs.iter().map(|t| t.compile_ns).collect())),
        ),
        (
            "enumerate_ns",
            num(median(runs.iter().map(|t| t.enumerate_ns).collect())),
        ),
        (
            "query_ns",
            num(median(runs.iter().map(|t| t.query_ns).collect())),
        ),
        (
            "bdd_enumerate_ns",
            num(median(runs.iter().map(|t| t.bdd_enumerate_ns).collect())),
        ),
        (
            "bdd_query_ns",
            num(median(runs.iter().map(|t| t.bdd_query_ns).collect())),
        ),
    ];
    if runs[0].synthesis_ns.is_some() {
        phases.push((
            "synthesis_ns",
            num(median(
                runs.iter().map(|t| t.synthesis_ns.unwrap_or(0)).collect(),
            )),
        ));
    }
    // Headline ratio: enumeration median over diagram median. `run_trial`
    // already asserted the digests match, so this compares like for like.
    let enum_med = median(runs.iter().map(|t| t.enumerate_ns).collect());
    let bdd_med = median(runs.iter().map(|t| t.bdd_enumerate_ns).collect());
    let mut row = vec![
        ("name", Json::Str(w.name.to_string())),
        ("phases", Json::obj(phases)),
        (
            "feasibility",
            Json::obj(vec![
                ("hits", num(runs[0].feasibility_hits)),
                ("misses", num(runs[0].feasibility_misses)),
            ]),
        ),
        ("answer_digest", Json::Str(format!("{digest:016x}"))),
        ("bdd_speedup", ratio(enum_med as f64, bdd_med as f64)),
    ];
    row.extend(auto_fields(network.model(), true, enum_med, bdd_med));
    Json::obj(row)
}

/// The parameter-sweep workload: a 16-point grid over the threshold
/// parameter of `gossip_k4_sweep.bay`, timed two ways — (a) sixteen
/// independent pointwise enumerations (bind, analyze, answer; exactly what
/// sixteen `/v1/run` calls would do) and (b) one `sweep()` call that shares
/// the exploration across the grid. The FNV-1a digests over the rendered
/// answers are asserted identical every trial, so `sweep_speedup` compares
/// bit-identical computations; the per-trial digest pins determinism the
/// same way `bench_workload` does.
fn bench_sweep(trials: usize) -> Json {
    let w = curated("gossip_k4_sweep16", "gossip_k4_sweep.bay");
    let model = Network::from_source(&w.source)
        .expect("compile")
        .model()
        .clone();
    let param = model
        .params
        .iter()
        .find(|id| model.params.name(*id) == "K")
        .expect("gossip_k4_sweep.bay declares K");
    let points: Vec<Vec<Rat>> = (1..=16).map(|k| vec![Rat::int(k)]).collect();
    let opts = ExactOptions {
        engine: EngineKind::Enum,
        ..ExactOptions::default()
    };

    let mut pointwise_runs = Vec::new();
    let mut sweep_runs = Vec::new();
    let mut digest = 0u64;
    for trial in 0..trials {
        // (a) Pointwise: one full enumeration per grid point.
        let start = Instant::now();
        let mut pointwise_digest = 0u64;
        for point in &points {
            let mut bound = model.clone();
            bound.bind_param("K", point[0].clone()).expect("bind K");
            let scheduler = scheduler_for(&bound);
            let analysis = analyze(&bound, &*scheduler, &opts).expect("analyze");
            for q in &bound.queries {
                let r = answer(&bound, &analysis, q, opts.fm_pruning).expect("answer");
                pointwise_digest = fnv1a(pointwise_digest, &r.to_string());
            }
            pointwise_digest = fnv1a(
                pointwise_digest,
                &format!(
                    "Z={} D={}",
                    analysis.total_terminal_mass(),
                    analysis.total_discarded_mass()
                ),
            );
        }
        pointwise_runs.push(start.elapsed().as_nanos() as u64);

        // (b) Sweep: shared exploration, per-point answers.
        let start = Instant::now();
        let result = sweep(&model, &[param], &points, &opts).expect("sweep");
        let mut sweep_digest = 0u64;
        for p in &result.points {
            let p = p.as_ref().expect("sweep point");
            for r in &p.results {
                sweep_digest = fnv1a(sweep_digest, &r.to_string());
            }
            sweep_digest = fnv1a(sweep_digest, &format!("Z={} D={}", p.z, p.discarded));
        }
        sweep_runs.push(start.elapsed().as_nanos() as u64);

        assert_eq!(
            pointwise_digest, sweep_digest,
            "gossip_k4_sweep16: sweep and pointwise answers diverge"
        );
        if trial == 0 {
            digest = sweep_digest;
        } else {
            assert_eq!(
                digest, sweep_digest,
                "gossip_k4_sweep16: non-deterministic answers across trials"
            );
        }
    }

    let pointwise_med = median(pointwise_runs.clone());
    let sweep_med = median(sweep_runs.clone());
    Json::obj(vec![
        ("name", Json::Str("gossip_k4_sweep16".to_string())),
        (
            "phases",
            Json::obj(vec![
                ("pointwise_ns", num(pointwise_med)),
                ("sweep_ns", num(sweep_med)),
            ]),
        ),
        ("grid_points", num(points.len() as u64)),
        ("answer_digest", Json::Str(format!("{digest:016x}"))),
        (
            "sweep_speedup",
            ratio(pointwise_med as f64, sweep_med as f64),
        ),
    ])
}

/// The optimization-pass workload: `gossip_k4.bay` enumerated twice from
/// the same compiled model — once with the pass pipeline disabled and once
/// with it on (symmetry canonicalization merges the three interchangeable
/// peers' frontier states; the group has order 6). The rendered answers
/// plus Z/discarded digests are asserted identical every trial, so
/// `opt_speedup` compares bit-identical posteriors. The unoptimized model
/// is also enumerated by the diagram backend, because that is where bdd
/// still wins: this row's routing fields plan the unoptimized model (a
/// `"passes": false` request), the one case the planner sends to bdd.
fn bench_opt(trials: usize) -> Json {
    let network = curated("gossip_k4_noopt_vs_opt", "gossip_k4.bay").network();
    let timed_pass = |passes: bool, engine: EngineKind| -> (u64, u64) {
        let opts = ExactOptions {
            engine,
            passes,
            ..ExactOptions::default()
        };
        let start = Instant::now();
        let analysis = analyze(network.model(), network.scheduler(), &opts).expect("analyze");
        let ns = start.elapsed().as_nanos() as u64;
        let mut d = 0u64;
        for q in network.queries() {
            let r = answer(network.model(), &analysis, q, opts.fm_pruning).expect("answer");
            d = fnv1a(d, &r.to_string());
        }
        d = fnv1a(
            d,
            &format!(
                "Z={} D={}",
                analysis.total_terminal_mass(),
                analysis.total_discarded_mass()
            ),
        );
        (ns, d)
    };

    let mut noopt_runs = Vec::new();
    let mut noopt_bdd_runs = Vec::new();
    let mut opt_runs = Vec::new();
    let mut digest = 0u64;
    for trial in 0..trials {
        let (noopt_ns, noopt_digest) = timed_pass(false, EngineKind::Enum);
        let (noopt_bdd_ns, noopt_bdd_digest) = timed_pass(false, EngineKind::Bdd);
        let (opt_ns, opt_digest) = timed_pass(true, EngineKind::Enum);
        assert_eq!(
            noopt_digest, opt_digest,
            "gossip_k4_noopt_vs_opt: optimized posterior diverges"
        );
        assert_eq!(
            noopt_digest, noopt_bdd_digest,
            "gossip_k4_noopt_vs_opt: enum and bdd posteriors diverge"
        );
        noopt_runs.push(noopt_ns);
        noopt_bdd_runs.push(noopt_bdd_ns);
        opt_runs.push(opt_ns);
        if trial == 0 {
            digest = opt_digest;
        } else {
            assert_eq!(
                digest, opt_digest,
                "gossip_k4_noopt_vs_opt: non-deterministic answers across trials"
            );
        }
    }

    let noopt_med = median(noopt_runs);
    let noopt_bdd_med = median(noopt_bdd_runs);
    let opt_med = median(opt_runs);
    let mut row = vec![
        ("name", Json::Str("gossip_k4_noopt_vs_opt".to_string())),
        (
            "phases",
            Json::obj(vec![
                ("noopt_enumerate_ns", num(noopt_med)),
                ("noopt_bdd_enumerate_ns", num(noopt_bdd_med)),
                ("opt_enumerate_ns", num(opt_med)),
            ]),
        ),
        ("answer_digest", Json::Str(format!("{digest:016x}"))),
        ("opt_speedup", ratio(noopt_med as f64, opt_med as f64)),
    ];
    row.extend(auto_fields(
        network.model(),
        false,
        noopt_med,
        noopt_bdd_med,
    ));
    Json::obj(row)
}

fn machine_info() -> Json {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    Json::obj(vec![
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("cpus", num(cpus)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ])
}

/// Per-workload enumerate-phase speedup vs. an embedded baseline report.
fn comparison(current: &Json, baseline: &Json) -> Json {
    let find = |report: &Json, name: &str| -> Option<f64> {
        report.get("workloads")?.as_arr()?.iter().find_map(|w| {
            if w.get("name")?.as_str()? == name {
                w.get("phases")?.get("enumerate_ns")?.as_f64()
            } else {
                None
            }
        })
    };
    let mut rows = Vec::new();
    if let Some(ws) = current.get("workloads").and_then(Json::as_arr) {
        for w in ws {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("");
            let (Some(now), Some(before)) = (find(current, name), find(baseline, name)) else {
                continue;
            };
            if now <= 0.0 {
                continue;
            }
            rows.push(Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("baseline_enumerate_ns", Json::Num(before)),
                ("enumerate_ns", Json::Num(now)),
                ("speedup", ratio(before, now)),
            ]));
        }
    }
    Json::Arr(rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trials = 5usize;
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--trials" => {
                i += 1;
                trials = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--trials needs a positive integer");
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).expect("--baseline needs a path").clone());
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).expect("--check needs a path").clone());
            }
            other => panic!("unknown flag `{other}` (see --help in the source header)"),
        }
        i += 1;
    }
    if quick {
        trials = trials.min(2);
    }
    assert!(trials >= 1, "--trials must be at least 1");

    let ws = workloads::regress(quick);
    let mut rows = Vec::new();
    for w in &ws {
        eprintln!("regress: {} ({} trials)...", w.name, trials);
        rows.push(bench_workload(w, trials));
    }
    eprintln!("regress: gossip_k4_sweep16 ({trials} trials)...");
    rows.push(bench_sweep(trials));
    eprintln!("regress: gossip_k4_noopt_vs_opt ({trials} trials)...");
    rows.push(bench_opt(trials));

    let mut report_pairs = vec![
        ("schema", Json::Str("bayonet-regress-v1".to_string())),
        ("quick", Json::Bool(quick)),
        ("trials", num(trials as u64)),
        ("machine", machine_info()),
        ("workloads", Json::Arr(rows)),
    ];
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = parse_json(&text).expect("baseline is not valid JSON");
        let current = Json::obj(report_pairs.clone());
        report_pairs.push(("comparison", comparison(&current, &baseline)));
        report_pairs.push(("baseline", baseline));
    }
    let report = Json::obj(report_pairs);

    let rendered = report.to_string();
    // Self-validation: the emitted report must round-trip through the same
    // parser the service uses; a malformed report is a harness bug.
    let reparsed = parse_json(&rendered).expect("emitted report is not valid JSON");
    assert_eq!(reparsed, report, "report does not round-trip");

    println!("{rendered}");
    if let Some(path) = &out {
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("regress: wrote {path}");
    }

    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read check baseline {path}: {e}"));
        let baseline = parse_json(&text).expect("check baseline is not valid JSON");
        // Run both gates so one failure does not hide the other.
        let routed = check_routing(&report);
        if !(check_against(&report, &baseline) && routed) {
            std::process::exit(1);
        }
    }
}

/// The CI gate: both exact backends' enumerate-phase medians, per
/// workload, against a committed baseline report. Workloads present on
/// only one side (e.g. a `--quick` run against a full baseline) are
/// skipped; phases below the noise floor are printed but not gated.
fn check_against(current: &Json, baseline: &Json) -> bool {
    if let Some(pass) = gate::host_class_gate(current, baseline) {
        return pass;
    }
    let phase = |report: &Json, name: &str, key: &str| -> Option<f64> {
        report.get("workloads")?.as_arr()?.iter().find_map(|w| {
            if w.get("name")?.as_str()? == name {
                w.get("phases")?.get(key)?.as_f64()
            } else {
                None
            }
        })
    };
    let mut rows = Vec::new();
    if let Some(ws) = current.get("workloads").and_then(Json::as_arr) {
        for w in ws {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("");
            for key in [
                "enumerate_ns",
                "bdd_enumerate_ns",
                "sweep_ns",
                "pointwise_ns",
                "noopt_enumerate_ns",
                "noopt_bdd_enumerate_ns",
                "opt_enumerate_ns",
            ] {
                let (Some(now), Some(before)) =
                    (phase(current, name, key), phase(baseline, name, key))
                else {
                    continue;
                };
                rows.push(gate::Check {
                    label: format!("{name}/{key}"),
                    baseline: before,
                    current: now,
                    gated: before >= gate::MIN_GATED_NS,
                });
            }
        }
    }
    assert!(
        !rows.is_empty(),
        "check: no comparable workloads between current run and baseline"
    );
    gate::verdict(&rows, gate::tolerance(), "ns")
}

/// The routing gate: on every row that records one, `auto_vs_best` may be
/// at most [`MAX_AUTO_VS_BEST`]. Both timings come from the same run, so
/// the gate needs no baseline and holds on any host class. Rows whose
/// auto-routed time is under the noise floor are printed but not gated: a
/// sub-10 ms run is too short for a ratio of two single-host medians to
/// mean anything.
fn check_routing(report: &Json) -> bool {
    let mut failures = 0usize;
    for w in report
        .get("workloads")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
    {
        let field = |key: &str| w.get(key);
        let (Some(engine), Some(vs_best), Some(auto_ns)) = (
            field("auto_engine").and_then(Json::as_str),
            field("auto_vs_best").and_then(Json::as_f64),
            field("auto_enumerate_ns").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let name = field("name").and_then(Json::as_str).unwrap_or("");
        let status = if auto_ns < gate::MIN_GATED_NS {
            "ungated (below noise floor)"
        } else if vs_best > MAX_AUTO_VS_BEST {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        eprintln!("check: {name:40} auto={engine:4} auto_vs_best {vs_best:>6.3} {status}");
    }
    if failures > 0 {
        eprintln!(
            "check: FAILED — auto routes {failures} workload(s) to an engine more than \
             {MAX_AUTO_VS_BEST}x slower than the fastest"
        );
    }
    failures == 0
}
