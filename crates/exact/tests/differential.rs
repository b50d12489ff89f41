//! Differential tests: multi-threaded exact inference must be
//! **bit-for-bit identical** to the single-threaded engine.
//!
//! For every program under `examples/bay/` the posterior (terminals,
//! discarded mass, statistics) and the rendered CLI text are compared
//! against a `threads = 1` baseline for several worker counts, with the
//! parallel threshold forced low so even small frontiers expand in
//! parallel. The symbolic-synthesis pipeline is covered too, and so are
//! runtime errors: a failing run reports the same error at every count.
//!
//! Gossip K5 and a 10-diamond reliability chain, whose frontiers are far
//! larger than any example's, run at the default threshold at 1, 2, 4 and
//! 8 workers.
//!
//! A `BAYONET_TEST_THREADS` value outside the fixed {1, 2, 8} adds one
//! extra worker count to the matrix.

use std::fs;
use std::path::PathBuf;

use bayonet::scenarios::{gossip_source, reliability_chain_source, Sched};
use bayonet_exact::{
    analyze, answer, render_run, synthesize_result, Analysis, ComputePool, EngineKind,
    ExactOptions, Objective, SynthesisOptions,
};
use bayonet_lang::parse;
use bayonet_net::{compile, scheduler_for, Model, Scheduler};
use bayonet_num::Rat;

mod common;

fn example_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/bay"))
}

fn example_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(example_dir())
        .expect("examples/bay exists")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_some_and(|ext| ext == "bay") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                Some((name, fs::read_to_string(&path).expect("readable example")))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no example programs found");
    out
}

/// Worker counts under test: the fixed {1, 2, 8} matrix plus whatever
/// `BAYONET_TEST_THREADS` asks for.
fn thread_matrix() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Ok(v) = std::env::var("BAYONET_TEST_THREADS") {
        let extra: usize = v
            .parse()
            .expect("BAYONET_TEST_THREADS must be a positive integer");
        if !counts.contains(&extra) {
            counts.push(extra.max(1));
        }
    }
    counts
}

/// Compiles `source`, binding every declared parameter to `binding` when
/// given (programs like `lossy_link.bay` use parameters inside `flip`,
/// which requires concrete values; `ecmp_costs.bay` stays fully symbolic).
fn build(source: &str, binding: Option<Rat>) -> (Model, Box<dyn Scheduler>) {
    let program = parse(source).expect("example parses");
    let mut model = compile(&program).expect("example compiles");
    if let Some(value) = binding {
        let names: Vec<String> = model
            .params
            .iter()
            .map(|id| model.params.name(id).to_string())
            .collect();
        for name in names {
            model.bind_param(&name, value.clone()).expect("bindable");
        }
    }
    let scheduler = scheduler_for(&model);
    (model, scheduler)
}

fn options(threads: usize) -> ExactOptions {
    ExactOptions {
        threads,
        // Force the parallel path even on tiny frontiers, so the
        // differential comparison actually exercises parallel expansion.
        // (Under `BAYONET_TEST_ENGINE=bdd` both knobs are ignored and the
        // matrix degenerates to self-consistency, which is intended.)
        par_threshold: 2,
        ..common::test_options()
    }
}

/// Runs the exact engine and renders its result exactly as `bayonet run`
/// prints it: per-query results, the Z line, and the stats line.
fn run_and_render(source: &str, binding: Option<Rat>, opts: &ExactOptions) -> (Analysis, String) {
    let (model, scheduler) = build(source, binding);
    let analysis = analyze(&model, &*scheduler, opts).expect("example analyzes");
    let results: Vec<_> = model
        .queries
        .iter()
        .map(|q| answer(&model, &analysis, q, opts.fm_pruning).expect("query answers"))
        .collect();
    let text = render_run(
        &results,
        &analysis.total_terminal_mass(),
        &analysis.total_discarded_mass(),
        Some(&analysis.stats),
    );
    (analysis, text)
}

/// Needs a concrete parameter binding to run under the exact engine
/// (symbolic arguments to `flip`/`uniformInt` are a semantic error).
fn needs_binding(source: &str) -> bool {
    let (model, scheduler) = build(source, None);
    matches!(
        analyze(&model, &*scheduler, &ExactOptions::default()),
        Err(bayonet_exact::ExactError::Semantics(_))
    )
}

/// The statistics every run must reproduce exactly.
fn deterministic_stats(a: &Analysis) -> (u64, u64, usize, u64, usize) {
    (
        a.stats.steps,
        a.stats.expansions,
        a.stats.peak_configs,
        a.stats.merge_hits,
        a.stats.terminal_configs,
    )
}

/// Runs `source` at every count in `threads` and asserts terminals,
/// discarded mass, statistics and rendered text all match the run under
/// `options(1)`.
fn assert_bit_identical(
    name: &str,
    source: &str,
    binding: Option<Rat>,
    threads: &[usize],
    options: impl Fn(usize) -> ExactOptions,
) {
    let (baseline, baseline_text) = run_and_render(source, binding.clone(), &options(1));
    for &threads in threads {
        let (run, text) = run_and_render(source, binding.clone(), &options(threads));
        assert_eq!(
            baseline.terminals, run.terminals,
            "{name}: terminals diverge at {threads} threads"
        );
        assert_eq!(
            baseline.discarded, run.discarded,
            "{name}: discarded mass diverges at {threads} threads"
        );
        assert_eq!(
            deterministic_stats(&baseline),
            deterministic_stats(&run),
            "{name}: stats diverge at {threads} threads"
        );
        assert_eq!(
            baseline_text, text,
            "{name}: rendered text diverges at {threads} threads"
        );
    }
}

#[test]
fn every_example_is_bit_identical_across_thread_counts() {
    for (name, source) in example_sources() {
        let binding = needs_binding(&source).then(|| Rat::ratio(1, 4));
        assert_bit_identical(&name, &source, binding, &thread_matrix(), options);
    }
}

/// Frontiers far larger than any curated example's, so that at the default
/// threshold every lane takes many chunks per step.
#[test]
fn large_frontiers_are_bit_identical_across_thread_counts() {
    // The check is about enumeration's parallel merge; pin the engine and
    // the passes so the `bdd` and `passes: off` legs do not turn it into a
    // single-threaded run or an unreduced K5 that takes minutes in debug.
    let options = |threads: usize| ExactOptions {
        threads,
        engine: EngineKind::Enum,
        passes: true,
        ..ExactOptions::default()
    };
    let mut threads = thread_matrix();
    if !threads.contains(&4) {
        threads.push(4);
    }
    let workloads = [
        ("gossip K5", gossip_source(5, Sched::Uniform)),
        (
            "reliability chain (10 diamonds)",
            reliability_chain_source(10, &Rat::ratio(1, 1000), Sched::Uniform),
        ),
    ];
    for (name, source) in workloads {
        assert_bit_identical(name, &source, None, &threads, options);
    }
}

#[test]
fn symbolic_synthesis_is_bit_identical_across_thread_counts() {
    let source = fs::read_to_string(example_dir().join("ecmp_costs.bay")).expect("ecmp example");
    let synthesize = |threads: usize| -> String {
        let opts = options(threads);
        let (model, scheduler) = build(&source, None);
        let analysis = analyze(&model, &*scheduler, &opts).expect("analyzes");
        let result =
            answer(&model, &analysis, &model.queries[0], opts.fm_pruning).expect("answers");
        let synthesis = synthesize_result(
            &model,
            &result,
            SynthesisOptions {
                objective: Objective::Minimize,
                positive_params: true,
            },
        )
        .expect("synthesizes");
        format!("{synthesis:?}")
    };
    let baseline = synthesize(1);
    for threads in thread_matrix() {
        assert_eq!(
            baseline,
            synthesize(threads),
            "synthesis diverges at {threads} threads"
        );
    }
}

#[test]
fn pool_contention_degrades_gracefully_without_changing_results() {
    // Pool leases and parallel expansion are enumeration-engine machinery; pin
    // the engine so the `BAYONET_TEST_ENGINE=bdd` leg still exercises it.
    let options = |threads: usize| ExactOptions {
        engine: EngineKind::Enum,
        ..options(threads)
    };
    let source = fs::read_to_string(example_dir().join("gossip_k4.bay")).expect("gossip example");
    let (_, baseline_text) = run_and_render(&source, None, &options(1));

    // A busy pool: one slot total, and a standing lease hogging it, so the
    // request's lease grants zero extra workers.
    let pool = ComputePool::new(1);
    let hog = pool.lease(1);
    let starved = ExactOptions {
        pool: Some(pool.clone()),
        ..options(8)
    };
    let (_, starved_text) = run_and_render(&source, None, &starved);
    assert_eq!(baseline_text, starved_text);
    drop(hog);

    // An idle pool grants workers; results still match and the pool's
    // occupancy returns to zero once the run finishes.
    let relaxed = ExactOptions {
        pool: Some(pool.clone()),
        ..options(8)
    };
    let (_, relaxed_text) = run_and_render(&source, None, &relaxed);
    assert_eq!(baseline_text, relaxed_text);
    assert_eq!(pool.busy(), 0);
    // Two leases granted a worker: the hog and the relaxed run, whose
    // parallel expansion therefore engaged. The starved run's zero-slot
    // grant does not count.
    assert_eq!(pool.stats().leases, 2);
}

/// Gossip on K4 where a node that is reached a second time fails at run
/// time with `failure`, instead of dropping the packet. Second visits come
/// only a few steps in, when the frontier holds many configurations, and
/// several of them fail within the same step with different messages.
fn failing_gossip(failure: &str) -> String {
    format!(
        r#"
        packet_fields {{ dst }}
        topology {{
            nodes {{ S0, S1, S2, S3 }}
            links {{
                (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
                (S0, pt3) <-> (S3, pt1), (S1, pt2) <-> (S2, pt2),
                (S1, pt3) <-> (S3, pt2), (S2, pt3) <-> (S3, pt3)
            }}
        }}
        programs {{ S0 -> seed, S1 -> gossip, S2 -> gossip, S3 -> gossip }}
        init {{ packet -> (S0, pt1); }}
        query expectation(infected@S1 + infected@S2 + infected@S3);
        def seed(pkt, pt) state infected(0) {{
            if infected == 0 {{ infected = 1; fwd(uniformInt(1, 3)); }}
            else {{ drop; }}
        }}
        def gossip(pkt, pt) state infected(0) {{
            if infected == 0 {{
                infected = 1;
                dup;
                fwd(uniformInt(1, 3));
                fwd(uniformInt(1, 3));
            }} else {{ {failure} }}
        }}
        "#
    )
}

#[test]
fn runtime_errors_are_identical_across_thread_counts() {
    // Pin enumeration: the configuration cap below and the parallel
    // expansion under test are both enumeration-engine machinery.
    let options = |threads: usize| ExactOptions {
        engine: EngineKind::Enum,
        ..options(threads)
    };
    for failure in ["fwd(pt + 3);", "infected = 1 / (infected - 1); drop;"] {
        let (model, scheduler) = build(&failing_gossip(failure), None);
        let error = |opts: &ExactOptions| match analyze(&model, &*scheduler, opts) {
            Ok(_) => panic!("`{failure}`: the run must fail"),
            Err(e) => e.to_string(),
        };
        // Capping the frontier at the parallel threshold trips the cap
        // before any node fails, so the failing steps expand in parallel.
        let capped = error(&ExactOptions {
            max_configs: 2,
            ..options(1)
        });
        assert!(capped.contains("configuration limit"), "{capped}");

        let baseline = error(&options(1));
        assert!(baseline.starts_with("semantic error"), "{baseline}");
        for threads in thread_matrix() {
            assert_eq!(
                baseline,
                error(&options(threads)),
                "`{failure}`: error diverges at {threads} threads"
            );
        }
    }
}
