//! Optimization-pass differential: running the pass pipeline (constant
//! folding, dead-flip elimination, symmetry-reduced exploration) must be
//! **observably invisible** — byte-identical rendered query results and
//! Z/discarded line against a `passes: false` baseline — across
//! {enum, bdd, auto} × {1, 8} threads, over every curated example and 200
//! generated programs. Engine *stats* (peak configs, expansions) are
//! expected to shrink under the passes and are deliberately not compared;
//! the posterior is the contract.

use std::fs;
use std::path::PathBuf;

use bayonet_exact::{analyze, answer, render_run, EngineKind, ExactError, ExactOptions};
use bayonet_lang::parse;
use bayonet_lang::testgen::ProgramGen;
use bayonet_net::{compile, scheduler_for, Model, Scheduler};
use bayonet_num::Rat;

mod common;

const SEEDS: u64 = 200;
const THREADS: [usize; 2] = [1, 8];
const ENGINES: [EngineKind; 3] = [EngineKind::Enum, EngineKind::Bdd, EngineKind::Auto];

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

fn build(source: &str, binding: Option<&Rat>) -> (Model, Box<dyn Scheduler>) {
    let program = parse(source).expect("program parses");
    let mut model = compile(&program).expect("program compiles");
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

/// Runs one configuration and renders the posterior exactly as
/// `bayonet run` prints it, *without* the engine-specific stats line.
fn run(
    source: &str,
    binding: Option<&Rat>,
    engine: EngineKind,
    threads: usize,
    passes: bool,
) -> Result<String, ExactError> {
    let (model, scheduler) = build(source, binding);
    let opts = ExactOptions {
        engine,
        threads,
        par_threshold: 2,
        passes,
        ..ExactOptions::default()
    };
    let analysis = analyze(&model, &*scheduler, &opts)?;
    let results: Vec<_> = model
        .queries
        .iter()
        .map(|q| answer(&model, &analysis, q, opts.fm_pruning).expect("query answers"))
        .collect();
    let text = render_run(
        &results,
        &analysis.total_terminal_mass(),
        &analysis.total_discarded_mass(),
        None,
    );
    Ok(text)
}

/// Asserts the optimized run is posterior-identical to the `passes: false`
/// baseline for every engine/thread combination; returns whether the
/// program analyzed successfully (vs. erroring identically everywhere).
fn assert_opt_invisible(name: &str, source: &str, binding: Option<&Rat>) -> bool {
    match run(source, binding, EngineKind::Enum, 1, false) {
        Ok(base_text) => {
            for engine in ENGINES {
                for threads in THREADS {
                    let no_opt = run(source, binding, engine, threads, false).unwrap_or_else(|e| {
                        panic!("{name}: {engine:?}/{threads}/no-opt errored: {e}")
                    });
                    assert_eq!(
                        base_text, no_opt,
                        "{name}: no-opt posterior diverges under {engine:?}/{threads}"
                    );
                    let opt = run(source, binding, engine, threads, true).unwrap_or_else(|e| {
                        panic!("{name}: {engine:?}/{threads}/opt errored against Ok baseline: {e}")
                    });
                    assert_eq!(
                        base_text, opt,
                        "{name}: optimized posterior diverges under {engine:?}/{threads}"
                    );
                }
            }
            true
        }
        Err(base_err) => {
            // The passes must not turn an erroring program into an
            // accepting one (or change which error is reported).
            for engine in ENGINES {
                for threads in THREADS {
                    for passes in [false, true] {
                        let err = run(source, binding, engine, threads, passes)
                            .map(|_| ())
                            .unwrap_err();
                        assert_eq!(
                            base_err.to_string(),
                            err.to_string(),
                            "{name}: error diverges under {engine:?}/{threads}/passes={passes}"
                        );
                    }
                }
            }
            false
        }
    }
}

#[test]
fn every_example_is_opt_invisible() {
    let binding = Rat::ratio(1, 4);
    let mut analyzed = 0u32;
    for (name, source) in example_sources() {
        if assert_opt_invisible(&name, &source, None) {
            analyzed += 1;
        } else {
            assert!(
                assert_opt_invisible(&name, &source, Some(&binding)),
                "{name}: still errors with parameters bound"
            );
            analyzed += 1;
        }
    }
    assert!(analyzed >= 3, "expected at least 3 analyzable examples");
}

#[test]
fn generated_programs_are_opt_invisible() {
    let mut nontrivial = 0u32;
    for seed in 0..SEEDS {
        let source = ProgramGen::new(seed).generate();
        if assert_opt_invisible(&format!("seed {seed}"), &source, None) {
            nontrivial += 1;
        }
    }
    assert!(
        nontrivial >= 20,
        "generator degenerated: only {nontrivial} analyzable programs"
    );
}

/// The curated fat-tree example: ECMP spreads the flow over symmetric
/// aggregation/core paths, every path loses with `P_LOSS`, so the answer is
/// exactly `1 - P_LOSS` and the symmetry pass must not perturb it.
#[test]
fn fattree_k4_posterior_is_path_independent() {
    let source = fs::read_to_string(example_dir().join("fattree_k4.bay")).unwrap();
    let quarter = Rat::ratio(1, 4);
    let expected = "probability(got@E32 == 1):\n  3/4 ≈ 0.7500\n\
                    expectation(got@E32):\n  3/4 ≈ 0.7500\n\
                    Z = 1 (discarded by observations: 0)\n";
    for passes in [true, false] {
        let text = run(&source, Some(&quarter), common::test_engine(), 1, passes).unwrap();
        assert_eq!(text, expected, "passes={passes}");
    }
}

/// The curated firewall/NAT chain: a deliberately asymmetric service chain
/// (every node runs a different program — only trivial orbits exist, per
/// `crates/net/tests/opt_passes.rs`) with a fully pinned posterior.
#[test]
fn firewall_nat_posterior_is_pinned() {
    let source = fs::read_to_string(example_dir().join("firewall_nat.bay")).unwrap();
    let expected = "probability(got@SRV == 1):\n  2/3 ≈ 0.6667\n\
                    expectation(nat_src@SRV):\n  2/3 ≈ 0.6667\n\
                    probability(blocked@FW == 1):\n  1/3 ≈ 0.3333\n\
                    Z = 1 (discarded by observations: 0)\n";
    for passes in [true, false] {
        let text = run(&source, None, common::test_engine(), 1, passes).unwrap();
        assert_eq!(text, expected, "passes={passes}");
    }
}
