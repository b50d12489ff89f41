//! Engine-matrix differential: the `bayonet-bdd` knowledge-compilation
//! backend must produce **bit-for-bit identical** posteriors to frontier
//! enumeration — same terminals in the same order, same discarded mass per
//! guard, same `steps`/`expansions`/`peak_configs`, and byte-identical
//! rendered query results — across {enum, bdd} × {1, 8} threads, over every
//! curated example and 200 generated programs.
//!
//! `merge_hits` is deliberately excluded: the backends count merges at
//! different granularities (configurations vs. diagrams), which is
//! documented engine-specific behavior.

use std::fs;
use std::path::PathBuf;

use bayonet_exact::{analyze, answer, render_run, Analysis, EngineKind, ExactError, ExactOptions};
use bayonet_lang::parse;
use bayonet_lang::testgen::ProgramGen;
use bayonet_net::{compile, scheduler_for, Model, Scheduler};
use bayonet_num::Rat;

mod common;

const SEEDS: u64 = 200;
const THREADS: [usize; 2] = [1, 8];

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

fn options(engine: EngineKind, threads: usize) -> ExactOptions {
    ExactOptions {
        engine,
        threads,
        // Force the parallel path for the enumeration engine even on
        // tiny frontiers; the diagram backend ignores both knobs.
        par_threshold: 2,
        ..ExactOptions::default()
    }
}

/// Runs one engine and renders the posterior exactly as `bayonet run`
/// prints it, *without* the engine-specific stats line.
fn run(
    source: &str,
    binding: Option<&Rat>,
    opts: &ExactOptions,
) -> Result<(Analysis, String), ExactError> {
    let (model, scheduler) = build(source, binding);
    let analysis = analyze(&model, &*scheduler, opts)?;
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
    Ok((analysis, text))
}

/// Everything deterministic that both backends promise to agree on
/// (`merge_hits` excluded, see the module docs).
fn shared_stats(a: &Analysis) -> (u64, u64, usize, usize) {
    (
        a.stats.steps,
        a.stats.expansions,
        a.stats.peak_configs,
        a.stats.terminal_configs,
    )
}

/// Asserts the full matrix agrees on one program; returns whether the
/// program analyzed successfully (vs. erroring identically everywhere).
fn assert_matrix_agrees(name: &str, source: &str, binding: Option<&Rat>) -> bool {
    let baseline = run(source, binding, &options(EngineKind::Enum, 1));
    match baseline {
        Ok((base_analysis, base_text)) => {
            for threads in THREADS {
                for engine in [EngineKind::Enum, EngineKind::Bdd] {
                    let (a, text) =
                        run(source, binding, &options(engine, threads)).unwrap_or_else(|e| {
                            panic!("{name}: {engine:?}/{threads} errored against Ok baseline: {e}")
                        });
                    assert_eq!(
                        base_analysis.terminals, a.terminals,
                        "{name}: terminals diverge under {engine:?}/{threads}"
                    );
                    assert_eq!(
                        base_analysis.discarded, a.discarded,
                        "{name}: discarded mass diverges under {engine:?}/{threads}"
                    );
                    assert_eq!(
                        shared_stats(&base_analysis),
                        shared_stats(&a),
                        "{name}: stats diverge under {engine:?}/{threads}"
                    );
                    assert_eq!(
                        base_text, text,
                        "{name}: rendered posterior diverges under {engine:?}/{threads}"
                    );
                }
            }
            true
        }
        Err(base_err) => {
            // Both backends must reject the same programs with the same
            // rendered error.
            for threads in THREADS {
                for engine in [EngineKind::Enum, EngineKind::Bdd] {
                    let err = run(source, binding, &options(engine, threads))
                        .map(|_| ())
                        .unwrap_err();
                    assert_eq!(
                        base_err.to_string(),
                        err.to_string(),
                        "{name}: error diverges under {engine:?}/{threads}"
                    );
                }
            }
            false
        }
    }
}

#[test]
fn every_example_agrees_across_the_engine_matrix() {
    let binding = Rat::ratio(1, 4);
    let mut analyzed = 0u32;
    for (name, source) in example_sources() {
        // Programs with symbolic `flip` parameters need a concrete binding;
        // run them both ways so the unbound error path is matrixed too.
        if assert_matrix_agrees(&name, &source, None) {
            analyzed += 1;
        } else {
            assert!(
                assert_matrix_agrees(&name, &source, Some(&binding)),
                "{name}: still errors with parameters bound"
            );
            analyzed += 1;
        }
    }
    assert!(analyzed >= 3, "expected at least 3 analyzable examples");
}

#[test]
fn generated_programs_agree_across_the_engine_matrix() {
    let mut nontrivial = 0u32;
    for seed in 0..SEEDS {
        let source = ProgramGen::new(seed).generate();
        if assert_matrix_agrees(&format!("seed {seed}"), &source, None) {
            let (a, _) = run(&source, None, &options(EngineKind::Enum, 1)).expect("just ran");
            if a.terminals.len() > 1 {
                nontrivial += 1;
            }
        }
    }
    assert!(
        nontrivial >= 20,
        "generator degenerated: only {nontrivial} nontrivial programs"
    );
}
