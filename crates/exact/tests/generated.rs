//! Differential fuzzing: single- vs multi-threaded exact inference must
//! agree bit-for-bit on a population of randomly generated programs.
//!
//! Complements `tests/differential.rs` (which covers the curated examples)
//! with ~200 seeded random chain programs from
//! [`bayonet_lang::testgen::ProgramGen`] — flips, uniform draws, bounded
//! duplication, and soft observes, each explored once sequentially and
//! once with the parallel expander forced on.

use bayonet_exact::{analyze, Analysis, ExactError, ExactOptions};
use bayonet_lang::parse;
use bayonet_lang::testgen::ProgramGen;
use bayonet_net::{compile, scheduler_for};

mod common;

const SEEDS: u64 = 200;

fn run(source: &str, threads: usize) -> Result<Analysis, ExactError> {
    let program = parse(source).expect("generated programs parse");
    let model = compile(&program).expect("generated programs compile");
    let scheduler = scheduler_for(&model);
    let opts = ExactOptions {
        threads,
        // Force the parallel path even on small frontiers.
        par_threshold: 2,
        ..common::test_options()
    };
    analyze(&model, &*scheduler, &opts)
}

#[test]
fn generated_programs_agree_between_one_and_eight_threads() {
    let mut nontrivial = 0u32;
    for seed in 0..SEEDS {
        let source = ProgramGen::new(seed).generate();
        let single = run(&source, 1);
        let parallel = run(&source, 8);
        match (single, parallel) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.terminals, b.terminals, "seed {seed}:\n{source}");
                assert_eq!(a.discarded, b.discarded, "seed {seed}:\n{source}");
                assert_eq!(
                    (
                        a.stats.steps,
                        a.stats.expansions,
                        a.stats.peak_configs,
                        a.stats.merge_hits,
                        a.stats.terminal_configs
                    ),
                    (
                        b.stats.steps,
                        b.stats.expansions,
                        b.stats.peak_configs,
                        b.stats.merge_hits,
                        b.stats.terminal_configs
                    ),
                    "seed {seed}: deterministic stats diverge\n{source}"
                );
                if a.terminals.len() > 1 {
                    nontrivial += 1;
                }
            }
            // Both runs must fail identically, too.
            (Err(ea), Err(eb)) => assert_eq!(
                format!("{ea}"),
                format!("{eb}"),
                "seed {seed}: errors diverge\n{source}"
            ),
            (a, b) => panic!(
                "seed {seed}: one run failed, the other did not \
                 (single: {a:?}, parallel: {b:?})\n{source}"
            ),
        }
    }
    // The generator must produce real probabilistic branching, not a pile
    // of degenerate single-terminal programs.
    assert!(
        nontrivial > SEEDS as u32 / 4,
        "only {nontrivial}/{SEEDS} programs had multiple terminal configs"
    );
}
