//! The enumeration engine's exploration counts, pinned per workload.
//!
//! `steps`, `expansions`, `peak_configs`, `merge_hits`, `terminal_configs`
//! and `orbit_merges` are pure functions of the model and options, so a
//! change to how the engine represents or merges states must leave every
//! one of them unchanged unless it means to move them. Since the engine
//! builds a transition DAG, `expansions` is the number of distinct
//! non-terminal states, `peak_configs` the widest exploration level of new
//! states, `merge_hits` the successors that landed on a known state, and
//! `steps` the longest path. The differential
//! suites compare the engine with itself across thread counts, which a
//! representation change that shifts counts would pass; this table
//! compares it with recorded values instead.
//!
//! Rows cover every `regress` workload (with its bindings), every curated
//! `examples/bay` program not already in that corpus, and the two ECMP
//! bindings that dominate the server's `/v1/run` latency.

use bayonet::Rat;
use bayonet_bench::workloads::{self, curated, Workload};
use bayonet_exact::{EngineKind, EngineStats, ExactOptions};

/// `(steps, expansions, peak_configs, merge_hits, terminal_configs,
/// orbit_merges)`.
type Counts = (u64, u64, usize, u64, usize, u64);

const TABLE: &[(&str, Counts)] = &[
    ("lossy_link", (6, 14, 4, 6, 3, 0)),
    ("ecmp_costs", (28, 1465, 143, 2531, 6, 0)),
    ("gossip_k4", (15, 1275, 357, 2944, 3, 2605)),
    ("ttl_triangle", (13, 23, 2, 4, 2, 12)),
    ("fattree_k4", (9, 13, 2, 3, 2, 3)),
    ("firewall_nat", (7, 15, 3, 1, 2, 0)),
    ("reliability_chain_4", (27, 183, 16, 0, 31, 0)),
    ("congestion_chain_7", (92, 232, 4, 21, 1, 0)),
    ("gossip_k4_generated", (15, 1275, 357, 2944, 3, 2605)),
    ("gossip_k5_generated", (19, 18667, 4695, 67875, 4, 64237)),
    ("gossip_k4_sweep", (15, 7455, 2091, 17310, 7, 0)),
    ("ecmp_equal_2_1_1", (28, 794, 88, 1467, 2, 0)),
    ("ecmp_dearer_direct_3_1_1", (28, 457, 34, 727, 2, 0)),
];

fn ecmp(name: &'static str, cost_01: i64) -> Workload {
    Workload {
        bindings: vec![
            ("COST_01", Rat::int(cost_01)),
            ("COST_02", Rat::int(1)),
            ("COST_21", Rat::int(1)),
        ],
        ..curated(name, "ecmp_costs.bay")
    }
}

fn corpus() -> Vec<Workload> {
    let mut ws = workloads::regress(false);
    ws.push(curated("gossip_k4_sweep", "gossip_k4_sweep.bay"));
    ws.push(ecmp("ecmp_equal_2_1_1", 2));
    ws.push(ecmp("ecmp_dearer_direct_3_1_1", 3));
    ws
}

fn counts(stats: &EngineStats) -> Counts {
    (
        stats.steps,
        stats.expansions,
        stats.peak_configs,
        stats.merge_hits,
        stats.terminal_configs,
        stats.orbit_merges,
    )
}

#[test]
fn enumeration_counts_match_the_recorded_table() {
    let opts = ExactOptions {
        engine: EngineKind::Enum,
        ..ExactOptions::default()
    };
    let ws = corpus();
    assert_eq!(ws.len(), TABLE.len(), "one table row per workload");
    let mut mismatches = Vec::new();
    for w in &ws {
        let (_, expected) = TABLE
            .iter()
            .find(|(name, _)| *name == w.name)
            .unwrap_or_else(|| panic!("no table row for `{}`", w.name));
        let analysis = w.network().analyze_with(&opts).expect("analyze");
        let got = counts(&analysis.stats);
        if got != *expected {
            mismatches.push(format!("{}: expected {expected:?}, got {got:?}", w.name));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
