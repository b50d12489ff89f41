//! `engine: "auto"` against measurement: wherever the committed `regress`
//! report (`BENCH_27.json`) shows one exact engine beating the other by at
//! least [`MARGIN`], the planner must pick that engine. Closer calls are
//! left to the cost model; the report's `auto_vs_best` column bounds what
//! they cost.
//!
//! The test re-plans every workload from the same corpus `regress` times
//! (`bayonet_bench::workloads`), so a planner change that would misroute a
//! measured workload fails here without re-running the bench.

use bayonet_bench::workloads::{self, curated};
use bayonet_exact::planner::choose_exact;
use bayonet_exact::EngineKind;
use bayonet_net::opt::optimize;
use bayonet_net::Model;
use bayonet_serve::{parse_json, Json};

/// The committed gate baseline.
const REPORT: &str = include_str!("../../../BENCH_27.json");

/// A measured win at least this large must be routed to.
const MARGIN: f64 = 1.25;

fn rows() -> Vec<Json> {
    let report = parse_json(REPORT).expect("BENCH_27.json is valid JSON");
    report
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("report has workloads")
        .to_vec()
}

fn row<'a>(rows: &'a [Json], name: &str) -> &'a Json {
    rows.iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("BENCH_27.json has no `{name}` row"))
}

fn phase(row: &Json, key: &str) -> f64 {
    row.get("phases")
        .and_then(|p| p.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("row lacks phase `{key}`"))
}

/// Asserts the planner routes `model` to the measured winner when the win
/// clears the margin. Returns whether the row was decisive.
fn assert_routes_to_winner(name: &str, model: &Model, enum_ns: f64, bdd_ns: f64) -> bool {
    let winner = if bdd_ns * MARGIN <= enum_ns {
        EngineKind::Bdd
    } else if enum_ns * MARGIN <= bdd_ns {
        EngineKind::Enum
    } else {
        return false;
    };
    assert_eq!(
        choose_exact(model),
        winner,
        "{name}: measured enum {enum_ns:.0} ns vs bdd {bdd_ns:.0} ns, \
         but auto picks the slower engine"
    );
    true
}

#[test]
fn auto_picks_the_engine_the_committed_bench_measured_fastest() {
    let rows = rows();
    let mut decisive = 0;
    for w in workloads::regress(false) {
        let r = row(&rows, w.name);
        // `analyze` plans `auto` on the optimized model.
        let model = optimize(w.network().model());
        decisive += usize::from(assert_routes_to_winner(
            w.name,
            &model,
            phase(r, "enumerate_ns"),
            phase(r, "bdd_enumerate_ns"),
        ));
    }
    // The unoptimized gossip model: a `"passes": false` request.
    let r = row(&rows, "gossip_k4_noopt_vs_opt");
    let network = curated("gossip_k4_noopt_vs_opt", "gossip_k4.bay").network();
    decisive += usize::from(assert_routes_to_winner(
        "gossip_k4_noopt_vs_opt",
        network.model(),
        phase(r, "noopt_enumerate_ns"),
        phase(r, "noopt_bdd_enumerate_ns"),
    ));
    assert!(
        decisive > 0,
        "no row of BENCH_27.json has a decisive winner"
    );
}

#[test]
fn committed_report_routes_every_workload_within_the_gate() {
    for r in rows() {
        let Some(vs_best) = r.get("auto_vs_best").and_then(Json::as_f64) else {
            continue;
        };
        assert!(
            vs_best <= MARGIN,
            "{}: auto_vs_best {vs_best} above {MARGIN}",
            r.get("name").and_then(Json::as_str).unwrap_or("?")
        );
    }
}
