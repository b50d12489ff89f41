//! Golden tests for the static cost-model planner.
//!
//! A table of curated programs pins (a) the engine the planner routes each
//! one to and (b) that the predicted enumeration cost stays within a
//! **documented factor of 32** of the measured expansion count from the
//! engine's own statistics (the CLI's `--stats`). The model is calibrated,
//! not clairvoyant: it systematically overestimates small state spaces
//! (merging is most effective there), so the tolerance is wide but the
//! *routing* — the thing posteriors and deadlines depend on — is pinned
//! exactly. Every pinned route is the engine the `regress` bench measures
//! fastest; `crates/bench/tests/routing.rs` checks the planner against the
//! committed bench report itself.

use std::time::Duration;

use bayonet_exact::{
    analyze, answer, plan_model, sweep, EngineKind, ExactOptions, PlanDecision, PlanEngine,
    PlannerConfig, SweepRoute,
};
use bayonet_lang::parse;
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_num::Rat;

mod common;

/// Documented accuracy bound: predicted expansions stay within this factor
/// of the measured count, in both directions (see docs/PERFORMANCE.md).
const COST_FACTOR: f64 = 32.0;

const TINY: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

/// Local copy of the `bayonet::scenarios` gossip generator (the core crate
/// depends on this one, so the test cannot import it).
fn gossip_source(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    let mut links = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            links.push(format!("(S{i}, pt{}) <-> (S{j}, pt{})", j, i + 1));
        }
    }
    let mut programs = vec!["S0 -> seed".to_string()];
    for node in nodes.iter().skip(1) {
        programs.push(format!("{node} -> gossip"));
    }
    let sum = (0..n)
        .map(|i| format!("infected@S{i}"))
        .collect::<Vec<_>>()
        .join(" + ");
    let deg = n - 1;
    format!(
        r#"
packet_fields {{ dst }}
topology {{ nodes {{ {nodes} }} links {{ {links} }} }}
programs {{ {programs} }}
queue_capacity 2;
init {{ packet -> (S0, pt1); }}
query expectation({sum});
def seed(pkt, pt) state infected(0) {{
    if infected == 0 {{ infected = 1; fwd(uniformInt(1, {deg})); }} else {{ drop; }}
}}
def gossip(pkt, pt) state infected(0) {{
    if infected == 0 {{
        infected = 1; dup; fwd(uniformInt(1, {deg})); fwd(uniformInt(1, {deg}));
    }} else {{ drop; }}
}}
"#,
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
    )
}

/// A deterministic relay chain of `n` nodes: one packet hops end to end.
fn chain_source(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|i| format!("N{i}")).collect();
    let links: Vec<String> = (0..n - 1)
        .map(|i| format!("(N{i}, pt2) <-> (N{}, pt1)", i + 1))
        .collect();
    let mut programs = vec![format!("N0 -> relay"), format!("N{} -> sink", n - 1)];
    for node in nodes.iter().take(n - 1).skip(1) {
        programs.push(format!("{node} -> relay"));
    }
    format!(
        r#"
packet_fields {{ dst }}
topology {{ nodes {{ {nodes} }} links {{ {links} }} }}
programs {{ {programs} }}
scheduler roundrobin;
init {{ packet -> (N0, pt1); }}
query probability(done@N{last} == 1);
def relay(pkt, pt) {{ fwd(2); }}
def sink(pkt, pt) state done(0) {{ done = 1; drop; }}
"#,
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
        last = n - 1,
    )
}

fn model_of(source: &str) -> Model {
    compile(&parse(source).expect("parse")).expect("compile")
}

fn example(file: &str) -> String {
    std::fs::read_to_string(format!(
        "{}/../../examples/bay/{file}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap_or_else(|e| panic!("read {file}: {e}"))
}

/// `fattree_k4.bay` with its loss rate bound, as `run_miss` sends it.
fn fattree_k4() -> Model {
    let mut model = model_of(&example("fattree_k4.bay"));
    model
        .bind_param("P_LOSS", Rat::ratio(1, 10))
        .expect("bind P_LOSS");
    model
}

/// Expansions of `model` exactly as planned: optimized rows already carry
/// their pass results, and unoptimized rows must not be optimized here.
fn measured_expansions(model: &Model, engine: EngineKind) -> u64 {
    let opts = ExactOptions {
        engine,
        passes: false,
        ..ExactOptions::default()
    };
    let analysis = analyze(model, &*scheduler_for(model), &opts).expect("analyze");
    analysis.stats.expansions
}

/// The golden table: program → pinned engine, with predicted-vs-measured
/// accuracy asserted for every row cheap enough to run under the debug
/// profile (`measure: false` rows pin routing only; gossip_k5 enumerates
/// half a million configurations, which the release-mode `regress` harness
/// times instead).
///
/// Every row routes to enumeration: `auto` does not price the diagram
/// backend, which measured slower with and without the passes (`regress`'s
/// `gossip_k4_noopt_vs_opt` row in `BENCH_26.json`: 12.9 ms against
/// 46.8 ms unoptimized).
#[test]
fn golden_table_pins_routing_and_cost_accuracy() {
    struct Row {
        name: &'static str,
        model: Model,
        expect: PlanEngine,
        measure: bool,
    }
    let rows = [
        Row {
            name: "tiny",
            model: model_of(TINY),
            expect: PlanEngine::Enum,
            measure: true,
        },
        Row {
            name: "gossip_k4",
            model: model_of(&gossip_source(4)),
            expect: PlanEngine::Enum,
            measure: true,
        },
        Row {
            name: "gossip_k5",
            model: model_of(&gossip_source(5)),
            expect: PlanEngine::Enum,
            measure: false,
        },
        Row {
            name: "gossip_k4_optimized",
            model: optimize(&model_of(&gossip_source(4))),
            expect: PlanEngine::Enum,
            measure: true,
        },
        Row {
            name: "gossip_k5_optimized",
            model: optimize(&model_of(&gossip_source(5))),
            expect: PlanEngine::Enum,
            measure: false,
        },
        Row {
            name: "fattree_k4_optimized",
            model: optimize(&fattree_k4()),
            expect: PlanEngine::Enum,
            measure: true,
        },
        Row {
            name: "chain_70",
            model: model_of(&chain_source(70)),
            expect: PlanEngine::Enum,
            measure: true,
        },
    ];
    let cfg = PlannerConfig::default();
    for row in &rows {
        let model = &row.model;
        let plan = plan_model(model, &cfg, None);
        assert_eq!(
            plan.engine(),
            Some(row.expect),
            "{}: wrong route\n{}",
            row.name,
            plan.explain()
        );
        if row.measure {
            let measured = measured_expansions(model, EngineKind::Enum).max(1);
            let ratio = plan.est_expansions as f64 / measured as f64;
            assert!(
                (1.0 / COST_FACTOR..=COST_FACTOR).contains(&ratio),
                "{}: predicted {} vs measured {} expansions (ratio {:.2}) \
                 outside the documented {}x envelope\n{}",
                row.name,
                plan.est_expansions,
                measured,
                ratio,
                COST_FACTOR,
                plan.explain()
            );
        }
    }
}

/// `EngineKind::Auto` resolves through the planner inside `analyze`, and
/// the posterior is bit-identical to the explicitly chosen backend.
#[test]
fn auto_engine_matches_explicit_choice() {
    for source in [TINY.to_string(), gossip_source(4)] {
        let model = model_of(&source);
        let auto = analyze(
            &model,
            &*scheduler_for(&model),
            &ExactOptions {
                engine: EngineKind::Auto,
                ..ExactOptions::default()
            },
        )
        .expect("auto analyze");
        let chosen = match plan_model(&model, &PlannerConfig::default(), None).engine() {
            Some(PlanEngine::Enum) => EngineKind::Enum,
            other => panic!("auto must plan an exact enumeration, got {other:?}"),
        };
        let explicit = analyze(
            &model,
            &*scheduler_for(&model),
            &ExactOptions {
                engine: chosen,
                ..ExactOptions::default()
            },
        )
        .expect("explicit analyze");
        assert_eq!(auto.terminals, explicit.terminals);
        assert_eq!(auto.discarded, explicit.discarded);
        assert_eq!(auto.stats.steps, explicit.stats.steps);
        assert_eq!(auto.stats.expansions, explicit.stats.expansions);
    }
}

/// A multi-point `auto` sweep takes a shared route — only enumeration has
/// one — with the passes on and off, and every point matches an
/// independent auto-routed pointwise run.
#[test]
fn auto_sweep_takes_a_shared_route() {
    let model = model_of(&example("gossip_k4_sweep.bay"));
    let k = model.params.lookup("K").expect("K is declared");
    let points: Vec<Vec<Rat>> = (1..=4).map(|k| vec![Rat::int(k)]).collect();
    for passes in [true, false] {
        let opts = ExactOptions {
            engine: EngineKind::Auto,
            passes,
            ..ExactOptions::default()
        };
        let result = sweep(&model, &[k], &points, &opts).expect("sweep");
        assert!(
            matches!(result.route, SweepRoute::Symbolic | SweepRoute::Prefix),
            "passes={passes}: auto sweep fell to {:?}",
            result.route
        );
        assert_eq!(result.engine, EngineKind::Enum, "passes={passes}");
        for (point, got) in points.iter().zip(&result.points) {
            let got = got.as_ref().expect("sweep point");
            let mut bound = model.clone();
            bound.bind_param("K", point[0].clone()).expect("bind K");
            let analysis = analyze(&bound, &*scheduler_for(&bound), &opts).expect("pointwise");
            let want: Vec<String> = bound
                .queries
                .iter()
                .map(|q| {
                    answer(&bound, &analysis, q, opts.fm_pruning)
                        .expect("answer")
                        .to_string()
                })
                .collect();
            let got_rendered: Vec<String> = got.results.iter().map(|r| r.to_string()).collect();
            assert_eq!(got_rendered, want, "passes={passes}, point {point:?}");
            assert_eq!(got.z, analysis.total_terminal_mass());
            assert_eq!(got.discarded, analysis.total_discarded_mass());
        }
    }
}

/// Deadline admission: a budget nothing can meet is rejected up front; a
/// budget only sampling can meet routes to SMC with the error-bounded
/// particle count; symbolic parameters keep the request on exact engines.
#[test]
fn budget_routing_and_admission() {
    let k5 = model_of(&gossip_source(5));
    let cfg = PlannerConfig::default();

    // Exact estimates for gossip_k5 are far beyond 1 s, but SMC is linear
    // and fits: the planner falls back to sampling.
    let plan = plan_model(&k5, &cfg, Some(Duration::from_secs(1)));
    assert_eq!(plan.engine(), Some(PlanEngine::Smc), "{}", plan.explain());
    let expected_n = (0.25 / (cfg.target_std_error * cfg.target_std_error)).ceil() as usize;
    assert_eq!(
        plan.particles,
        Some(expected_n.clamp(cfg.min_particles, cfg.max_particles))
    );

    // A nanosecond budget admits nothing: structured rejection, with the
    // cheapest estimate attached so the caller can report what was needed.
    let plan = plan_model(&k5, &cfg, Some(Duration::from_nanos(1)));
    match plan.decision {
        PlanDecision::Infeasible { needed_ns } => assert!(needed_ns > 1),
        other => panic!("expected infeasible, got {other:?}\n{}", plan.explain()),
    }

    // Unlimited budget: exact inference is preferred whenever its estimate
    // sits under the SMC cutover, even when sampling would be cheaper.
    let plan = plan_model(&k5, &cfg, None);
    assert_eq!(plan.engine(), Some(PlanEngine::Enum), "{}", plan.explain());

    // Symbolic parameters rule sampling out entirely.
    let ecmp = model_of(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/bay/ecmp_costs.bay"
        ))
        .expect("read ecmp_costs.bay"),
    );
    let plan = plan_model(&ecmp, &cfg, None);
    assert!(plan.signals.symbolic_params);
    assert!(plan.est_smc_ns.is_none() && plan.particles.is_none());
}

/// The deadline decision on the symmetric models where it binds. Optimized
/// gossip measured about 0.15 s on K5 and 17.6 s on K6 (CLI `--stats`,
/// release build, 2-vCPU host), where the cost of canonicalizing every
/// successor against each group element dominates. A budget below the
/// measured wall time must not start an exact run that the deadline would
/// interrupt; a budget comfortably above it must run exact. K5's estimate
/// sits about 10x over its wall time, so between those budgets it errs
/// toward sampling, never toward an interrupted run.
#[test]
fn optimized_gossip_budget_routing_follows_measured_wall_time() {
    let cfg = PlannerConfig::default();
    let cases = [
        (5, Duration::from_millis(100), None),
        (5, Duration::from_secs(2), Some(PlanEngine::Enum)),
        (6, Duration::from_secs(10), Some(PlanEngine::Smc)),
        (6, Duration::from_secs(30), Some(PlanEngine::Enum)),
    ];
    for (n, budget, want) in cases {
        let model = optimize(&model_of(&gossip_source(n)));
        let plan = plan_model(&model, &cfg, Some(budget));
        assert!(plan.signals.symmetry_group_order > 1, "K{n}: no symmetry");
        assert_eq!(
            plan.engine(),
            want,
            "K{n} under {budget:?}\n{}",
            plan.explain()
        );
    }
}
