//! Tests for engine features beyond the core benchmarks: the stateful
//! rotor scheduler, source-level `num_steps` bounds, symbolic expectation
//! values, engine diagnostics, and the transition DAG's cycle and
//! longest-path checks.

use std::time::Duration;

use bayonet_exact::{analyze, answer, render_run, EngineKind, ExactError, ExactOptions};
use bayonet_lang::parse;
use bayonet_lang::testgen::ProgramGen;
use bayonet_net::{compile, scheduler_for, Deadline, Model, Val};
use bayonet_num::Rat;

mod common;

fn model(src: &str) -> Model {
    compile(&parse(src).unwrap()).unwrap()
}

fn value(m: &Model, idx: usize) -> Rat {
    let analysis = analyze(m, &*scheduler_for(m), &common::test_options()).unwrap();
    answer(m, &analysis, &m.queries[idx], true)
        .unwrap()
        .rat()
        .clone()
}

const GOSSIP_K4_HEADER: &str = r#"
    packet_fields { dst }
    topology {
        nodes { S0, S1, S2, S3 }
        links {
            (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
            (S0, pt3) <-> (S3, pt1), (S1, pt2) <-> (S2, pt2),
            (S1, pt3) <-> (S3, pt2), (S2, pt3) <-> (S3, pt3)
        }
    }
    programs { S0 -> seed, S1 -> gossip, S2 -> gossip, S3 -> gossip }
"#;

const GOSSIP_BODY: &str = r#"
    init { packet -> (S0, pt1); }
    query expectation(infected@S0 + infected@S1 + infected@S2 + infected@S3);
    def seed(pkt, pt) state infected(0) {
        if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); } else { drop; }
    }
    def gossip(pkt, pt) state infected(0) {
        if infected == 0 {
            infected = 1; dup;
            fwd(uniformInt(1, 3)); fwd(uniformInt(1, 3));
        } else { drop; }
    }
"#;

#[test]
fn rotor_scheduler_gives_the_scheduler_independent_gossip_value() {
    // The rotor scheduler is stateful (its cursor lives in the global
    // configuration); gossip's expectation is schedule-independent, so this
    // exercises scheduler state threading end to end.
    let src = format!("{GOSSIP_K4_HEADER} scheduler rotor; {GOSSIP_BODY}");
    let m = model(&src);
    assert_eq!(value(&m, 0), Rat::ratio(94, 27));
}

#[test]
fn rotor_scheduler_is_deterministic_but_fair() {
    // Under rotor, only program randomness remains: the analysis of the
    // seed-only network has exactly 3 terminals (one per first hop).
    let src = format!("{GOSSIP_K4_HEADER} scheduler rotor; {GOSSIP_BODY}");
    let m = model(&src);
    // Compare raw trace trees: symmetry reduction (uniform-scheduler only)
    // would mask the scheduler-branching effect this test measures.
    let opts = bayonet_exact::ExactOptions {
        passes: false,
        ..common::test_options()
    };
    let analysis = analyze(&m, &*scheduler_for(&m), &opts).unwrap();
    // Every step is deterministic except uniformInt draws: the trace tree
    // has far fewer configurations than under the uniform scheduler.
    let uniform_src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let uni = model(&uniform_src);
    let uni_analysis = analyze(&uni, &*scheduler_for(&uni), &opts).unwrap();
    assert!(analysis.stats.peak_configs < uni_analysis.stats.peak_configs);
}

#[test]
fn num_steps_bound_too_small_reports_untermination() {
    // Mirrors the paper's assert(terminated()) after `num_steps` steps.
    let src = r#"
        packet_fields { dst }
        num_steps 1;
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> fwd1, B -> sink }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def fwd1(pkt, pt) { fwd(1); }
        def sink(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    let err = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap_err();
    assert!(matches!(err, ExactError::Unterminated { .. }), "{err}");
}

#[test]
fn num_steps_bound_large_enough_succeeds() {
    let src = r#"
        packet_fields { dst }
        num_steps 8;
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> fwd1, B -> sink }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def fwd1(pkt, pt) { fwd(1); }
        def sink(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    assert_eq!(value(&m, 0), Rat::one());
}

#[test]
fn expectation_of_a_symbolic_state_is_a_linear_expression() {
    let src = r#"
        packet_fields { dst }
        parameters { COST }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query expectation(x@A);
        def a(pkt, pt) state x(0) {
            if flip(1/2) { x = COST; } else { x = COST + 2; }
            drop;
        }
        def b(pkt, pt) { drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let result = answer(&m, &analysis, &m.queries[0], true).unwrap();
    // E[x] = COST + 1, a symbolic value on the single (trivial) cell.
    assert_eq!(result.cells.len(), 1);
    let Some(Val::Sym(e)) = &result.cells[0].value else {
        panic!(
            "expected a symbolic expectation, got {:?}",
            result.cells[0].value
        );
    };
    let cost = m.params.lookup("COST").unwrap();
    assert_eq!(e.coeff(cost), Rat::one());
    assert_eq!(*e.constant_part(), Rat::one());
}

#[test]
fn probability_query_splitting_on_symbolic_state() {
    // The query itself compares symbolic state with a constant: the answer
    // is piecewise over sign(COST - 5).
    let src = r#"
        packet_fields { dst }
        parameters { COST }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query probability(x@A < 5);
        def a(pkt, pt) state x(0) {
            if flip(1/3) { x = COST; } else { x = 7; }
            drop;
        }
        def b(pkt, pt) { drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let result = answer(&m, &analysis, &m.queries[0], true).unwrap();
    assert_eq!(result.cells.len(), 3);
    let vals: Vec<Rat> = result
        .cells
        .iter()
        .map(|c| c.value.as_ref().unwrap().as_rat().unwrap().clone())
        .collect();
    // COST < 5: P = 1/3 (x=COST qualifies); COST == 5 or COST > 5: P = 0.
    assert_eq!(vals[0], Rat::ratio(1, 3));
    assert_eq!(vals[1], Rat::zero());
    assert_eq!(vals[2], Rat::zero());
}

#[test]
fn engine_stats_are_plausible() {
    let src = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def a(pkt, pt) { if flip(1/2) { fwd(1); } else { drop; } }
        def b(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    assert!(analysis.stats.steps >= 3);
    assert!(analysis.stats.expansions >= 3);
    assert_eq!(analysis.stats.terminal_configs, 2); // delivered vs dropped
    assert!(analysis.stats.peak_configs >= 1);
}

#[test]
fn config_limit_is_enforced() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            max_configs: 10,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::ConfigLimit(10)));
}

#[test]
fn parallel_expansion_matches_single_threaded() {
    // Parallel frontier expansion must be a pure performance knob: the
    // posterior is identical (merging happens after the parallel phase).
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let single = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let parallel = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let a = answer(&m, &single, &m.queries[0], true).unwrap();
    let b = answer(&m, &parallel, &m.queries[0], true).unwrap();
    assert_eq!(a.rat(), b.rat());
    assert_eq!(single.total_terminal_mass(), parallel.total_terminal_mass());
}

#[test]
fn expired_deadline_interrupts_analysis() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline: bayonet_net::Deadline::after(std::time::Duration::ZERO),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::Interrupted { .. }), "{err}");
    assert!(err.to_string().contains("interrupted by deadline"), "{err}");
}

#[test]
fn cancel_handle_interrupts_analysis() {
    // A pre-cancelled handle is indistinguishable from a deadline that
    // fired mid-run: the engine must stop at its next poll point.
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let mut deadline = bayonet_net::Deadline::unlimited();
    let handle = deadline.cancel_handle();
    handle.cancel();
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::Interrupted { .. }), "{err}");
}

#[test]
fn unlimited_deadline_changes_nothing() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let analysis = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline: bayonet_net::Deadline::unlimited(),
            ..Default::default()
        },
    )
    .unwrap();
    let v = answer(&m, &analysis, &m.queries[0], true).unwrap();
    assert_eq!(v.rat().clone(), Rat::ratio(94, 27));
}

/// Two stateless nodes bounce one packet; each hop continues with
/// probability 1/2, so the chain returns to its initial state forever with
/// positive mass.
const BOUNCE_CYCLE: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> bounce, B -> bounce }
    init { packet -> (A, pt1); }
    query probability(1 == 1);
    def bounce(pkt, pt) { if flip(1/2) { fwd(1); } else { drop; } }
"#;

fn enum_options() -> ExactOptions {
    ExactOptions {
        engine: EngineKind::Enum,
        ..common::test_options()
    }
}

#[test]
fn a_reachable_cycle_is_unterminated_without_walking_the_bound() {
    let m = model(BOUNCE_CYCLE);
    // No step bound at all: a step-by-step walk would never stop, and the
    // deadline would report `Interrupted` instead.
    let opts = ExactOptions {
        max_global_steps: u64::MAX,
        deadline: Deadline::after(Duration::from_secs(20)),
        ..enum_options()
    };
    match analyze(&m, &*scheduler_for(&m), &opts) {
        Err(ExactError::Unterminated { live_configs, .. }) => assert!(live_configs > 0),
        other => panic!("expected Unterminated, got {other:?}"),
    }
}

/// A reaches B directly or through C, so traces take different numbers of
/// steps to terminate.
fn detour_source(num_steps: u64) -> String {
    format!(
        r#"
        packet_fields {{ dst }}
        num_steps {num_steps};
        topology {{
            nodes {{ A, B, C }}
            links {{ (A, pt1) <-> (B, pt1), (A, pt2) <-> (C, pt1), (C, pt2) <-> (B, pt2) }}
        }}
        programs {{ A -> split, B -> sink, C -> relay }}
        init {{ packet -> (A, pt1); }}
        query probability(got@B == 1);
        def split(pkt, pt) {{ if flip(1/2) {{ fwd(1); }} else {{ fwd(2); }} }}
        def relay(pkt, pt) {{ fwd(2); }}
        def sink(pkt, pt) state got(0) {{ got = 1; drop; }}
    "#
    )
}

#[test]
fn num_steps_bounds_the_longest_path() {
    let unbounded = model(&detour_source(1000));
    let analysis = analyze(&unbounded, &*scheduler_for(&unbounded), &enum_options()).unwrap();
    let longest = analysis.stats.steps;
    // Direct: run A, fwd A, run B (3 steps); the detour adds C's run and
    // forward (5 steps).
    assert_eq!(longest, 5);

    let exact = model(&detour_source(longest));
    assert_eq!(value(&exact, 0), Rat::one());
    let m = model(&detour_source(longest - 1));
    let err = analyze(&m, &*scheduler_for(&m), &enum_options()).unwrap_err();
    assert!(matches!(err, ExactError::Unterminated { .. }), "{err}");
}

/// The transition DAG against plain tree enumeration (`merge_configs:
/// false`, every successor a new state) on the generated corpus: the same
/// posterior, the same rendered answers and the same longest path.
#[test]
fn the_dag_matches_tree_enumeration_on_generated_programs() {
    let run = |source: &str, merge: bool| {
        let m = model(source);
        let opts = ExactOptions {
            merge_configs: merge,
            ..enum_options()
        };
        analyze(&m, &*scheduler_for(&m), &opts).map(|a| {
            let results: Vec<_> = m
                .queries
                .iter()
                .map(|q| answer(&m, &a, q, true).expect("query answers"))
                .collect();
            let text = render_run(
                &results,
                &a.total_terminal_mass(),
                &a.total_discarded_mass(),
                None,
            );
            (a, text)
        })
    };
    let mut shared = 0;
    for seed in 0..200 {
        let source = ProgramGen::new(seed).generate();
        match (run(&source, true), run(&source, false)) {
            (Ok((dag, dag_text)), Ok((tree, tree_text))) => {
                assert_eq!(dag.terminals, tree.terminals, "seed {seed}");
                assert_eq!(dag.discarded, tree.discarded, "seed {seed}");
                assert_eq!(dag_text, tree_text, "seed {seed}");
                assert_eq!(dag.stats.steps, tree.stats.steps, "seed {seed}");
                assert_eq!(
                    dag.stats.terminal_configs, tree.stats.terminal_configs,
                    "seed {seed}"
                );
                assert!(dag.stats.expansions <= tree.stats.expansions);
                shared += usize::from(dag.stats.expansions < tree.stats.expansions);
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "seed {seed}"),
            (a, b) => panic!("seed {seed}: {:?} vs {:?}", a.err(), b.err()),
        }
    }
    assert!(shared > 20, "only {shared} programs share any state");
}
