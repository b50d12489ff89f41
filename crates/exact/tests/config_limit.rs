//! The initial distribution is charged against `max_configs` before it is
//! allocated. Four nodes with a 1,000-way random initializer each make a
//! 10¹²-entry product; building it would abort the process on allocation
//! failure instead of returning an error. This lives in its own test binary
//! so that such a regression aborts only this binary.
//!
//! The run's state store, which keeps every node configuration the run has
//! seen, is charged against the same limit: a long run over a one-entry
//! frontier must not grow it without bound. So is one handler enumeration:
//! a `uniformInt` draw is charged its whole range before any branch is
//! queued.

use bayonet_exact::{analyze, EngineKind, ExactError, ExactOptions};
use bayonet_lang::parse;
use bayonet_net::{compile, scheduler_for, Deadline};
use std::time::Duration;

const WIDE_INIT: &str = r#"
packet_fields { dst }
topology {
    nodes { A, B, C, D }
    links { (A, pt1) <-> (B, pt1), (C, pt1) <-> (D, pt1) }
}
programs { A -> n, B -> n, C -> n, D -> n }
init { packet -> (A, pt1); }
query probability(x@A == 0);
def n(pkt, pt) state x(uniformInt(0, 999)) { drop; }
"#;

#[test]
fn initializer_product_hits_the_config_limit() {
    let model = compile(&parse(WIDE_INIT).unwrap()).unwrap();
    for engine in [EngineKind::Enum, EngineKind::Bdd, EngineKind::Auto] {
        let opts = ExactOptions {
            engine,
            ..ExactOptions::default()
        };
        match analyze(&model, &*scheduler_for(&model), &opts) {
            Err(ExactError::ConfigLimit(n)) => assert_eq!(n, opts.max_configs),
            other => panic!("{engine:?}: expected ConfigLimit, got {other:?}"),
        }
    }
}

#[test]
fn a_product_within_the_limit_still_runs() {
    // The same shape at 10 values per node: 10⁴ initial configurations.
    let source = WIDE_INIT.replace("999", "9");
    let model = compile(&parse(&source).unwrap()).unwrap();
    let analysis = analyze(&model, &*scheduler_for(&model), &ExactOptions::default()).unwrap();
    assert_eq!(analysis.total_terminal_mass(), bayonet_num::Rat::one());
}

/// Two nodes bounce one packet, each counting its hops: one frontier entry
/// per step, but two new node configurations per round trip.
const BOUNCE: &str = r#"
packet_fields { dst }
topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
programs { A -> hop, B -> hop }
init { packet -> (A, pt1); }
query expectation(c@A);
def hop(pkt, pt) state c(0) {
    c = c + 1;
    if c < 2000 { fwd(1); } else { drop; }
}
"#;

#[test]
fn a_growing_state_store_hits_the_config_limit() {
    let model = compile(&parse(BOUNCE).unwrap()).unwrap();
    for engine in [EngineKind::Enum, EngineKind::Bdd] {
        let opts = ExactOptions {
            engine,
            max_configs: 1_000,
            ..ExactOptions::default()
        };
        match analyze(&model, &*scheduler_for(&model), &opts) {
            Err(ExactError::ConfigLimit(1_000)) => {}
            other => panic!("{engine:?}: expected ConfigLimit, got {other:?}"),
        }
        let unbounded = ExactOptions {
            engine,
            ..ExactOptions::default()
        };
        let analysis = analyze(&model, &*scheduler_for(&model), &unbounded).unwrap();
        assert_eq!(analysis.stats.peak_configs, 1, "{engine:?}");
    }
}

/// One handler draw over a hundred million values: enumerating it would
/// queue one pending branch per value.
const WIDE_DRAW: &str = r#"
packet_fields { dst }
topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
programs { A -> n, B -> n }
init { packet -> (A, pt1); }
query probability(x@A == 0);
def n(pkt, pt) state x(0) { x = uniformInt(0, 100000000); drop; }
"#;

#[test]
fn a_wide_handler_draw_hits_the_config_limit() {
    let model = compile(&parse(WIDE_DRAW).unwrap()).unwrap();
    for engine in [EngineKind::Enum, EngineKind::Bdd, EngineKind::Auto] {
        let opts = ExactOptions {
            engine,
            ..ExactOptions::default()
        };
        match analyze(&model, &*scheduler_for(&model), &opts) {
            Err(ExactError::ConfigLimit(n)) => assert_eq!(n, opts.max_configs),
            other => panic!("{engine:?}: expected ConfigLimit, got {other:?}"),
        }
    }
}

#[test]
fn a_long_handler_enumeration_polls_the_deadline() {
    // Within the limit, but far longer to enumerate than the deadline.
    let source = WIDE_DRAW.replace("100000000", "199999");
    let model = compile(&parse(&source).unwrap()).unwrap();
    let opts = ExactOptions {
        deadline: Deadline::after(Duration::from_millis(5)),
        ..ExactOptions::default()
    };
    match analyze(&model, &*scheduler_for(&model), &opts) {
        Err(ExactError::Interrupted { .. }) => {}
        other => panic!("expected Interrupted, got {other:?}"),
    }
}
