//! Unit tests for model analysis (`bayonet_net::opt`): `optimize` never
//! rewrites a program, the topology symmetry group and orbits it finds are
//! pinned through `OptReport` on programs built for each case, and the
//! planner facts it attaches match a fresh traversal. Whole-posterior
//! equivalence of the optimized model is pinned separately by
//! `crates/exact/tests/opt_differential.rs`.

use std::sync::Arc;

use bayonet_lang::{parse, testgen::ProgramGen};
use bayonet_net::opt::{model_facts, optimize, OptReport};
use bayonet_net::{compile, Model};

fn model(src: &str) -> Model {
    compile(&parse(src).expect("parses")).expect("compiles")
}

fn report(src: &str) -> (Model, OptReport) {
    let optimized = optimize(&model(src));
    let report = optimized
        .opt_info()
        .expect("optimize attaches opt_info")
        .report
        .clone();
    (optimized, report)
}

/// Two-node skeleton with handler bodies spliced in.
fn two_node(a_body: &str, b_body: &str) -> String {
    format!(
        r#"
        packet_fields {{ dst }}
        parameters {{ P }}
        topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
        programs {{ A -> a, B -> b }}
        init {{ packet -> (A, pt1); }}
        query probability(got@B == 1);
        def a(pkt, pt) {a_body}
        def b(pkt, pt) {b_body}
        "#
    )
}

const RECV: &str = "state got(0) { got = 1; drop; }";

fn examples_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/bay")
}

#[test]
fn optimize_never_rewrites_a_program() {
    // `optimize` only attaches the symmetry group and the planner facts:
    // every program of the result is the input's own `Arc`, so the engines
    // run exactly the compiled handlers.
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(examples_dir()).expect("examples/bay") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "bay") {
            let text = std::fs::read_to_string(&path).expect("readable example");
            sources.push((path.display().to_string(), text));
        }
    }
    assert!(
        sources.len() >= 7,
        "examples/bay has {} programs",
        sources.len()
    );
    for seed in 0..50 {
        sources.push((
            format!("testgen seed {seed}"),
            ProgramGen::new(seed).generate(),
        ));
        sources.push((
            format!("parameterized testgen seed {seed}"),
            ProgramGen::new_parameterized(seed).generate(),
        ));
    }
    for (name, source) in &sources {
        let m = model(source);
        let optimized = optimize(&m);
        assert!(optimized.opt_info().is_some(), "{name}");
        assert_eq!(optimized.programs.len(), m.programs.len(), "{name}");
        for (i, (got, input)) in optimized.programs.iter().zip(&m.programs).enumerate() {
            assert!(
                Arc::ptr_eq(got, input),
                "{name}: program of node {i} was rewritten"
            );
        }
    }
}

const GOSSIP_K4: &str = r#"
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
fn gossip_k4_has_the_full_peer_symmetry() {
    // S1, S2, S3 are interchangeable (same program, complete graph, and
    // the query sums over all of them): the group is S_3 acting on the
    // peers, order 6, one non-trivial orbit {S1, S2, S3}.
    let (optimized, r) = report(GOSSIP_K4);
    assert_eq!(r.group_order, 6, "{}", r.symmetry_note);
    assert_eq!(r.orbits, vec![vec![1, 2, 3]], "{r:?}");
    let info = optimized.opt_info().unwrap();
    let group = info.symmetry.as_ref().expect("non-trivial group kept");
    assert_eq!(group.order(), 6);
}

#[test]
fn asymmetric_gossip_variant_has_trivial_orbits() {
    // The same K4 gossip shape, but every peer runs a *different* program:
    // no node permutation can preserve behavior, so the symmetry pass must
    // report the trivial group rather than merging observably distinct
    // states.
    let src = GOSSIP_K4.replace(
        "programs { S0 -> seed, S1 -> gossip, S2 -> gossip, S3 -> gossip }",
        "programs { S0 -> seed, S1 -> gossip, S2 -> eager, S3 -> lazy }",
    ) + r#"
    def eager(pkt, pt) state infected(0) {
        if infected == 0 { infected = 1; dup; fwd(1); fwd(2); } else { drop; }
    }
    def lazy(pkt, pt) state infected(0) {
        if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); } else { drop; }
    }
"#;
    let (optimized, r) = report(&src);
    assert_eq!(r.group_order, 1, "{}", r.symmetry_note);
    assert!(r.orbits.is_empty(), "{r:?}");
    assert!(optimized.opt_info().unwrap().symmetry.is_none());
}

#[test]
fn node_state_in_the_query_blocks_asymmetric_permutations() {
    // Querying a single peer's state breaks the S1/S2/S3 symmetry down to
    // the stabilizer of S1: only the {S2, S3} swap survives.
    let src = GOSSIP_K4.replace(
        "query expectation(infected@S0 + infected@S1 + infected@S2 + infected@S3);",
        "query expectation(infected@S1);",
    );
    let (_, r) = report(&src);
    assert_eq!(r.group_order, 2, "{}", r.symmetry_note);
    assert_eq!(r.orbits, vec![vec![2, 3]], "{r:?}");
}

#[test]
fn attached_facts_describe_the_optimized_model() {
    // The planner consumes `opt_info.facts` instead of re-walking the
    // model; they must equal a fresh traversal of the optimized model.
    let src = two_node(
        "state junk(0) { junk = flip(1/2); coin = flip(1/2);
          if coin == 1 { fwd(1); } else { drop; } }",
        RECV,
    );
    let optimized = optimize(&model(&src));
    let cached = &optimized.opt_info().unwrap().facts;
    let fresh = model_facts(&optimized);
    assert_eq!(cached.flip_sites, fresh.flip_sites);
    assert_eq!(cached.uniform_sites, fresh.uniform_sites);
    assert_eq!(cached.dup_sites, fresh.dup_sites);
    assert_eq!(cached.shared_program_nodes, fresh.shared_program_nodes);
    assert!((cached.handler_branching - fresh.handler_branching).abs() < 1e-12);
    // Both flips on node A count, the unread `junk` one included: nothing
    // is removed from the program.
    assert_eq!(cached.flip_sites, 2, "{cached:?}");
}

#[test]
fn single_packet_fact_needs_one_packet_on_every_path() {
    let single = |src: &str| model_facts(&model(src)).single_packet;
    // One packet, at most one `fwd` per path (a branch forwards or drops).
    assert!(single(&two_node(
        "{ if flip(1/2) { fwd(1); } else { drop; } }",
        RECV
    )));
    // `dup` and `new` create packets.
    assert!(!single(&two_node("{ dup; fwd(1); fwd(1); }", RECV)));
    assert!(!single(&two_node("{ new; fwd(1); fwd(1); }", RECV)));
    // A `fwd` inside a loop may run more than once.
    assert!(!single(&two_node(
        "state n(0) { while n < 1 { n = n + 1; fwd(1); } }",
        RECV
    )));
    // A second `init` packet puts two in flight.
    let two_inits = two_node("{ fwd(1); }", RECV).replace(
        "init { packet -> (A, pt1); }",
        "init { packet -> (A, pt1); packet -> (B, pt1); }",
    );
    assert!(!single(&two_inits));
    // Gossip duplicates its packet.
    assert!(!single(GOSSIP_K4));
}

#[test]
fn canonicalize_maps_an_orbit_to_one_representative() {
    use bayonet_net::{initial_config, Val};
    let optimized = optimize(&model(GOSSIP_K4));
    let info = optimized.opt_info().unwrap();
    let group = info.symmetry.as_ref().expect("gossip has a group");
    let zeros: Vec<Vec<Val>> = optimized
        .programs
        .iter()
        .map(|p| vec![Val::zero(); p.state_names.len()])
        .collect();
    // "S2 infected" and "S3 infected" lie in one orbit (the peers are
    // interchangeable): both must canonicalize to the same representative.
    let mut s2_hot = initial_config(&optimized, zeros.clone()).unwrap();
    s2_hot.nodes[2].state[0] = Val::one();
    let mut s3_hot = initial_config(&optimized, zeros).unwrap();
    s3_hot.nodes[3].state[0] = Val::one();
    assert_ne!(s2_hot, s3_hot);
    group.canonicalize(&mut s2_hot);
    group.canonicalize(&mut s3_hot);
    assert_eq!(s2_hot, s3_hot);
    // Canonicalizing a representative again is a no-op.
    let mut again = s2_hot.clone();
    assert!(!group.canonicalize(&mut again));
    assert_eq!(again, s2_hot);
}
