//! Differential testing: the direct exact engine (state-merging explorer)
//! against the PSI backend (translation + trace enumeration) must compute
//! identical posteriors. This validates the paper's central claim — that
//! network inference can be phrased, without loss, as inference on a
//! translated probabilistic program (§4).

use bayonet_exact::{analyze, answer, ExactOptions};
use bayonet_lang::parse;
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_num::Rat;
use bayonet_psi::{infer_query, translate, DEFAULT_STEP_LIMIT};

fn model(src: &str) -> Model {
    compile(&parse(src).unwrap()).unwrap()
}

/// Asserts every query of `model` agrees between the two backends.
fn assert_backends_agree(m: &Model) {
    let analysis = analyze(m, &*scheduler_for(m), &ExactOptions::default()).unwrap();
    for query in &m.queries {
        let direct = answer(m, &analysis, query, true).unwrap().rat().clone();
        let program = translate(m, query).unwrap();
        let via_psi = infer_query(&program, query.kind, DEFAULT_STEP_LIMIT).unwrap();
        assert_eq!(
            direct, via_psi,
            "backend mismatch on {:?}: direct={direct}, psi={via_psi}",
            query.source
        );
    }
}

#[test]
fn coin_forwarding() {
    let m = model(
        r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        query expectation(got@B);
        def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
        def recv(pkt, pt) state got(0) { got = 1; drop; }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn reliability_diamond() {
    let m = model(
        r#"
        packet_fields { dst }
        topology {
            nodes { H0, S0, S1, S2, S3, H1 }
            links {
                (H0, pt1) <-> (S0, pt1),
                (S0, pt2) <-> (S1, pt1),
                (S0, pt3) <-> (S2, pt1),
                (S1, pt2) <-> (S3, pt1),
                (S2, pt2) <-> (S3, pt2),
                (S3, pt3) <-> (H1, pt1)
            }
        }
        programs { H0 -> h0, S0 -> s0, S1 -> s1, S2 -> s2, S3 -> s3, H1 -> h1 }
        init { packet -> (H0, pt1); }
        query probability(arrived@H1);
        def h0(pkt, pt) { fwd(1); }
        def s0(pkt, pt) { if flip(1/2) { fwd(2); } else { fwd(3); } }
        def s1(pkt, pt) { fwd(2); }
        def s2(pkt, pt) state failing(2) {
            if failing == 2 { failing = flip(1/1000); }
            if failing == 1 { drop; } else { fwd(2); }
        }
        def s3(pkt, pt) { fwd(3); }
        def h1(pkt, pt) state arrived(0) { arrived = 1; drop; }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn congestion_with_capacity_one() {
    // Two packets race through a capacity-1 relay: drops depend on the
    // scheduler interleaving — exercises capacity handling end to end.
    let m = model(
        r#"
        packet_fields { dst }
        queue_capacity 1;
        topology {
            nodes { A, B, C }
            links { (A, pt1) <-> (B, pt1), (B, pt2) <-> (C, pt1) }
        }
        programs { A -> src, B -> relay, C -> sink }
        init { packet -> (A, pt1); }
        query probability(got@C < 2);
        query expectation(got@C);
        def src(pkt, pt) state sent(0) {
            if sent < 2 {
                sent = sent + 1;
                fwd(1);
                if sent < 2 { new; }
            } else { drop; }
        }
        def relay(pkt, pt) { fwd(2); }
        def sink(pkt, pt) state got(0) { got = got + 1; drop; }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn observation_posteriors_agree() {
    let m = model(
        r#"
        packet_fields { id }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(mode@A == 1);
        def send(pkt, pt) state mode(flip(1/4)), sent(0) {
            if sent < 2 {
                sent = sent + 1;
                dup;
                pkt.id = sent;
                if mode == 1 { fwd(1); }
                else { if flip(1/2) { fwd(1); } else { drop; } }
            } else { drop; }
        }
        def recv(pkt, pt) state seen(0) {
            seen = seen + 1;
            observe(pkt.id == seen);
            drop;
        }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn assert_error_states_agree() {
    let m = model(
        r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query probability(x@A == 5);
        def a(pkt, pt) state x(0) {
            if flip(1/4) { x = 5; assert(0); x = 7; }
            else { x = 2; drop; }
        }
        def b(pkt, pt) { drop; }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn deterministic_scheduler_agrees() {
    let m = model(
        r#"
        packet_fields { dst }
        scheduler roundrobin;
        queue_capacity 1;
        topology {
            nodes { A, B, C }
            links { (A, pt1) <-> (B, pt1), (B, pt2) <-> (C, pt1) }
        }
        programs { A -> src, B -> relay, C -> sink }
        init { packet -> (A, pt1); }
        query expectation(got@C);
        def src(pkt, pt) state sent(0) {
            if sent < 2 {
                sent = sent + 1;
                fwd(1);
                if sent < 2 { new; }
            } else { drop; }
        }
        def relay(pkt, pt) { if flip(1/2) { fwd(2); } else { drop; } }
        def sink(pkt, pt) state got(0) { got = got + 1; drop; }
        "#,
    );
    assert_backends_agree(&m);
}

#[test]
fn while_loops_agree() {
    let m = model(
        r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query expectation(total@A);
        def a(pkt, pt) state total(0) {
            n = uniformInt(1, 3);
            while n > 0 {
                total = total + n;
                n = n - 1;
            }
            drop;
        }
        def b(pkt, pt) { drop; }
        "#,
    );
    // E[n(n+1)/2] for n ~ U{1,2,3} = (1 + 3 + 6)/3 = 10/3.
    let analysis = analyze(&m, &*scheduler_for(&m), &ExactOptions::default()).unwrap();
    let direct = answer(&m, &analysis, &m.queries[0], true)
        .unwrap()
        .rat()
        .clone();
    assert_eq!(direct, Rat::ratio(10, 3));
    assert_backends_agree(&m);
}

#[test]
fn generated_source_mentions_structure() {
    let m = model(
        r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def send(pkt, pt) { if flip(1/2) { fwd(1); } else { drop; } }
        def recv(pkt, pt) state got(0) { got = 1; drop; }
        "#,
    );
    let psi = bayonet_psi::to_psi(&m);
    assert!(psi.contains("dat send"));
    assert!(psi.contains("dat Network"));
    assert!(psi.contains("def scheduler()"));
    assert!(psi.contains("assert(terminated())"));
    let webppl = bayonet_psi::to_webppl(&m);
    assert!(webppl.contains("Infer({method: 'SMC', particles: 1000}"));
    assert!(webppl.contains("var run_send"));
    // §5: generated code is larger than the Bayonet source.
    let bayonet_len = 300; // roughly the source above
    assert!(psi.len() > bayonet_len);
    assert!(webppl.len() > bayonet_len);
}

#[test]
fn data_dependent_fwd_ports_agree() {
    // Regression for the Fwd translation: the port expression reads the
    // pre-pop head (`pt`, `pkt.f`), so it must be materialized before the
    // pop. B echoes every packet back out the port it arrived on.
    let m = model(
        r#"
        packet_fields { hops }
        topology {
            nodes { A, B, C }
            links { (A, pt1) <-> (B, pt1), (B, pt2) <-> (C, pt1) }
        }
        programs { A -> edge, B -> echo, C -> edge }
        init { packet -> (B, pt2); }
        query expectation(seen@A);
        query expectation(bounced@B);
        def echo(pkt, pt) state bounced(0) {
            bounced = bounced + 1;
            if pkt.hops < 1 {
                pkt.hops = pkt.hops + 1;
                fwd(pt);
            } else { drop; }
        }
        def edge(pkt, pt) state seen(0) { seen = seen + 1; drop; }
        "#,
    );
    assert_backends_agree(&m);
}

/// A curated example, with `P_LOSS` bound when the program declares it.
fn example(source: &str) -> Model {
    let mut m = model(source);
    if m.params.lookup("P_LOSS").is_some() {
        m.bind_param("P_LOSS", Rat::ratio(1, 4)).unwrap();
    }
    m
}

// The curated examples PSI finishes quickly. `ecmp_costs` and the two
// gossip examples run for tens of seconds under trace enumeration, so they
// are left to the engine's own differential suites.

#[test]
fn example_firewall_nat_agrees() {
    // Writes the second packet field (`pkt.src`): a nested array place
    // whose indices must be applied innermost first.
    assert_backends_agree(&example(include_str!(
        "../../../examples/bay/firewall_nat.bay"
    )));
}

#[test]
fn example_lossy_link_agrees() {
    assert_backends_agree(&example(include_str!(
        "../../../examples/bay/lossy_link.bay"
    )));
}

#[test]
fn example_ttl_triangle_agrees() {
    assert_backends_agree(&example(include_str!(
        "../../../examples/bay/ttl_triangle.bay"
    )));
}

#[test]
fn example_fattree_k4_agrees() {
    assert_backends_agree(&example(include_str!(
        "../../../examples/bay/fattree_k4.bay"
    )));
}
