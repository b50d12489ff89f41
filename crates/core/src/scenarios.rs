//! Builders for every network scenario of the paper's evaluation (§5).
//!
//! Each function generates Bayonet source text for a benchmark — the §2
//! running example, the Figure 11 topologies, and their scaled variants —
//! and returns it compiled into a [`Network`]. The `*_source` variants
//! expose the raw text (useful for code-size comparisons and docs).

use bayonet_num::Rat;

use crate::error::Error;
use crate::network::Network;

/// Scheduler selection for scenario builders (Table 1's "uni."/"det.").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sched {
    /// Uniform over enabled actions (paper Figure 6).
    Uniform,
    /// Deterministic fixed-priority scan (Table 1 "det.").
    Deterministic,
}

impl Default for Sched {
    /// The paper's primary scheduler.
    fn default() -> Self {
        Sched::Uniform
    }
}

impl Sched {
    fn keyword(self) -> &'static str {
        match self {
            Sched::Uniform => "uniform",
            Sched::Deterministic => "roundrobin",
        }
    }
}

/// Source of the §2 running example (5 nodes, OSPF/ECMP with symbolic link
/// costs COST_01, COST_02, COST_21; H0 sends three packets; capacity-2
/// queues).
pub fn congestion_example_source(sched: Sched) -> String {
    format!(
        r#"// Paper §2 running example: OSPF costs + ECMP, 3 packets, capacity 2.
packet_fields {{ dst }}
parameters {{ COST_01, COST_02, COST_21 }}
topology {{
    nodes {{ H0, H1, S0, S1, S2 }}
    links {{
        (H0, pt1) <-> (S0, pt3),
        (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
        (S1, pt2) <-> (S2, pt2), (S1, pt3) <-> (H1, pt1)
    }}
}}
programs {{ H0 -> h0, H1 -> h1, S0 -> s0, S1 -> s1, S2 -> s2 }}
queue_capacity 2;
scheduler {sched};
init {{ packet -> (H0, pt1); }}
query probability(pkt_cnt@H1 < 3);
query expectation(pkt_cnt@H1);

def h0(pkt, pt) state pkt_cnt(0) {{
    if pkt_cnt < 3 {{
        new;
        pkt.dst = H1;
        fwd(1);
        pkt_cnt = pkt_cnt + 1;
    }} else {{ drop; }}
}}
def h1(pkt, pt) state pkt_cnt(0) {{
    pkt_cnt = pkt_cnt + 1;
    drop;
}}
def s2(pkt, pt) {{
    if pt == 1 {{ fwd(2); }} else {{ fwd(1); }}
}}
def s0(pkt, pt) state route1(0), route2(0) {{
    if pt == 1 {{
        fwd(3);
    }} else {{ if pt == 2 {{
        if pkt.dst == H0 {{ fwd(3); }} else {{ fwd(1); }}
    }} else {{
        route1 = COST_01;
        route2 = COST_02 + COST_21;
        if route1 < route2 or (route1 == route2 and flip(1/2)) {{
            fwd(1);
        }} else {{ fwd(2); }}
    }} }}
}}
def s1(pkt, pt) state route1(0), route2(0) {{
    if pt == 1 {{
        fwd(3);
    }} else {{ if pt == 2 {{
        if pkt.dst == H1 {{ fwd(3); }} else {{ fwd(1); }}
    }} else {{
        route1 = COST_01;
        route2 = COST_02 + COST_21;
        if route1 < route2 or (route1 == route2 and flip(1/2)) {{
            fwd(1);
        }} else {{ fwd(2); }}
    }} }}
}}
"#,
        sched = sched.keyword()
    )
}

/// The §2 example with concrete equal-cost links (COST_01 = 2,
/// COST_02 = COST_21 = 1): Table 1 rows 1–2.
///
/// # Errors
///
/// Propagates front-end errors (none expected for generated sources).
pub fn congestion_example(sched: Sched) -> Result<Network, Error> {
    let mut n = Network::from_source(&congestion_example_source(sched))?;
    n.bind("COST_01", Rat::int(2))?;
    n.bind("COST_02", Rat::int(1))?;
    n.bind("COST_21", Rat::int(1))?;
    Ok(n)
}

/// The §2 example with the link costs left **symbolic** — the parameter
/// synthesis scenario of §2.3 / Figure 3.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn congestion_example_symbolic(sched: Sched) -> Result<Network, Error> {
    Network::from_source(&congestion_example_source(sched))
}

/// Source for congestion on a chain of ECMP diamonds with `num_diamonds`
/// diamonds (4 switches each) between two hosts: `2 + 4*D` nodes total.
/// `D = 1` is the Figure 11(a) 6-node topology; `D = 7` is the 30-node
/// benchmark of Table 1.
pub fn congestion_chain_source(num_diamonds: usize, sched: Sched) -> String {
    assert!(num_diamonds >= 1, "need at least one diamond");
    let mut nodes = vec!["H0".to_string()];
    for d in 0..num_diamonds {
        for role in ["A", "B", "C", "D"] {
            nodes.push(format!("{role}{d}"));
        }
    }
    nodes.push("H1".into());

    let mut links = vec!["(H0, pt1) <-> (A0, pt1)".to_string()];
    for d in 0..num_diamonds {
        links.push(format!("(A{d}, pt2) <-> (B{d}, pt1)"));
        links.push(format!("(A{d}, pt3) <-> (C{d}, pt1)"));
        links.push(format!("(B{d}, pt2) <-> (D{d}, pt1)"));
        links.push(format!("(C{d}, pt2) <-> (D{d}, pt2)"));
        if d + 1 < num_diamonds {
            links.push(format!("(D{d}, pt3) <-> (A{}, pt1)", d + 1));
        }
    }
    links.push(format!("(D{}, pt3) <-> (H1, pt1)", num_diamonds - 1));

    let mut programs = vec!["H0 -> h0".to_string(), "H1 -> h1".into()];
    for d in 0..num_diamonds {
        programs.push(format!("A{d} -> entry"));
        programs.push(format!("B{d} -> relay"));
        programs.push(format!("C{d} -> relay"));
        programs.push(format!("D{d} -> exit"));
    }

    format!(
        r#"// Congestion on {n} nodes: a chain of {num_diamonds} ECMP diamond(s).
packet_fields {{ dst }}
topology {{
    nodes {{ {nodes} }}
    links {{ {links} }}
}}
programs {{ {programs} }}
queue_capacity 2;
scheduler {sched};
init {{ packet -> (H0, pt1); }}
query probability(pkt_cnt@H1 < 3);
query expectation(pkt_cnt@H1);

def h0(pkt, pt) state pkt_cnt(0) {{
    if pkt_cnt < 3 {{
        new;
        fwd(1);
        pkt_cnt = pkt_cnt + 1;
    }} else {{ drop; }}
}}
def h1(pkt, pt) state pkt_cnt(0) {{
    pkt_cnt = pkt_cnt + 1;
    drop;
}}
def entry(pkt, pt) {{
    if flip(1/2) {{ fwd(2); }} else {{ fwd(3); }}
}}
def relay(pkt, pt) {{ fwd(2); }}
def exit(pkt, pt) {{ fwd(3); }}
"#,
        n = nodes.len(),
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
        sched = sched.keyword()
    )
}

/// Congestion on a chain of diamonds (Table 1 rows 3–5). 6 nodes for
/// `num_diamonds = 1` (Figure 11(a)), 30 nodes for `num_diamonds = 7`.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn congestion_chain(num_diamonds: usize, sched: Sched) -> Result<Network, Error> {
    Network::from_source(&congestion_chain_source(num_diamonds, sched))
}

/// Source for reliability on a chain of diamonds whose lower path contains
/// a link failing with probability `p_fail` (Figure 11(b) for one diamond;
/// 7 diamonds = the 30-node benchmark). One tracked packet.
pub fn reliability_chain_source(num_diamonds: usize, p_fail: &Rat, sched: Sched) -> String {
    assert!(num_diamonds >= 1, "need at least one diamond");
    let mut nodes = vec!["H0".to_string()];
    for d in 0..num_diamonds {
        for role in ["A", "B", "C", "D"] {
            nodes.push(format!("{role}{d}"));
        }
    }
    nodes.push("H1".into());

    let mut links = vec!["(H0, pt1) <-> (A0, pt1)".to_string()];
    for d in 0..num_diamonds {
        links.push(format!("(A{d}, pt2) <-> (B{d}, pt1)"));
        links.push(format!("(A{d}, pt3) <-> (C{d}, pt1)"));
        links.push(format!("(B{d}, pt2) <-> (D{d}, pt1)"));
        links.push(format!("(C{d}, pt2) <-> (D{d}, pt2)"));
        if d + 1 < num_diamonds {
            links.push(format!("(D{d}, pt3) <-> (A{}, pt1)", d + 1));
        }
    }
    links.push(format!("(D{}, pt3) <-> (H1, pt1)", num_diamonds - 1));

    let mut programs = vec!["H0 -> h0".to_string(), "H1 -> h1".into()];
    for d in 0..num_diamonds {
        programs.push(format!("A{d} -> entry"));
        programs.push(format!("B{d} -> relay"));
        programs.push(format!("C{d} -> lossy"));
        programs.push(format!("D{d} -> exit"));
    }

    format!(
        r#"// Reliability on {n} nodes: ECMP diamonds; the lower link of each
// diamond fails with probability {p_fail} (paper Figure 12).
packet_fields {{ dst }}
topology {{
    nodes {{ {nodes} }}
    links {{ {links} }}
}}
programs {{ {programs} }}
queue_capacity 2;
scheduler {sched};
init {{ packet -> (H0, pt1); }}
query probability(arrived@H1);

def h0(pkt, pt) {{ fwd(1); }}
def h1(pkt, pt) state arrived(0) {{ arrived = 1; drop; }}
def entry(pkt, pt) {{
    if flip(1/2) {{ fwd(2); }} else {{ fwd(3); }}
}}
def relay(pkt, pt) {{ fwd(2); }}
def lossy(pkt, pt) state failing(2) {{
    if failing == 2 {{ failing = flip({p_fail}); }}
    if failing == 1 {{ drop; }} else {{ fwd(2); }}
}}
def exit(pkt, pt) {{ fwd(3); }}
"#,
        n = nodes.len(),
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
        sched = sched.keyword(),
        p_fail = p_fail,
    )
}

/// Reliability of packet delivery (Table 1 rows 6–9): `num_diamonds = 1`
/// is the 6-node Figure 11(b), `num_diamonds = 7` the 30-node chain.
/// Exact reliability is `(1 - p_fail/2)^D`.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn reliability_chain(
    num_diamonds: usize,
    p_fail: &Rat,
    sched: Sched,
) -> Result<Network, Error> {
    Network::from_source(&reliability_chain_source(num_diamonds, p_fail, sched))
}

/// Source for the gossip protocol on the complete graph `K_n`
/// (Figure 11(c)): node `S0` seeds one packet; every uninfected receiver
/// becomes infected and emits two packets to uniformly random neighbors;
/// infected receivers drop.
///
/// # Panics
///
/// If `n < 2`, or if the query's `n`-term sum would hold more than
/// [`bayonet_lang::MAX_OPERATORS`] operators and so fail to parse.
pub fn gossip_source(n: usize, sched: Sched) -> String {
    assert!(n >= 2, "gossip needs at least two nodes");
    assert!(
        n <= bayonet_lang::MAX_OPERATORS + 1,
        "a gossip query over {n} nodes exceeds the parser's operator bound"
    );
    let nodes: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    let mut links = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            // Node i's neighbor j sits on port (j < i ? j+1 : j), 1-based.
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
        r#"// Gossip on the complete graph K{n} (paper §5.3).
packet_fields {{ dst }}
topology {{
    nodes {{ {nodes} }}
    links {{ {links} }}
}}
programs {{ {programs} }}
queue_capacity 2;
scheduler {sched};
init {{ packet -> (S0, pt1); }}
query expectation({sum});

def seed(pkt, pt) state infected(0) {{
    if infected == 0 {{
        infected = 1;
        fwd(uniformInt(1, {deg}));
    }} else {{ drop; }}
}}
def gossip(pkt, pt) state infected(0) {{
    if infected == 0 {{
        infected = 1;
        dup;
        fwd(uniformInt(1, {deg}));
        fwd(uniformInt(1, {deg}));
    }} else {{ drop; }}
}}
"#,
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
        sched = sched.keyword(),
    )
}

/// Gossip message propagation on `K_n` (Table 1 rows 10–13). For `n = 4`
/// the exact expectation is 94/27 ≈ 3.4815.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn gossip(n: usize, sched: Sched) -> Result<Network, Error> {
    Network::from_source(&gossip_source(n, sched))
}

/// The observation sequence of the first §5.5 load-balancing experiment
/// (mirrors from S1, S0, S0, S1, H1 — evidence for a *bad* hash).
pub const LB_OBS_BAD: &[&str] = &["S1", "S0", "S0", "S1", "H1"];

/// The observation sequence of the second §5.5 load-balancing experiment
/// (mirrors from H1, S0, S0, H1 — evidence for a *good* hash).
pub const LB_OBS_GOOD: &[&str] = &["H1", "S0", "S0", "H1"];

/// Source for the §5.5 load-balancing scenario (Figure 11(d)): S0 splits
/// three packets between a direct link to H1 and a path via S1; S0, S1, and
/// H1 mirror packets to a controller C with probability 1/2 each; the
/// controller observes `observed` as the exhaustive mirror sequence. The
/// prior on a bad hash (1/3–2/3 split instead of 1/2–1/2) is
/// Bernoulli(1/10).
///
/// Queries: `[0]` P(bad ∧ #mirrors = L), `[1]` P(#mirrors = L); the
/// posterior P(bad | evidence) is their ratio (see
/// [`bad_hash_posterior`]).
pub fn load_balancing_source(observed: &[&str]) -> String {
    let mut obs_chain = String::from("observe(0);");
    for (idx, src) in observed.iter().enumerate().rev() {
        obs_chain = format!(
            "if num_arr == {} {{ observe(pkt.src == {src}); }} else {{ {obs_chain} }}",
            idx + 1
        );
    }
    let len = observed.len();
    format!(
        r#"// §5.5 Bayesian load-balancing conformance (Figure 11(d)).
packet_fields {{ src }}
topology {{
    nodes {{ H0, S0, S1, H1, C }}
    links {{
        (H0, pt1) <-> (S0, pt1),
        (S0, pt2) <-> (H1, pt1),
        (S0, pt3) <-> (S1, pt1),
        (S1, pt2) <-> (H1, pt2),
        (S0, pt4) <-> (C, pt1),
        (S1, pt3) <-> (C, pt2),
        (H1, pt3) <-> (C, pt3)
    }}
}}
programs {{ H0 -> h0, S0 -> s0, S1 -> s1, H1 -> h1, C -> ctrl }}
queue_capacity 8;
scheduler uniform;
init {{ packet -> (H0, pt1); }}
query probability(bad_hash@S0 == 1 and num_arr@C == {len});
query probability(num_arr@C == {len});

def h0(pkt, pt) state pkt_cnt(0) {{
    if pkt_cnt < 3 {{
        new;
        fwd(1);
        pkt_cnt = pkt_cnt + 1;
    }} else {{ drop; }}
}}
def s0(pkt, pt) state bad_hash(flip(1/10)) {{
    if flip(1/2) {{ dup; pkt.src = S0; fwd(4); }}
    if bad_hash == 1 {{
        if flip(1/3) {{ fwd(2); }} else {{ fwd(3); }}
    }} else {{
        if flip(1/2) {{ fwd(2); }} else {{ fwd(3); }}
    }}
}}
def s1(pkt, pt) {{
    if flip(1/2) {{ dup; pkt.src = S1; fwd(3); }}
    fwd(2);
}}
def h1(pkt, pt) state num_got(0) {{
    num_got = num_got + 1;
    if flip(1/2) {{ dup; pkt.src = H1; fwd(3); }}
    drop;
}}
def ctrl(pkt, pt) state num_arr(0) {{
    num_arr = num_arr + 1;
    {obs_chain}
    drop;
}}
"#
    )
}

/// The §5.5 load-balancing scenario compiled.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn load_balancing(observed: &[&str]) -> Result<Network, Error> {
    Network::from_source(&load_balancing_source(observed))
}

/// Computes the posterior P(bad hash | mirror evidence) from the two
/// queries of [`load_balancing`] using one exact run.
///
/// # Errors
///
/// Propagates inference errors; fails if the evidence has probability 0.
pub fn bad_hash_posterior(network: &Network) -> Result<Rat, Error> {
    let report = network.exact()?;
    let joint = report.results[0].rat().clone();
    let evidence = report.results[1].rat().clone();
    joint
        .checked_div(&evidence)
        .ok_or_else(|| Error::Usage("evidence has probability zero".into()))
}

/// Source for the §5.5 reliability strategy-inference scenario: the
/// Figure 11(b) diamond with an *uncertain* forwarding strategy at S0
/// (rand with prior 1/2, always-S1 with 1/4, always-S2 with 1/4), three
/// numbered packets, and an exhaustive observed arrival sequence at H1
/// (`observed` lists the packet ids in arrival order, per Figure 13).
///
/// Queries `[0..3]`: joint probabilities of {rand, det S1, det S2} with the
/// evidence; query `[3]`: the evidence alone. Posteriors are the ratios
/// (see [`strategy_posterior`]).
pub fn reliability_strategy_source(observed: &[u64]) -> String {
    let mut obs_chain = String::from("observe(0);");
    for (idx, id) in observed.iter().enumerate().rev() {
        obs_chain = format!(
            "if num_arr == {} {{ observe(pkt.id == {id}); }} else {{ {obs_chain} }}",
            idx + 1
        );
    }
    let len = observed.len();
    format!(
        r#"// §5.5 Bayesian inference of S0's forwarding strategy (Figure 13).
packet_fields {{ id }}
topology {{
    nodes {{ H0, S0, S1, S2, S3, H1 }}
    links {{
        (H0, pt1) <-> (S0, pt1),
        (S0, pt2) <-> (S1, pt1),
        (S0, pt3) <-> (S2, pt1),
        (S1, pt2) <-> (S3, pt1),
        (S2, pt2) <-> (S3, pt2),
        (S3, pt3) <-> (H1, pt1)
    }}
}}
programs {{ H0 -> h0, S0 -> s0, S1 -> s1, S2 -> s2, S3 -> s3, H1 -> h1 }}
queue_capacity 3;
scheduler uniform;
init {{ packet -> (H0, pt1); }}
query probability(is_rand@S0 == 1 and num_arr@H1 == {len});
query probability(is_rand@S0 == 0 and dir@S0 == 1 and num_arr@H1 == {len});
query probability(is_rand@S0 == 0 and dir@S0 == 0 and num_arr@H1 == {len});
query probability(num_arr@H1 == {len});

def h0(pkt, pt) state pkt_cnt(0) {{
    if pkt_cnt < 3 {{
        new;
        pkt.id = pkt_cnt + 1;
        fwd(1);
        pkt_cnt = pkt_cnt + 1;
    }} else {{ drop; }}
}}
def s0(pkt, pt) state is_rand(flip(1/2)), dir(flip(1/2)) {{
    if is_rand == 1 {{
        if flip(1/2) {{ fwd(2); }} else {{ fwd(3); }}
    }} else {{
        if dir == 1 {{ fwd(2); }} else {{ fwd(3); }}
    }}
}}
def s1(pkt, pt) {{ fwd(2); }}
def s2(pkt, pt) state failing(2) {{
    if failing == 2 {{ failing = flip(1/1000); }}
    if failing == 1 {{ drop; }} else {{ fwd(2); }}
}}
def s3(pkt, pt) {{ fwd(3); }}
def h1(pkt, pt) state num_arr(0) {{
    num_arr = num_arr + 1;
    {obs_chain}
    drop;
}}
"#
    )
}

/// The §5.5 strategy-inference scenario compiled.
///
/// # Errors
///
/// Propagates front-end errors.
pub fn reliability_strategy(observed: &[u64]) -> Result<Network, Error> {
    Network::from_source(&reliability_strategy_source(observed))
}

/// Computes the posterior distribution over S0's strategies
/// `[rand, det S1, det S2]` from one exact run of [`reliability_strategy`].
///
/// # Errors
///
/// Propagates inference errors; fails if the evidence has probability 0.
pub fn strategy_posterior(network: &Network) -> Result<[Rat; 3], Error> {
    let report = network.exact()?;
    let evidence = report.results[3].rat().clone();
    if evidence.is_zero() {
        return Err(Error::Usage("evidence has probability zero".into()));
    }
    Ok([
        report.results[0].rat() / &evidence,
        report.results[1].rat() / &evidence,
        report.results[2].rat() / &evidence,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gossip query sums one term per node, so the generator stops
    /// where that sum would pass the parser's operator bound.
    #[test]
    fn gossip_source_parses_up_to_the_operator_bound() {
        let n = bayonet_lang::MAX_OPERATORS + 1;
        bayonet_lang::parse(&gossip_source(n, Sched::Uniform)).expect("parses at the bound");
        let past = std::panic::catch_unwind(|| gossip_source(n + 1, Sched::Uniform));
        assert!(past.is_err(), "a source past the bound was generated");
    }
}
