//! The `regress` corpus: the curated `examples/bay` programs plus the
//! generated scaling programs, each with the bindings it runs under.
//!
//! Shared by the `regress` binary, which times every workload, and by the
//! routing test, which re-plans every workload against the committed
//! report, so the two can never disagree about what a workload name means.

use bayonet::{scenarios, Network, Rat, Sched};

/// One `regress` workload.
pub struct Workload {
    /// Row name in the report.
    pub name: &'static str,
    /// Program source.
    pub source: String,
    /// Parameter bindings applied after compiling.
    pub bindings: Vec<(&'static str, Rat)>,
    /// Whether `regress` also times synthesis over the first query.
    pub synthesize: bool,
}

impl Workload {
    /// Compiles the source and applies the bindings.
    ///
    /// # Panics
    ///
    /// When the source does not compile or a binding does not apply: the
    /// corpus is fixed, so either is a bug in the corpus.
    pub fn network(&self) -> Network {
        let mut network = Network::from_source(&self.source).expect("compile");
        for (name, value) in &self.bindings {
            network.bind(name, value.clone()).expect("bind");
        }
        network
    }
}

/// The curated example directory.
pub fn examples_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/bay")
}

/// A workload read from `examples/bay/<file>`, unbound.
///
/// # Panics
///
/// When the file cannot be read.
pub fn curated(name: &'static str, file: &str) -> Workload {
    let path = examples_dir().join(file);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Workload {
        name,
        source,
        bindings: Vec::new(),
        synthesize: false,
    }
}

/// The `regress` corpus. `quick` keeps only the curated programs (the CI
/// smoke run).
pub fn regress(quick: bool) -> Vec<Workload> {
    let mut ws = vec![
        Workload {
            bindings: vec![("P_LOSS", Rat::ratio(1, 4))],
            ..curated("lossy_link", "lossy_link.bay")
        },
        Workload {
            synthesize: true,
            ..curated("ecmp_costs", "ecmp_costs.bay")
        },
        curated("gossip_k4", "gossip_k4.bay"),
        curated("ttl_triangle", "ttl_triangle.bay"),
        Workload {
            bindings: vec![("P_LOSS", Rat::ratio(1, 4))],
            ..curated("fattree_k4", "fattree_k4.bay")
        },
        curated("firewall_nat", "firewall_nat.bay"),
    ];
    if !quick {
        ws.push(Workload {
            name: "reliability_chain_4",
            source: scenarios::reliability_chain_source(4, &Rat::ratio(1, 1000), Sched::Uniform),
            bindings: Vec::new(),
            synthesize: false,
        });
        ws.push(Workload {
            name: "congestion_chain_7",
            source: scenarios::congestion_chain_source(7, Sched::Deterministic),
            bindings: Vec::new(),
            synthesize: false,
        });
        ws.push(Workload {
            name: "gossip_k4_generated",
            source: scenarios::gossip_source(4, Sched::Uniform),
            bindings: Vec::new(),
            synthesize: false,
        });
        // The largest workload; deliberately not in --quick, since both
        // engines together take seconds per trial.
        ws.push(Workload {
            name: "gossip_k5_generated",
            source: scenarios::gossip_source(5, Sched::Uniform),
            bindings: Vec::new(),
            synthesize: false,
        });
    }
    ws
}
