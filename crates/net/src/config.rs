//! Local and global network configurations (paper §3.1–3.2).

use std::fmt;

use bayonet_symbolic::ParamTable;

use crate::compile::Model;
use crate::queue::PktQueue;
use crate::value::Val;

/// The configuration of one network node: its state variables, input and
/// output queues, and whether it is in the error state ⊥ (failed `assert`).
///
/// The paper's ⟨σ, Q_IN, Q_OUT, s⟩ tuple — the statement component `s` is
/// always fully evaluated between global steps because `(Run, i)` executes
/// handlers to completion.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeConfig {
    /// State variable values (slot-indexed).
    pub state: Vec<Val>,
    /// Input queue.
    pub q_in: PktQueue,
    /// Output queue.
    pub q_out: PktQueue,
    /// `true` once an `assert` failed (the node is in ⊥).
    pub error: bool,
}

impl NodeConfig {
    /// A node with no state and empty queues of the given capacity.
    pub fn empty(queue_capacity: usize) -> NodeConfig {
        NodeConfig {
            state: Vec::new(),
            q_in: PktQueue::new(queue_capacity),
            q_out: PktQueue::new(queue_capacity),
            error: false,
        }
    }

    /// A rough size in bytes: the configuration, its state slots and its
    /// queued packets. Heap words inside values are not counted.
    pub fn approx_bytes(&self) -> usize {
        let queued = self.q_in.iter().chain(self.q_out.iter());
        std::mem::size_of_val(self)
            + std::mem::size_of_val(self.state.as_slice())
            + queued.map(std::mem::size_of_val).sum::<usize>()
    }
}

/// A global network configuration: the scheduler state plus every node's
/// local configuration.
///
/// The derived ordering is structural — a canonical state key. The exact
/// engine sorts merged frontiers and terminals by it so that exploration
/// order (and therefore every downstream result) is independent of the
/// parallel schedule that produced them.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalConfig {
    /// Scheduler state (0 for the stateless built-in schedulers; the rotor
    /// scheduler keeps its cursor here).
    pub sched_state: u32,
    /// Per-node configurations.
    pub nodes: Vec<NodeConfig>,
}

/// A schedulable action (paper §3.2): run a node's program, or forward the
/// head of a node's output queue across its link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// `(Run, i)` — execute node `i`'s handler on its head packet.
    Run(usize),
    /// `(Fwd, i)` — deliver the head of node `i`'s output queue.
    Fwd(usize),
}

impl Action {
    /// The node the action concerns.
    pub fn node(self) -> usize {
        match self {
            Action::Run(i) | Action::Fwd(i) => i,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Run(i) => write!(f, "(Run, {i})"),
            Action::Fwd(i) => write!(f, "(Fwd, {i})"),
        }
    }
}

impl GlobalConfig {
    /// Returns `true` if some node is in the error state ⊥.
    pub fn has_error(&self) -> bool {
        self.nodes.iter().any(|n| n.error)
    }

    /// The enabled actions in canonical order: `Run(0..k)` for nodes with
    /// nonempty input queues, then `Fwd(0..k)` for nodes with nonempty
    /// output queues (matching the scheduler of paper Figure 6).
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.q_in.is_empty() {
                out.push(Action::Run(i));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.q_out.is_empty() {
                out.push(Action::Fwd(i));
            }
        }
        out
    }

    /// A configuration is terminal when all queues are empty (nothing can
    /// step) or some node is in the error state (paper §3.2).
    pub fn is_terminal(&self) -> bool {
        self.has_error() || self.enabled_actions().is_empty()
    }

    /// Total packets across all queues (useful for invariants/tests).
    pub fn total_packets(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.q_in.len() + n.q_out.len())
            .sum()
    }

    /// A compact human-readable rendering for debugging.
    pub fn describe(&self, model: &Model, params: &ParamTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "{}[in:{} out:{}{}",
                model.node_names[i],
                n.q_in.len(),
                n.q_out.len(),
                if n.error { " ⊥" } else { "" }
            );
            if !n.state.is_empty() {
                let _ = write!(out, " state:");
                for (s, v) in n.state.iter().enumerate() {
                    let _ = write!(
                        out,
                        " {}={}",
                        model.programs[i].state_names[s],
                        v.display(params)
                    );
                }
            }
            let _ = write!(out, "] ");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Packet;

    fn two_nodes() -> GlobalConfig {
        GlobalConfig {
            sched_state: 0,
            nodes: vec![NodeConfig::empty(2), NodeConfig::empty(2)],
        }
    }

    #[test]
    fn empty_network_is_terminal() {
        let cfg = two_nodes();
        assert!(cfg.is_terminal());
        assert!(cfg.enabled_actions().is_empty());
        assert!(!cfg.has_error());
    }

    #[test]
    fn enabled_actions_canonical_order() {
        let mut cfg = two_nodes();
        cfg.nodes[1].q_in.push_back((Packet::fresh(0), 1));
        cfg.nodes[0].q_out.push_back((Packet::fresh(0), 1));
        cfg.nodes[1].q_out.push_back((Packet::fresh(0), 1));
        assert_eq!(
            cfg.enabled_actions(),
            vec![Action::Run(1), Action::Fwd(0), Action::Fwd(1)]
        );
        assert!(!cfg.is_terminal());
    }

    #[test]
    fn error_makes_terminal() {
        let mut cfg = two_nodes();
        cfg.nodes[0].q_in.push_back((Packet::fresh(0), 1));
        assert!(!cfg.is_terminal());
        cfg.nodes[1].error = true;
        assert!(cfg.is_terminal());
        assert!(cfg.has_error());
    }

    #[test]
    fn total_packets_counts_both_queues() {
        let mut cfg = two_nodes();
        cfg.nodes[0].q_in.push_back((Packet::fresh(0), 1));
        cfg.nodes[0].q_out.push_back((Packet::fresh(0), 1));
        cfg.nodes[1].q_in.push_back((Packet::fresh(0), 1));
        assert_eq!(cfg.total_packets(), 3);
    }
}
