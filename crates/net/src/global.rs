//! Global network semantics (paper Figure 7): packet delivery and initial
//! configuration construction. The `(Run, i)` action is executed by the
//! engines through [`run_handler`](crate::handler::run_handler), since it
//! needs their choice drivers.

use crate::compile::Model;
use crate::config::{GlobalConfig, NodeConfig};
use crate::error::SemanticsError;
use crate::handler::build_init_packet;
use crate::queue::{PktQueue, QueueEntry};
use crate::value::Val;

/// Applies the `(Fwd, i)` action (rule G-Fwd): pops the head `(pkt, pt)` of
/// node `i`'s output queue and enqueues the packet at the input queue of the
/// interface linked to `(i, pt)`. Returns `false` if the destination queue
/// was full and the packet was dropped (congestion).
///
/// # Errors
///
/// Fails if the output queue is empty (the action was not enabled) or the
/// departure port has no link.
pub fn deliver(model: &Model, cfg: &mut GlobalConfig, node: usize) -> Result<bool, SemanticsError> {
    let (dst, entry) = depart(model, &mut cfg.nodes[node], node)?;
    Ok(cfg.nodes[dst].q_in.push_back(entry))
}

/// The sender's half of `(Fwd, i)` on one node configuration: pops the head
/// `(pkt, pt)` of `sender`'s output queue (`sender` is node `node`'s local
/// configuration) and returns the destination node with the entry to
/// enqueue at its input queue, the packet tagged with its arrival port.
/// [`deliver`] is this plus the `push_back` at the destination; engines that
/// store node configurations separately apply the two halves themselves.
///
/// # Errors
///
/// As [`deliver`].
pub fn depart(
    model: &Model,
    sender: &mut NodeConfig,
    node: usize,
) -> Result<(usize, QueueEntry), SemanticsError> {
    let (pkt, port) = sender
        .q_out
        .pop_front()
        .ok_or(SemanticsError::EmptyQueue { node })?;
    let (dst, dst_port) = model
        .link_dest(node, port)
        .ok_or(SemanticsError::NoLinkOnPort { node, port })?;
    Ok((dst, (pkt, dst_port)))
}

/// Builds the initial global configuration from per-node state values
/// (produced by evaluating the state initializers) and the model's init
/// packets.
///
/// # Errors
///
/// Fails if an init packet's field expressions cannot be evaluated.
pub fn initial_config(
    model: &Model,
    states: Vec<Vec<Val>>,
) -> Result<GlobalConfig, SemanticsError> {
    assert_eq!(states.len(), model.num_nodes(), "one state vector per node");
    let mut nodes: Vec<NodeConfig> = states
        .into_iter()
        .map(|state| NodeConfig {
            state,
            q_in: PktQueue::new(model.queue_capacity),
            q_out: PktQueue::new(model.queue_capacity),
            error: false,
        })
        .collect();
    for spec in &model.init_packets {
        let pkt = build_init_packet(model, &spec.fields)?;
        nodes[spec.node].q_in.push_back((pkt, spec.port));
    }
    Ok(GlobalConfig {
        sched_state: 0,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_lang::parse;

    fn model() -> Model {
        crate::compile::compile(
            &parse(
                r#"
                packet_fields { dst }
                topology { nodes { A, B } links { (A, pt1) <-> (B, pt2) } }
                programs { A -> p, B -> p }
                queue_capacity 1;
                init { packet -> (A, pt1) { dst = B }; }
                query probability(1 == 1);
                def p(pkt, pt) { drop; }
                "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn initial_config_injects_packets() {
        let m = model();
        let cfg = initial_config(&m, vec![vec![], vec![]]).unwrap();
        assert_eq!(cfg.nodes[0].q_in.len(), 1);
        let (pkt, port) = cfg.nodes[0].q_in.head().unwrap();
        assert_eq!(*port, 1);
        assert_eq!(*pkt.field(0), Val::int(1)); // dst = B = node id 1
        assert!(cfg.nodes[1].q_in.is_empty());
    }

    #[test]
    fn deliver_crosses_the_link() {
        let m = model();
        let mut cfg = initial_config(&m, vec![vec![], vec![]]).unwrap();
        // Manually move A's packet to its output queue on port 1.
        let entry = cfg.nodes[0].q_in.pop_front().unwrap();
        cfg.nodes[0].q_out.push_back(entry);
        assert!(deliver(&m, &mut cfg, 0).unwrap());
        assert!(cfg.nodes[0].q_out.is_empty());
        // Arrived at B with B's port of the link (pt2).
        let (_, port) = cfg.nodes[1].q_in.head().unwrap();
        assert_eq!(*port, 2);
    }

    #[test]
    fn deliver_drops_on_full_destination() {
        let m = model(); // capacity 1
        let mut cfg = initial_config(&m, vec![vec![], vec![]]).unwrap();
        // Fill B's input queue.
        cfg.nodes[1]
            .q_in
            .push_back((crate::queue::Packet::fresh(1), 2));
        let entry = cfg.nodes[0].q_in.pop_front().unwrap();
        cfg.nodes[0].q_out.push_back(entry);
        // Delivery happens but the packet is dropped: congestion.
        assert!(!deliver(&m, &mut cfg, 0).unwrap());
        assert_eq!(cfg.nodes[1].q_in.len(), 1);
    }

    #[test]
    fn deliver_without_link_errors() {
        let m = model();
        let mut cfg = initial_config(&m, vec![vec![], vec![]]).unwrap();
        cfg.nodes[0]
            .q_out
            .push_back((crate::queue::Packet::fresh(1), 9));
        assert!(matches!(
            deliver(&m, &mut cfg, 0),
            Err(SemanticsError::NoLinkOnPort { node: 0, port: 9 })
        ));
    }
}
