//! The synchronous message-passing executor.

use crate::CommStats;
use tc_graph::{CsrGraph, NodeId};

/// What a node does in one round: messages to send (each addressed to a
/// *neighbour*) and whether the node is now passive.
///
/// A passive ("halted") node is not invoked again unless a message arrives
/// for it; the execution stops once every node is passive and no messages
/// are in flight.
#[derive(Debug, Clone)]
pub struct StepResult<M> {
    outgoing: Vec<(NodeId, M)>,
    halt: bool,
}

impl<M> StepResult<M> {
    /// Sends nothing and stays active.
    pub fn idle() -> Self {
        Self {
            outgoing: Vec::new(),
            halt: false,
        }
    }

    /// Sends one message.
    pub fn send(to: NodeId, message: M) -> Self {
        Self {
            outgoing: vec![(to, message)],
            halt: false,
        }
    }

    /// Marks the node passive for the coming rounds (it will be woken by
    /// incoming messages).
    pub fn halt(mut self) -> Self {
        self.halt = true;
        self
    }
}

impl<M: Clone> StepResult<M> {
    /// Sends a copy of `message` to every node in `targets`, in order
    /// (a node's whole row is [`NodeContext::neighbors`]).
    pub fn broadcast(targets: &[u32], message: M) -> Self {
        Self {
            outgoing: targets
                .iter()
                .map(|&t| (t as NodeId, message.clone()))
                .collect(),
            halt: false,
        }
    }
}

/// Read-only per-invocation context handed to the protocol closure.
#[derive(Debug)]
pub struct NodeContext<'a> {
    node: NodeId,
    round: usize,
    neighbors: &'a [u32],
}

impl<'a> NodeContext<'a> {
    /// The node being invoked.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round number (0-based).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The node's neighbours in the communication graph: its CSR row,
    /// ascending.
    pub fn neighbors(&self) -> &'a [u32] {
        self.neighbors
    }

    /// The node's degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// Executor for synchronous message-passing protocols over a fixed
/// communication graph, following the paper's model: per round, a node may
/// send a (different) message to each neighbour and receives all messages
/// addressed to it in the previous round.
///
/// See the crate-level example for usage. Statistics refer to the most
/// recent [`SyncNetwork::run`].
#[derive(Debug)]
pub struct SyncNetwork<'a> {
    graph: &'a CsrGraph,
    stats: CommStats,
}

impl<'a> SyncNetwork<'a> {
    /// Creates an executor over the given communication graph, whose
    /// sorted CSR rows are read in place as the nodes' neighbour lists.
    pub fn new(graph: &'a CsrGraph) -> Self {
        Self {
            graph,
            stats: CommStats::default(),
        }
    }

    /// Statistics of the most recent [`SyncNetwork::run`].
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Runs the protocol until quiescence (every node passive and no
    /// messages in flight) or until `max_rounds` rounds have executed,
    /// whichever comes first. Returns the final node states.
    ///
    /// The `step` closure is invoked as
    /// `step(round, node, &mut state, inbox, &context)` for every node that
    /// is either still active or has a non-empty inbox this round. The
    /// inbox contains `(sender, message)` pairs from the previous round.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of nodes, or if a
    /// node attempts to message a non-neighbour (the model only allows
    /// neighbour communication).
    pub fn run<S, M, F>(&mut self, mut states: Vec<S>, mut step: F, max_rounds: usize) -> Vec<S>
    where
        M: Clone,
        F: FnMut(usize, NodeId, &mut S, &[(NodeId, M)], &NodeContext<'_>) -> StepResult<M>,
    {
        let n = self.graph.node_count();
        assert_eq!(states.len(), n, "one initial state per node is required");
        self.stats = CommStats::default();
        let mut halted = vec![false; n];
        let mut inboxes: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); n];
        let mut round = 0;
        loop {
            if round >= max_rounds {
                break;
            }
            let any_active = halted.iter().any(|h| !h);
            let any_mail = inboxes.iter().any(|i| !i.is_empty());
            if !any_active && !any_mail {
                break;
            }
            let mut next_inboxes: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); n];
            let mut delivered_this_round = 0;
            for node in 0..n {
                let inbox = std::mem::take(&mut inboxes[node]);
                if halted[node] && inbox.is_empty() {
                    continue;
                }
                let neighbors = self.graph.neighbor_ids(node);
                let ctx = NodeContext {
                    node,
                    round,
                    neighbors,
                };
                let result = step(round, node, &mut states[node], &inbox, &ctx);
                let sent = result.outgoing.len();
                for (to, message) in result.outgoing {
                    assert!(
                        neighbors.binary_search(&(to as u32)).is_ok(),
                        "node {node} attempted to message non-neighbour {to}"
                    );
                    next_inboxes[to].push((node, message));
                    delivered_this_round += 1;
                }
                self.stats.max_messages_per_node_round =
                    self.stats.max_messages_per_node_round.max(sent);
                halted[node] = result.halt;
            }
            self.stats.messages += delivered_this_round;
            inboxes = next_inboxes;
            round += 1;
            self.stats.rounds = round;
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::Edge;

    fn path(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (0..n - 1).map(|i| Edge::new(i, i + 1, 1.0)))
    }

    #[test]
    fn flooding_reaches_every_node_on_a_path() {
        let g = path(5);
        let mut net = SyncNetwork::new(&g);
        let mut init = vec![false; 5];
        init[0] = true;
        let states = net.run(
            init,
            |round, _, seen: &mut bool, inbox: &[(usize, ())], ctx| {
                let newly = !*seen && !inbox.is_empty();
                if newly || (round == 0 && *seen) {
                    *seen = true;
                    StepResult::broadcast(ctx.neighbors(), ()).halt()
                } else {
                    StepResult::idle().halt()
                }
            },
            64,
        );
        assert!(states.iter().all(|&s| s));
        // Information travels one hop per round; quiescence needs a few
        // trailing rounds for the last deliveries.
        assert!(net.stats().rounds >= 4);
        assert!(net.stats().messages >= 4);
        assert!(net.stats().max_messages_per_node_round <= 2);
    }

    #[test]
    fn run_respects_max_rounds() {
        let g = path(3);
        let mut net = SyncNetwork::new(&g);
        // A protocol that never halts and keeps chattering.
        let _ = net.run(
            vec![(); 3],
            |_, _, _: &mut (), _: &[(usize, u8)], ctx| StepResult::broadcast(ctx.neighbors(), 1u8),
            10,
        );
        assert_eq!(net.stats().rounds, 10);
        assert!(net.stats().messages > 0);
    }

    #[test]
    fn quiescence_with_no_initial_activity() {
        let g = path(3);
        let mut net = SyncNetwork::new(&g);
        let states = net.run(
            vec![0u32; 3],
            |_, _, _state: &mut u32, _inbox: &[(usize, ())], _ctx| StepResult::idle().halt(),
            10,
        );
        assert_eq!(states, vec![0, 0, 0]);
        assert_eq!(net.stats().rounds, 1);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn context_reports_node_round_and_degree() {
        let g = path(3);
        let mut net = SyncNetwork::new(&g);
        let states = net.run(
            vec![(0usize, 0usize); 3],
            |round, node, state: &mut (usize, usize), _inbox: &[(usize, ())], ctx| {
                assert_eq!(ctx.node(), node);
                assert_eq!(ctx.round(), round);
                *state = (node, ctx.degree());
                StepResult::idle().halt()
            },
            10,
        );
        assert_eq!(states, vec![(0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn messaging_a_non_neighbour_panics() {
        let g = path(3);
        let mut net = SyncNetwork::new(&g);
        let _ = net.run(
            vec![(); 3],
            |_, node, _: &mut (), _: &[(usize, u8)], _| {
                if node == 0 {
                    StepResult::send(2, 1u8)
                } else {
                    StepResult::idle().halt()
                }
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "one initial state per node")]
    fn state_count_must_match() {
        let g = path(3);
        let mut net = SyncNetwork::new(&g);
        let _ = net.run(
            vec![(); 2],
            |_, _, _: &mut (), _: &[(usize, u8)], _| StepResult::idle().halt(),
            4,
        );
    }

    #[test]
    fn ping_pong_counts_messages() {
        let g = path(2);
        let mut net = SyncNetwork::new(&g);
        // Node 0 sends one ping; node 1 replies once; then both halt.
        let _ = net.run(
            vec![0u8; 2],
            |round, node, sent: &mut u8, inbox: &[(usize, u8)], _| {
                if node == 0 && round == 0 {
                    *sent = 1;
                    StepResult::send(1, 1u8).halt()
                } else if node == 1 && !inbox.is_empty() && *sent == 0 {
                    *sent = 1;
                    StepResult::send(0, 2u8).halt()
                } else {
                    StepResult::idle().halt()
                }
            },
            16,
        );
        assert_eq!(net.stats().messages, 2);
        assert!(net.stats().rounds >= 2);
    }
}
