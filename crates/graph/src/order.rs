//! Node orders: a relabelling of a graph's vertices that gives
//! neighbouring nodes nearby identifiers.
//!
//! The generators place nodes randomly in space, so in input order a
//! node's neighbours sit anywhere in memory, and every per-node or
//! per-edge step of the construction and of the verification waits on
//! cache misses. Renumbering the nodes in a breadth-first order of the
//! graph puts each node's neighbourhood close together in every
//! node-indexed array. The order comes from the graph alone, so it works
//! in any dimension and for callers that hold no points.
//!
//! A [`NodeOrder`] maps both ways between a node's *original* identifier
//! (the caller's) and its *position* in the order. Code that runs on
//! positions and must reproduce a result computed on original identifiers
//! breaks every identifier tie through [`NodeOrder::node_at`].

use crate::{Edge, GraphView, NodeId};

/// A permutation of the nodes `0..n`: `node_at(p)` is the original node at
/// position `p`, and `position(v)` the position of original node `v`.
///
/// # Example
///
/// ```
/// use tc_graph::{NodeOrder, WeightedGraph};
///
/// // The path 0 - 2 - 1, with 3 isolated.
/// let mut g = WeightedGraph::new(4);
/// g.add_edge(0, 2, 1.0);
/// g.add_edge(2, 1, 1.0);
/// let order = NodeOrder::breadth_first(&g);
/// assert_eq!((0..4).map(|p| order.node_at(p)).collect::<Vec<_>>(), vec![0, 2, 1, 3]);
/// assert_eq!(order.position(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOrder {
    /// `nodes[p]`: the original node at position `p`.
    nodes: Vec<u32>,
    /// `positions[v]`: the position of original node `v`.
    positions: Vec<u32>,
}

impl NodeOrder {
    /// The identity order on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let nodes: Vec<u32> = (0..n).map(to_u32).collect();
        Self {
            positions: nodes.clone(),
            nodes,
        }
    }

    /// The breadth-first order of `graph`: each component starts from its
    /// lowest unvisited node, and a node's neighbours are queued in the
    /// order the graph lists them.
    ///
    /// # Panics
    ///
    /// Panics if the node count does not fit in `u32`.
    pub fn breadth_first<G: GraphView>(graph: &G) -> Self {
        let n = graph.node_count();
        let mut positions = vec![u32::MAX; n];
        // The order itself is the queue: positions are handed out when a
        // node is queued, and `head` walks it.
        let mut nodes: Vec<u32> = Vec::with_capacity(n);
        for root in 0..n {
            if positions[root] != u32::MAX {
                continue;
            }
            positions[root] = to_u32(nodes.len());
            nodes.push(to_u32(root));
            let mut head = nodes.len() - 1;
            while head < nodes.len() {
                let u = nodes[head] as usize;
                head += 1;
                graph.for_each_neighbor(u, |v, _| {
                    if positions[v] == u32::MAX {
                        positions[v] = to_u32(nodes.len());
                        nodes.push(to_u32(v));
                    }
                });
            }
        }
        Self { nodes, positions }
    }

    /// The order that lists the original nodes `nodes` position by
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a permutation of `0..nodes.len()`.
    pub fn from_nodes(nodes: Vec<u32>) -> Self {
        let mut positions = vec![u32::MAX; nodes.len()];
        for (p, &v) in nodes.iter().enumerate() {
            let slot = positions
                .get_mut(v as usize)
                .filter(|slot| **slot == u32::MAX);
            // Documented API contract (see `# Panics` above).
            // tc-lint: allow(panic-hygiene)
            let slot = slot.expect("a node order lists every node exactly once");
            *slot = to_u32(p);
        }
        Self { nodes, positions }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the order has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The original node at position `p`.
    pub fn node_at(&self, p: usize) -> NodeId {
        self.nodes[p] as NodeId
    }

    /// The original node at every position: entry `p` is
    /// [`Self::node_at`]`(p)`.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The position of original node `v`.
    pub fn position(&self, v: NodeId) -> usize {
        self.positions[v] as usize
    }

    /// Original edge `e` with both endpoints renumbered to their
    /// positions, in the same orientation.
    pub fn edge_to_positions(&self, e: Edge) -> Edge {
        Edge {
            u: self.position(e.u),
            v: self.position(e.v),
            weight: e.weight,
        }
    }

    /// Edge `e` between positions with both endpoints mapped back to the
    /// original nodes, in the same orientation.
    pub fn edge_to_nodes(&self, e: Edge) -> Edge {
        Edge {
            u: self.node_at(e.u),
            v: self.node_at(e.v),
            weight: e.weight,
        }
    }

    /// Edge `e` between positions, oriented as its original edge is
    /// normalised: the endpoint with the lower original node first.
    pub fn orient(&self, e: Edge) -> Edge {
        if self.node_at(e.u) <= self.node_at(e.v) {
            e
        } else {
            Edge {
                u: e.v,
                v: e.u,
                weight: e.weight,
            }
        }
    }
}

/// `value` as a `u32` node index.
fn to_u32(value: usize) -> u32 {
    // Every graph here indexes nodes with u32 (see `CsrGraph`).
    // tc-lint: allow(panic-hygiene)
    u32::try_from(value).expect("node orders index nodes with u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    #[test]
    fn breadth_first_visits_components_from_their_lowest_node() {
        // Components {0, 3, 4} and {1, 2}; row order decides ties.
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 4, 1.0);
        g.add_edge(0, 3, 1.0);
        g.add_edge(2, 1, 1.0);
        let order = NodeOrder::breadth_first(&g);
        let nodes: Vec<usize> = (0..5).map(|p| order.node_at(p)).collect();
        assert_eq!(nodes, vec![0, 4, 3, 1, 2]);
        for p in 0..5 {
            assert_eq!(order.position(order.node_at(p)), p);
        }
    }

    #[test]
    fn identity_and_explicit_orders_invert() {
        let id = NodeOrder::identity(3);
        assert_eq!((id.node_at(2), id.position(2)), (2, 2));
        let order = NodeOrder::from_nodes(vec![2, 0, 1]);
        assert_eq!(order.node_at(0), 2);
        assert_eq!(order.position(2), 0);
        assert_eq!(order.position(1), 2);
        assert!(NodeOrder::identity(0).is_empty());
    }

    #[test]
    fn edges_map_both_ways_and_orient_by_original_node() {
        let order = NodeOrder::from_nodes(vec![2, 0, 1]);
        let e = Edge::new(0, 2, 0.5);
        let moved = order.edge_to_positions(e);
        assert_eq!((moved.u, moved.v), (1, 0));
        assert_eq!(order.edge_to_nodes(moved), e);
        let flipped = Edge {
            u: 0,
            v: 1,
            weight: 0.5,
        };
        assert_eq!(order.orient(flipped), moved);
        assert_eq!(order.orient(moved), moved);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn a_repeated_node_is_rejected() {
        let _ = NodeOrder::from_nodes(vec![0, 0, 1]);
    }
}
