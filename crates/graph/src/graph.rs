//! The adjacency-list weighted undirected graph.

use crate::{Edge, NodeId};
use serde::Serialize;
use std::fmt;

/// Errors reported by graph operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node index was at least the number of nodes.
    NodeOutOfRange {
        /// The offending node index.
        node: NodeId,
        /// The number of nodes in the graph.
        nodes: usize,
    },
    /// The requested edge does not exist.
    MissingEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "node {node} is out of range for a graph with {nodes} nodes"
                )
            }
            GraphError::MissingEdge { u, v } => write!(f, "edge ({u}, {v}) does not exist"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph with non-negative edge weights, stored as one
/// adjacency row per vertex.
///
/// Vertices are the integers `0..n`. Parallel edges are not allowed: adding
/// an edge that already exists overwrites its weight. There is no edge
/// index: a lookup, insert or removal scans the shorter of the two
/// endpoint rows, which is O(1) in the bounded-degree graphs this
/// workspace builds (the α-UBG, the spanners, the cluster-graph
/// quotients). The edge count is a counter kept by the mutators.
///
/// # Example
///
/// ```
/// use tc_graph::WeightedGraph;
///
/// let mut g = WeightedGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 0.5);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edge_weight(0, 1), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct WeightedGraph {
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl WeightedGraph {
    /// Creates a graph with `nodes` vertices and no edges.
    pub fn new(nodes: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); nodes],
            edge_count: 0,
        }
    }

    /// Creates a graph with `nodes` vertices and the given edges.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range.
    pub fn from_edges(nodes: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Self::new(nodes);
        for e in edges {
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }

    /// Creates a graph from finished adjacency rows: `rows[u]` lists the
    /// neighbours of `u` with the edge weights, and every edge appears in
    /// both endpoint rows with the same weight. The rows are kept as given,
    /// so their order is the iteration order of [`Self::neighbors`] and
    /// [`Self::edges`].
    ///
    /// ```
    /// use tc_graph::WeightedGraph;
    ///
    /// let g = WeightedGraph::from_adjacency(vec![
    ///     vec![(1, 0.5)],
    ///     vec![(0, 0.5), (2, 1.0)],
    ///     vec![(1, 1.0)],
    /// ]);
    /// assert_eq!(g.edge_count(), 2);
    /// assert_eq!(g.edge_weight(2, 1), Some(1.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the rows hold an odd number of entries. Debug builds also
    /// check that every entry is in range, not a self-loop, and mirrored in
    /// the other endpoint's row with the same weight.
    pub fn from_adjacency(adjacency: Vec<Vec<(NodeId, f64)>>) -> Self {
        let entries: usize = adjacency.iter().map(Vec::len).sum();
        assert!(
            entries.is_multiple_of(2),
            "adjacency rows must be symmetric"
        );
        debug_assert!(
            adjacency
                .iter()
                .enumerate()
                .all(|(u, row)| row.iter().all(|&(v, w)| {
                    v < adjacency.len()
                        && v != u
                        && adjacency[v]
                            .iter()
                            .any(|&(x, wx)| x == u && wx.to_bits() == w.to_bits())
                })),
            "adjacency rows must be symmetric, in range and loop-free"
        );
        Self {
            adjacency,
            edge_count: entries / 2,
        }
    }

    /// The adjacency rows, consuming the graph: the inverse of
    /// [`Self::from_adjacency`].
    pub fn into_adjacency(self) -> Vec<Vec<(NodeId, f64)>> {
        self.adjacency
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no edges.
    pub fn is_edgeless(&self) -> bool {
        self.edge_count == 0
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node >= self.node_count() {
            Err(GraphError::NodeOutOfRange {
                node,
                nodes: self.node_count(),
            })
        } else {
            Ok(())
        }
    }

    /// The endpoints ordered so that the first has the shorter row.
    fn shorter_first(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.adjacency[u].len() <= self.adjacency[v].len() {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Position of `v` in `u`'s row.
    fn position(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.adjacency[u].iter().position(|&(n, _)| n == v)
    }

    /// Adds (or re-weights) the undirected edge `{u, v}`.
    ///
    /// Returns the previous weight if the edge already existed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, if `u == v`, or if the weight
    /// is negative or not finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Option<f64> {
        assert!(u < self.node_count(), "edge endpoint out of range");
        assert!(v < self.node_count(), "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "edge weight must be finite and non-negative"
        );
        let (a, b) = self.shorter_first(u, v);
        match self.position(a, b) {
            Some(i) => {
                let previous = std::mem::replace(&mut self.adjacency[a][i].1, weight);
                if let Some(j) = self.position(b, a) {
                    self.adjacency[b][j].1 = weight;
                }
                Some(previous)
            }
            None => {
                self.adjacency[u].push((v, weight));
                self.adjacency[v].push((u, weight));
                self.edge_count += 1;
                None
            }
        }
    }

    /// Adds an [`Edge`].
    pub fn add(&mut self, edge: Edge) -> Option<f64> {
        self.add_edge(edge.u, edge.v, edge.weight)
    }

    /// Removes the edge `{u, v}` and returns its weight. Both rows keep the
    /// order of their remaining entries.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<f64, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let (a, b) = self.shorter_first(u, v);
        let i = self
            .position(a, b)
            .ok_or(GraphError::MissingEdge { u, v })?;
        let (_, weight) = self.adjacency[a].remove(i);
        if let Some(j) = self.position(b, a) {
            self.adjacency[b].remove(j);
        }
        self.edge_count -= 1;
        Ok(weight)
    }

    /// Whether the edge `{u, v}` is present (`false` if an endpoint is out
    /// of range).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of the edge `{u, v}`, if present (`None` if an endpoint is
    /// out of range).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if u >= self.node_count() || v >= self.node_count() {
            return None;
        }
        let (a, b) = self.shorter_first(u, v);
        self.position(a, b).map(|i| self.adjacency[a][i].1)
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u].len()
    }

    /// Maximum degree Δ of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean degree of the graph (0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Neighbours of `u` with the connecting edge weights.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[u]
    }

    /// Iterator over all edges (each undirected edge reported once, from
    /// its lower endpoint's row), in a deterministic order: ascending `u`,
    /// then the order of `u`'s adjacency row.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, row)| {
            row.iter()
                .filter_map(move |&(v, w)| (u < v).then_some(Edge { u, v, weight: w }))
        })
    }

    /// All edges collected and sorted by (weight, endpoints); the
    /// processing order of `SEQ-GREEDY`. Equivalent to
    /// [`GraphView::sorted_edge_list`](crate::GraphView::sorted_edge_list),
    /// kept as an inherent method for callers that don't import the trait.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        crate::GraphView::sorted_edge_list(self)
    }

    /// Sum of all edge weights `w(G)`, accumulated in the deterministic
    /// order of [`WeightedGraph::edges`] (float addition is not
    /// associative, so summation order must be reproducible).
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|e| e.weight).sum()
    }

    /// The *power cost* of the graph: `Σ_u max_{v ∈ N(u)} w(u, v)`
    /// (Section 1.6, extension 3 of the paper). Isolated nodes contribute 0.
    pub fn power_cost(&self) -> f64 {
        self.adjacency
            .iter()
            .map(|nbrs| nbrs.iter().map(|&(_, w)| w).fold(0.0_f64, f64::max))
            .sum()
    }

    /// Returns a graph on the same vertex set containing only the edges
    /// accepted by the predicate.
    pub fn filter_edges(&self, mut keep: impl FnMut(&Edge) -> bool) -> WeightedGraph {
        let mut g = WeightedGraph::new(self.node_count());
        for e in self.edges() {
            if keep(&e) {
                g.add(e);
            }
        }
        g
    }

    /// Whether `other` is a subgraph of `self` on the same vertex set
    /// (every edge of `other` exists in `self`; weights are not compared).
    pub fn contains_subgraph(&self, other: &WeightedGraph) -> bool {
        other.node_count() == self.node_count() && other.edges().all(|e| self.has_edge(e.u, e.v))
    }

    /// Adds enough isolated vertices to reach `nodes` vertices.
    pub fn grow_to(&mut self, nodes: usize) {
        while self.adjacency.len() < nodes {
            self.adjacency.push(Vec::new());
        }
    }
}

impl fmt::Display for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph(n={}, m={}, w={:.4})",
            self.node_count(),
            self.edge_count(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 0, 3.0);
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_edgeless());
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_edge_overwrites_weight() {
        let mut g = triangle();
        assert_eq!(g.add_edge(0, 1, 5.0), Some(1.0));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.edge_weight(1, 0), Some(5.0));
        // adjacency updated symmetrically
        assert!(g.neighbors(0).iter().any(|&(n, w)| n == 1 && w == 5.0));
        assert!(g.neighbors(1).iter().any(|&(n, w)| n == 0 && w == 5.0));
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g = triangle();
        assert_eq!(g.remove_edge(1, 0).unwrap(), 1.0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(
            g.remove_edge(0, 1).unwrap_err(),
            GraphError::MissingEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn edge_count_follows_inserts_overwrites_and_removals() {
        let mut g = triangle();
        assert_eq!(g.add_edge(1, 0, 4.0), Some(1.0));
        assert_eq!(g.add_edge(2, 1, 4.0), Some(2.0));
        assert_eq!(g.edge_count(), 3, "an overwrite adds no edge");
        assert_eq!(g.remove_edge(2, 0).unwrap(), 3.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.remove_edge(1, 2).unwrap(), 4.0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(1, 2).is_err());
        assert_eq!(g.edge_count(), 1, "a failed removal changes nothing");
        assert_eq!(g.remove_edge(0, 1).unwrap(), 4.0);
        assert!(g.is_edgeless());
        assert_eq!(g.add_edge(0, 2, 1.5), None);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn removal_keeps_the_order_of_the_remaining_row_entries() {
        let mut g = WeightedGraph::new(5);
        for v in [3, 1, 4, 2] {
            g.add_edge(0, v, v as f64);
        }
        g.remove_edge(1, 0).unwrap();
        let row: Vec<NodeId> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        assert_eq!(row, vec![3, 4, 2]);
    }

    #[test]
    fn lookups_with_out_of_range_endpoints_find_nothing() {
        let g = triangle();
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(7, 1));
        assert!(!g.has_edge(usize::MAX, usize::MAX));
        assert_eq!(g.edge_weight(3, 0), None);
        assert_eq!(g.edge_weight(1, 9), None);
        assert!(!g.has_edge(1, 1), "no self-loops");
        assert_eq!(WeightedGraph::new(0).edge_weight(0, 0), None);
        let mut h = triangle();
        assert_eq!(
            h.remove_edge(0, 3).unwrap_err(),
            GraphError::NodeOutOfRange { node: 3, nodes: 3 }
        );
        assert_eq!(
            h.remove_edge(1, 1).unwrap_err(),
            GraphError::MissingEdge { u: 1, v: 1 }
        );
    }

    #[test]
    fn from_adjacency_keeps_rows_and_counts_edges() {
        let g = WeightedGraph::from_adjacency(vec![
            vec![(2, 3.0), (1, 1.0)],
            vec![(0, 1.0), (2, 2.0)],
            vec![(0, 3.0), (1, 2.0)],
            vec![],
        ]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[(2, 3.0), (1, 1.0)]);
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|e| (e.u, e.v)).collect();
        assert_eq!(edges, vec![(0, 2), (0, 1), (1, 2)]);
        assert!(WeightedGraph::from_adjacency(Vec::new()).is_edgeless());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_adjacency_rejects_one_sided_rows() {
        let _ = WeightedGraph::from_adjacency(vec![vec![(1, 1.0)], vec![]]);
    }

    #[test]
    fn missing_edge_error_displays() {
        let err = GraphError::MissingEdge { u: 1, v: 2 };
        assert!(err.to_string().contains("does not exist"));
        let err = GraphError::NodeOutOfRange { node: 9, nodes: 3 };
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 2, 1.0);
    }

    #[test]
    fn sorted_edges_are_nondecreasing() {
        let g = triangle();
        let edges = g.sorted_edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.windows(2).all(|w| w[0].weight <= w[1].weight));
    }

    #[test]
    fn power_cost_sums_max_incident_weight() {
        let g = triangle();
        // node 0: max(1,3)=3, node 1: max(1,2)=2, node 2: max(2,3)=3
        assert!((g.power_cost() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn filter_and_subgraph_relation() {
        let g = triangle();
        let light = g.filter_edges(|e| e.weight <= 2.0);
        assert_eq!(light.edge_count(), 2);
        assert!(g.contains_subgraph(&light));
        assert!(!light.contains_subgraph(&g));
    }

    #[test]
    fn from_edges_builder() {
        let g = WeightedGraph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 2.0)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(3, 2));
    }

    #[test]
    fn grow_to_adds_isolated_vertices() {
        let mut g = triangle();
        g.grow_to(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.degree(4), 0);
        g.grow_to(2);
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn display_is_informative() {
        let g = triangle();
        let s = format!("{g}");
        assert!(s.contains("n=3"));
        assert!(s.contains("m=3"));
    }
}
