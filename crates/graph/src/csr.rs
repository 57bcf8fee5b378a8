//! The immutable compressed-sparse-row graph used by the hot read paths.
//!
//! [`WeightedGraph`](crate::WeightedGraph) is a `Vec`-of-`Vec` adjacency
//! structure: perfect for *building* a topology edge by edge, but every
//! node's neighbor list is a separate heap allocation and every weight
//! lookup scans an unsorted row. The all-pairs stretch
//! verification (one Dijkstra per edge source) and the baseline
//! constructions spend nearly all their time chasing those pointers.
//!
//! [`CsrGraph`] stores the same graph as three flat arrays — row offsets,
//! neighbor ids (`u32`), weights — with each row sorted by neighbor id.
//! Iteration over a neighborhood is a linear scan of contiguous memory,
//! degree is O(1), membership is a binary search of a small sorted slice,
//! and the whole structure is two cache-friendly allocations. The trade
//! is immutability: build on `WeightedGraph`, convert once, measure on
//! `CsrGraph` (see `docs/PERFORMANCE.md` for the measured gap).

use crate::{Edge, GraphView, NodeId, NodeOrder, WeightedGraph};
use std::fmt;

/// An immutable undirected graph with non-negative edge weights in
/// compressed-sparse-row layout.
///
/// Vertices are the integers `0..n`. Neighbor ids are stored as `u32`
/// (half the footprint of `usize` adjacency pairs), each row is sorted by
/// neighbor id, and both endpoints' rows hold the shared weight. Parallel
/// edges and self-loops are rejected at construction.
///
/// # Example
///
/// ```
/// use tc_graph::{CsrGraph, Edge, GraphView, WeightedGraph};
///
/// // Build mutably, then snapshot to CSR for the read-heavy phase.
/// let mut builder = WeightedGraph::new(3);
/// builder.add_edge(0, 1, 1.0);
/// builder.add_edge(1, 2, 0.5);
/// let csr = CsrGraph::from(&builder);
/// assert_eq!(csr.node_count(), 3);
/// assert_eq!(csr.edge_count(), 2);
/// assert_eq!(csr.degree(1), 2);
/// assert_eq!(csr.edge_weight(2, 1), Some(0.5));
///
/// // Or construct directly from an edge list.
/// let direct = CsrGraph::from_edges(3, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 0.5)]);
/// assert_eq!(direct.neighbor_ids(1), &[0, 2]);
/// assert_eq!(direct.neighbor_weights(1), &[1.0, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// Row offsets: the neighbors of `u` live at `targets[offsets[u] as
    /// usize..offsets[u + 1] as usize]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbor ids, each row sorted ascending. Length `2m`.
    targets: Vec<u32>,
    /// Weights parallel to `targets`. Length `2m`.
    weights: Vec<f64>,
}

impl CsrGraph {
    /// Creates an edgeless CSR graph with `nodes` vertices.
    pub fn new(nodes: usize) -> Self {
        Self::from_directed(nodes, Vec::new())
    }

    /// Creates a CSR graph with `nodes` vertices and the given edges.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range, on self-loops or parallel
    /// edges, on non-finite or negative weights, or if `nodes` or the
    /// directed edge count overflows `u32`.
    ///
    /// ```
    /// use tc_graph::{CsrGraph, Edge, GraphView};
    /// let g = CsrGraph::from_edges(4, vec![Edge::new(2, 0, 2.0), Edge::new(0, 1, 1.0)]);
    /// assert_eq!(g.neighbor_ids(0), &[1, 2]);
    /// assert!(g.has_edge(0, 2) && !g.has_edge(1, 2));
    /// ```
    pub fn from_edges(nodes: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut directed = Vec::new();
        for e in edges {
            assert!(
                e.u < nodes && e.v < nodes,
                "edge endpoint out of range for a graph with {nodes} nodes"
            );
            assert_ne!(e.u, e.v, "self-loops are not allowed");
            assert!(
                e.weight >= 0.0 && e.weight.is_finite(),
                "edge weight must be finite and non-negative"
            );
            directed.push((e.u as u32, e.v as u32, e.weight));
            directed.push((e.v as u32, e.u as u32, e.weight));
        }
        Self::from_directed(nodes, directed)
    }

    /// The CSR snapshot of `graph` with every node renumbered to its
    /// position in `order`: row `p` is the row of `order.node_at(p)`, its
    /// targets mapped to their positions and sorted. The rows are gathered
    /// straight into place, so no intermediate edge list or original-order
    /// snapshot is built.
    ///
    /// ```
    /// use tc_graph::{CsrGraph, NodeOrder, WeightedGraph};
    ///
    /// let mut g = WeightedGraph::new(3);
    /// g.add_edge(0, 2, 1.0);
    /// let order = NodeOrder::from_nodes(vec![2, 1, 0]);
    /// let csr = CsrGraph::relabelled(&g, &order);
    /// assert_eq!(csr.neighbor_ids(0), &[2]);
    /// assert_eq!(csr.edge_weight(2, 0), Some(1.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `order` does not have one position per node of `graph`,
    /// or if the graph does not fit the `u32` indices.
    pub fn relabelled<G: GraphView>(graph: &G, order: &NodeOrder) -> Self {
        let nodes = graph.node_count();
        assert_eq!(order.len(), nodes, "the order must cover every node");
        assert_indexable(nodes, 2 * graph.edge_count());
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        let mut weights = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u32);
        for p in 0..nodes {
            graph.for_each_neighbor(order.node_at(p), |v, w| {
                targets.push(order.position(v) as u32);
                weights.push(w);
            });
            offsets.push(targets.len() as u32);
        }
        Self::from_rows(offsets, targets, weights)
    }

    /// Counting-sort construction from directed `(source, target, weight)`
    /// entries; every undirected edge must appear once per direction.
    fn from_directed(nodes: usize, directed: Vec<(u32, u32, f64)>) -> Self {
        assert_indexable(nodes, directed.len());
        let mut offsets = vec![0u32; nodes + 1];
        for &(u, _, _) in &directed {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..nodes].to_vec();
        let mut targets = vec![0u32; directed.len()];
        let mut weights = vec![0.0f64; directed.len()];
        for (u, v, w) in directed {
            let slot = cursor[u as usize] as usize;
            cursor[u as usize] += 1;
            targets[slot] = v;
            weights[slot] = w;
        }
        Self::from_rows(offsets, targets, weights)
    }

    /// Finishes a construction whose rows are filled in place but not yet
    /// sorted: sorts each row by neighbor id.
    fn from_rows(offsets: Vec<u32>, mut targets: Vec<u32>, mut weights: Vec<f64>) -> Self {
        let nodes = offsets.len() - 1;
        // Sort each row by neighbor id so membership is a binary search
        // and iteration order is canonical regardless of insertion order.
        let mut row: Vec<(u32, f64)> = Vec::new();
        for u in 0..nodes {
            let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
            row.clear();
            row.extend(
                targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(weights[lo..hi].iter().copied()),
            );
            row.sort_unstable_by_key(|a| a.0);
            for (i, &(t, w)) in row.iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
            assert!(
                targets[lo..hi].windows(2).all(|p| p[0] < p[1]),
                "parallel edges are not allowed"
            );
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `u`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    fn row(&self, u: NodeId) -> (usize, usize) {
        (self.offsets[u] as usize, self.offsets[u + 1] as usize)
    }

    /// The neighbor ids of `u`, as a sorted contiguous slice.
    pub fn neighbor_ids(&self, u: NodeId) -> &[u32] {
        let (lo, hi) = self.row(u);
        &self.targets[lo..hi]
    }

    /// The edge weights of `u`'s incident edges, parallel to
    /// [`neighbor_ids`](Self::neighbor_ids).
    pub fn neighbor_weights(&self, u: NodeId) -> &[f64] {
        let (lo, hi) = self.row(u);
        &self.weights[lo..hi]
    }

    /// Iterator over `(neighbor, weight)` pairs of `u`, in ascending
    /// neighbor order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.neighbor_ids(u)
            .iter()
            .zip(self.neighbor_weights(u))
            .map(|(&v, &w)| (v as NodeId, w))
    }

    /// Whether the edge `{u, v}` is present (binary search of the smaller
    /// endpoint's row would be ideal; rows are small, so search `u`'s).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of the edge `{u, v}`, if present, by binary search.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let ids = self.neighbor_ids(u);
        let idx = ids.binary_search(&(v as u32)).ok()?;
        Some(self.neighbor_weights(u)[idx])
    }

    /// Iterator over all edges (each undirected edge reported once, in
    /// ascending `(u, v)` order — a canonical order, independent of how
    /// the graph was built, unlike the row order of `WeightedGraph::edges`).
    ///
    /// Rows are sorted, so the `v ≤ u` prefix of each row is skipped with
    /// a binary search instead of filtering all `2m` directed entries.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            let (lo, hi) = self.row(u);
            let start = lo + self.targets[lo..hi].partition_point(|&t| (t as usize) <= u);
            self.targets[start..hi]
                .iter()
                .zip(&self.weights[start..hi])
                .map(move |(&v, &w)| Edge {
                    u,
                    v: v as NodeId,
                    weight: w,
                })
        })
    }
}

/// Panics unless `nodes` nodes and `entries` directed edge entries fit the
/// `u32` indices.
fn assert_indexable(nodes: usize, entries: usize) {
    assert!(
        u32::try_from(nodes).is_ok(),
        "CSR graphs index nodes with u32; {nodes} nodes do not fit"
    );
    assert!(
        u32::try_from(entries).is_ok(),
        "CSR graphs index edges with u32; {entries} directed edges do not fit"
    );
}

impl From<&WeightedGraph> for CsrGraph {
    /// Snapshots a finished [`WeightedGraph`] into CSR layout. This is the
    /// conversion done once per constructed graph at the boundary between
    /// the mutating construction phase and the read-only measurement
    /// phase.
    fn from(graph: &WeightedGraph) -> Self {
        // Rows are copied straight into place: staging all 2m directed
        // entries (16 bytes each) first would outweigh the CSR itself.
        let n = graph.node_count();
        let total: usize = (0..n).map(|u| graph.degree(u)).sum();
        assert_indexable(n, total);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for u in 0..n {
            offsets.push(offsets[u] + graph.degree(u) as u32);
        }
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for u in 0..n {
            for &(v, w) in graph.neighbors(u) {
                targets.push(v as u32);
                weights.push(w);
            }
        }
        Self::from_rows(offsets, targets, weights)
    }
}

impl GraphView for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        CsrGraph::degree(self, u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        CsrGraph::edge_weight(self, u, v)
    }

    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut visit: F) {
        let (lo, hi) = self.row(u);
        for (&v, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
            visit(v as NodeId, w);
        }
    }

    // Same row-skip logic as `edges()`, kept as an explicit loop: the
    // `flat_map` iterator chain measured ~35% slower on the 20k-node
    // connected-components comparison (docs/PERFORMANCE.md, "The
    // representation comparison (history)").
    fn for_each_edge<F: FnMut(Edge)>(&self, mut visit: F) {
        for u in 0..self.node_count() {
            let (lo, hi) = self.row(u);
            let start = lo + self.targets[lo..hi].partition_point(|&t| (t as usize) <= u);
            for (&v, &w) in self.targets[start..hi].iter().zip(&self.weights[start..hi]) {
                visit(Edge {
                    u,
                    v: v as NodeId,
                    weight: w,
                });
            }
        }
    }

    fn power_cost(&self) -> f64 {
        (0..self.node_count())
            .map(|u| {
                self.neighbor_weights(u)
                    .iter()
                    .copied()
                    .fold(0.0_f64, f64::max)
            })
            .sum()
    }
}

impl fmt::Display for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph(n={}, m={}, w={:.4})",
            self.node_count(),
            self.edge_count(),
            GraphView::total_weight(self)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 0, 3.0);
        g
    }

    fn random_graph(seed: u64, n: usize, p: f64) -> WeightedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, rng.gen_range(0.1..2.0));
                }
            }
        }
        g
    }

    #[test]
    fn conversion_preserves_counts_and_weights() {
        let g = triangle();
        let csr = CsrGraph::from(&g);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.edge_weight(0, 1), Some(1.0));
        assert_eq!(csr.edge_weight(1, 0), Some(1.0));
        assert_eq!(csr.edge_weight(0, 2), Some(3.0));
        assert_eq!(csr.edge_weight(1, 1), None);
        assert!(csr.has_edge(2, 1));
        assert!(!CsrGraph::new(3).has_edge(0, 1));
    }

    #[test]
    fn rows_are_sorted_and_contiguous() {
        let g = random_graph(3, 30, 0.4);
        let csr = CsrGraph::from(&g);
        for u in 0..csr.node_count() {
            let ids = csr.neighbor_ids(u);
            assert!(ids.windows(2).all(|p| p[0] < p[1]), "row {u} unsorted");
            assert_eq!(ids.len(), csr.neighbor_weights(u).len());
            assert_eq!(ids.len(), g.degree(u));
        }
    }

    #[test]
    fn edges_iterate_once_in_canonical_order() {
        let g = random_graph(4, 25, 0.3);
        let csr = CsrGraph::from(&g);
        let edges: Vec<Edge> = csr.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges
            .windows(2)
            .all(|p| (p[0].u, p[0].v) < (p[1].u, p[1].v)));
        for e in &edges {
            assert_eq!(g.edge_weight(e.u, e.v), Some(e.weight));
        }
    }

    #[test]
    fn from_edges_matches_conversion() {
        let g = random_graph(5, 20, 0.5);
        let direct = CsrGraph::from_edges(g.node_count(), g.edges());
        let converted = CsrGraph::from(&g);
        assert_eq!(direct, converted);
        // Rows filled in descending neighbour order, with a removal, still
        // convert to the same sorted rows.
        let mut shuffled = WeightedGraph::new(g.node_count());
        let mut edges: Vec<Edge> = g.edges().collect();
        edges.reverse();
        for e in &edges {
            shuffled.add_edge(e.v, e.u, e.weight);
        }
        shuffled.add_edge(0, 19, 9.0);
        let _ = shuffled.remove_edge(0, 19);
        let _ = shuffled.remove_edge(edges[3].u, edges[3].v);
        let mut expected = g.clone();
        let _ = expected.remove_edge(edges[3].u, edges[3].v);
        assert_eq!(CsrGraph::from(&shuffled), CsrGraph::from(&expected));
        assert_eq!(
            CsrGraph::from(&shuffled),
            CsrGraph::from_edges(g.node_count(), expected.edges())
        );
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let empty = CsrGraph::new(0);
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        assert_eq!(empty.edges().count(), 0);
        let isolated = CsrGraph::from(&WeightedGraph::new(4));
        assert_eq!(isolated.node_count(), 4);
        assert!(GraphView::is_edgeless(&isolated));
        assert_eq!(isolated.degree(2), 0);
        assert_eq!(isolated.neighbors(2).count(), 0);
    }

    #[test]
    fn display_is_informative() {
        let csr = CsrGraph::from(&triangle());
        let s = format!("{csr}");
        assert!(s.contains("n=3") && s.contains("m=3"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_rejected() {
        let _ = CsrGraph::from_edges(
            2,
            vec![Edge {
                u: 0,
                v: 2,
                weight: 1.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "parallel edges")]
    fn parallel_edges_rejected() {
        let _ = CsrGraph::from_edges(3, vec![Edge::new(0, 1, 1.0), Edge::new(1, 0, 2.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite: the CSR round-trip preserves the edge set and every
        /// weight bitwise.
        #[test]
        fn csr_round_trip_is_exact(seed in 0u64..1000, n in 0usize..40, p in 0.0f64..0.7) {
            let g = random_graph(seed, n, p);
            let csr = CsrGraph::from(&g);
            prop_assert_eq!(csr.node_count(), g.node_count());
            prop_assert_eq!(csr.edge_count(), g.edge_count());
            let mut originals = g.sorted_edges();
            originals.sort_by_key(|e| (e.u, e.v));
            let round_tripped: Vec<Edge> = csr.edges().collect();
            prop_assert_eq!(originals.len(), round_tripped.len());
            for (a, b) in originals.iter().zip(round_tripped.iter()) {
                prop_assert_eq!(a.key(), b.key());
                // Bitwise, not approximate: conversion must not touch weights.
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        }

        /// A renumbered snapshot holds every edge of the graph between the
        /// endpoints' positions, weights bitwise.
        #[test]
        fn renumbered_snapshots_hold_the_same_edges(seed in 0u64..1000, n in 0usize..40, p in 0.0f64..0.5) {
            let g = random_graph(seed, n, p);
            let order = NodeOrder::breadth_first(&g);
            let relabelled = CsrGraph::relabelled(&g, &order);
            prop_assert_eq!(relabelled.edge_count(), g.edge_count());
            for e in g.edges() {
                let w = relabelled.edge_weight(order.position(e.u), order.position(e.v));
                prop_assert_eq!(w.map(f64::to_bits), Some(e.weight.to_bits()));
            }
        }

        /// Satellite: Dijkstra on the CSR layout returns bitwise-identical
        /// distances to Dijkstra on the adjacency-list layout.
        #[test]
        fn dijkstra_on_csr_is_bitwise_identical(seed in 0u64..500, n in 1usize..35, p in 0.05f64..0.6) {
            let g = random_graph(seed, n, p);
            let csr = CsrGraph::from(&g);
            for source in 0..n {
                let on_list = dijkstra::shortest_path_distances(&g, source);
                let on_csr = dijkstra::shortest_path_distances(&csr, source);
                for (a, b) in on_list.iter().zip(on_csr.iter()) {
                    match (a, b) {
                        (Some(x), Some(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                        (None, None) => {}
                        _ => prop_assert!(false, "reachability mismatch from {}", source),
                    }
                }
            }
        }
    }
}
