//! The read-only graph abstraction shared by both graph representations.
//!
//! The workspace keeps two representations of an edge-weighted undirected
//! graph (see `docs/PERFORMANCE.md` for the rationale and measurements):
//!
//! * [`WeightedGraph`](crate::WeightedGraph) — the mutable *builder*:
//!   one adjacency `Vec` per node, cheap to grow and rewire while an
//!   algorithm constructs a topology;
//! * [`CsrGraph`](crate::CsrGraph) — the immutable *measurement* layout:
//!   compressed sparse row with `u32` indices and cache-linear neighbor
//!   slices, built once from a finished graph.
//!
//! [`GraphView`] is the trait both implement. Every read-only algorithm in
//! this crate (Dijkstra, BFS, connected components, MST, the property
//! measurements) is generic over it, so callers pick the representation
//! that fits: mutate on `WeightedGraph`, measure on `CsrGraph`.
//!
//! The traversal primitives are the *required* methods; derived metrics
//! (degree statistics, total weight, power cost) have default
//! implementations in terms of them which implementors may override with
//! faster layout-specific versions.

use crate::{Edge, NodeId};

/// Read-only access to an edge-weighted undirected graph.
///
/// Implemented by both [`WeightedGraph`](crate::WeightedGraph) (the
/// mutable adjacency-list builder) and [`CsrGraph`](crate::CsrGraph) (the
/// immutable compressed-sparse-row layout for hot read paths). Algorithms
/// that only *read* a graph should be generic over this trait.
pub trait GraphView {
    /// Number of vertices.
    fn node_count(&self) -> usize;

    /// Number of (undirected) edges.
    fn edge_count(&self) -> usize;

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn degree(&self, u: NodeId) -> usize;

    /// Whether the edge `{u, v}` is present.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Weight of the edge `{u, v}`, if present.
    fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64>;

    /// Calls `visit(v, w)` for every neighbor `v` of `u` with connecting
    /// edge weight `w`.
    ///
    /// This is the traversal primitive of the hot paths; implementations
    /// are expected to make it an inlineable loop over contiguous data.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, visit: F);

    /// Calls `visit(e)` once per undirected edge.
    fn for_each_edge<F: FnMut(Edge)>(&self, visit: F);

    /// Whether the graph has no edges.
    fn is_edgeless(&self) -> bool {
        self.edge_count() == 0
    }

    /// All edges, collected once per undirected edge.
    fn collect_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.edge_count());
        self.for_each_edge(|e| edges.push(e));
        edges
    }

    /// All edges sorted by (weight, endpoints) — the processing order of
    /// `SEQ-GREEDY` and Kruskal.
    fn sorted_edge_list(&self) -> Vec<Edge> {
        let mut edges = self.collect_edges();
        edges.sort();
        edges
    }

    /// Maximum degree Δ of the graph (0 for an empty graph).
    fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Mean degree of the graph (0 for an empty graph).
    fn mean_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Sum of all edge weights `w(G)`.
    fn total_weight(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_edge(|e| total += e.weight);
        total
    }

    /// The *power cost* of the graph: `Σ_u max_{v ∈ N(u)} w(u, v)`
    /// (Section 1.6, extension 3 of the paper). Isolated nodes contribute 0.
    fn power_cost(&self) -> f64 {
        let mut total = 0.0;
        for u in 0..self.node_count() {
            let mut max_w = 0.0_f64;
            self.for_each_neighbor(u, |_, w| max_w = max_w.max(w));
            total += max_w;
        }
        total
    }
}

impl GraphView for crate::WeightedGraph {
    fn node_count(&self) -> usize {
        crate::WeightedGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        crate::WeightedGraph::edge_count(self)
    }

    fn degree(&self, u: NodeId) -> usize {
        crate::WeightedGraph::degree(self, u)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        crate::WeightedGraph::has_edge(self, u, v)
    }

    fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        crate::WeightedGraph::edge_weight(self, u, v)
    }

    fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut visit: F) {
        for &(v, w) in self.neighbors(u) {
            visit(v, w);
        }
    }

    fn for_each_edge<F: FnMut(Edge)>(&self, mut visit: F) {
        for e in self.edges() {
            visit(e);
        }
    }

    fn total_weight(&self) -> f64 {
        crate::WeightedGraph::total_weight(self)
    }

    fn power_cost(&self) -> f64 {
        crate::WeightedGraph::power_cost(self)
    }

    fn max_degree(&self) -> usize {
        crate::WeightedGraph::max_degree(self)
    }

    fn mean_degree(&self) -> f64 {
        crate::WeightedGraph::mean_degree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, WeightedGraph};

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 0, 3.0);
        g
    }

    /// A generic function exercising every trait method, to prove both
    /// representations satisfy the same contract.
    fn summarize<G: GraphView>(g: &G) -> (usize, usize, usize, f64, f64, bool) {
        let mut neighbor_visits = 0;
        for u in 0..g.node_count() {
            g.for_each_neighbor(u, |_, _| neighbor_visits += 1);
        }
        (
            g.node_count(),
            g.edge_count(),
            neighbor_visits,
            g.total_weight(),
            g.power_cost(),
            g.is_edgeless(),
        )
    }

    #[test]
    fn both_representations_agree_through_the_trait() {
        let g = triangle();
        let csr = CsrGraph::from(&g);
        assert_eq!(summarize(&g), summarize(&csr));
        assert_eq!(GraphView::max_degree(&g), GraphView::max_degree(&csr));
        assert_eq!(GraphView::mean_degree(&g), GraphView::mean_degree(&csr));
        assert_eq!(g.sorted_edge_list(), csr.sorted_edge_list());
    }

    #[test]
    fn default_metric_implementations_match_the_overrides() {
        struct Wrapper<'a>(&'a WeightedGraph);
        impl GraphView for Wrapper<'_> {
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn edge_count(&self) -> usize {
                self.0.edge_count()
            }
            fn degree(&self, u: NodeId) -> usize {
                self.0.degree(u)
            }
            fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
                self.0.has_edge(u, v)
            }
            fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
                self.0.edge_weight(u, v)
            }
            fn for_each_neighbor<F: FnMut(NodeId, f64)>(&self, u: NodeId, mut visit: F) {
                for &(v, w) in self.0.neighbors(u) {
                    visit(v, w);
                }
            }
            fn for_each_edge<F: FnMut(Edge)>(&self, mut visit: F) {
                for e in self.0.edges() {
                    visit(e);
                }
            }
        }
        let g = triangle();
        let w = Wrapper(&g);
        assert_eq!(w.max_degree(), g.max_degree());
        assert!((w.mean_degree() - g.mean_degree()).abs() < 1e-12);
        assert!((w.total_weight() - g.total_weight()).abs() < 1e-12);
        assert!((w.power_cost() - g.power_cost()).abs() < 1e-12);
        assert!(!w.is_edgeless());
    }
}
