//! The realised α-quasi unit ball graph: node positions plus the graph.

use serde::Serialize;
use tc_geometry::{Point, PointAccess, PointStore};
use tc_graph::{CsrGraph, WeightedGraph};

/// A realised d-dimensional α-quasi unit ball graph.
///
/// Holds the node positions, the parameter `α`, and the realised graph with
/// Euclidean edge weights. Constructed by [`crate::UbgBuilder`]; the struct
/// itself only exposes read access and derived views (such as re-weighting
/// by a function of distance for the energy-spanner extension).
///
/// Positions are stored as a structure-of-arrays [`PointStore`] — one flat
/// coordinate array per axis — so million-node instances stay cache-friendly
/// and free of per-point allocations. [`Self::points`] hands out the store;
/// index-based readers go through [`PointAccess`].
#[derive(Debug, Clone, Serialize)]
pub struct UnitBallGraph {
    points: PointStore,
    alpha: f64,
    graph: WeightedGraph,
}

impl UnitBallGraph {
    /// Assembles a realised UBG from its parts. Intended for use by the
    /// builder and by tests that construct hand-crafted instances.
    ///
    /// # Panics
    ///
    /// Panics if the graph's vertex count differs from the number of
    /// points, if the points do not all share one dimension, or if `alpha`
    /// is outside `(0, 1]`.
    pub fn from_parts(points: Vec<Point>, alpha: f64, graph: WeightedGraph) -> Self {
        let dim = points.first().map_or(0, Point::dim);
        let mut store = PointStore::with_capacity(dim, points.len());
        for p in &points {
            assert_eq!(p.dim(), dim, "points must all share one dimension");
            store.push(p.coords());
        }
        Self::from_store(store, alpha, graph)
    }

    /// Assembles a realised UBG from a structure-of-arrays point store.
    ///
    /// # Panics
    ///
    /// Panics if the graph's vertex count differs from the number of
    /// points, or if `alpha` is outside `(0, 1]`.
    pub fn from_store(points: PointStore, alpha: f64, graph: WeightedGraph) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        assert_eq!(
            points.len(),
            graph.node_count(),
            "graph vertex count must match the number of points"
        );
        Self {
            points,
            alpha,
            graph,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The parameter `α` of the model.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Dimension `d` of the ambient space (0 for an empty network).
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Node positions, in structure-of-arrays layout.
    pub fn points(&self) -> &PointStore {
        &self.points
    }

    /// Position of node `v`, materialised as an owned [`Point`].
    ///
    /// Index-based hot paths should read coordinates through
    /// [`Self::points`] and [`PointAccess`] instead of materialising.
    pub fn point(&self, v: usize) -> Point {
        self.points.point(v)
    }

    /// Euclidean distance `|uv|` between two nodes.
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        self.points.distance(u, v)
    }

    /// The realised graph, with Euclidean edge weights.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// A compressed-sparse-row snapshot of the realised graph.
    ///
    /// This is the conversion boundary of the two-representation graph
    /// core: constructions that only *read* the radio graph (the
    /// baselines, verification, measurement sweeps) should take one CSR
    /// snapshot up front and traverse that, leaving [`Self::graph`] for
    /// code that mutates or incrementally builds topologies.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from(&self.graph)
    }

    /// A copy of the realised graph with each edge `uv` weighted
    /// `weight_of_distance(|uv|)` (e.g. the power weighting `c·|uv|^γ` for
    /// energy spanners). The edge *set* is unchanged — only weights are
    /// recomputed from positions.
    pub fn reweighted(&self, weight_of_distance: impl Fn(f64) -> f64) -> WeightedGraph {
        let mut g = WeightedGraph::new(self.len());
        for e in self.graph.edges() {
            g.add_edge(e.u, e.v, weight_of_distance(self.distance(e.u, e.v)));
        }
        g
    }

    /// Checks the two hard constraints of the α-UBG model:
    /// every pair at distance ≤ α is an edge, and no pair at distance > 1
    /// is an edge. Returns `true` if both hold.
    ///
    /// Quadratic in the number of nodes; intended for tests and validation,
    /// not hot paths.
    pub fn is_valid_alpha_ubg(&self) -> bool {
        let n = self.len();
        for u in 0..n {
            for v in (u + 1)..n {
                let d = self.distance(u, v);
                let has = self.graph.has_edge(u, v);
                if d <= self.alpha && !has {
                    return false;
                }
                if d > 1.0 && has {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> UnitBallGraph {
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.4, 0.0),
            Point::new2(0.9, 0.0),
        ];
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 0.4);
        g.add_edge(1, 2, 0.5);
        UnitBallGraph::from_parts(points, 0.5, g)
    }

    #[test]
    fn accessors() {
        let ubg = tiny();
        assert_eq!(ubg.len(), 3);
        assert!(!ubg.is_empty());
        assert_eq!(ubg.dim(), 2);
        assert_eq!(ubg.alpha(), 0.5);
        assert!((ubg.distance(0, 2) - 0.9).abs() < 1e-12);
        assert_eq!(ubg.points().len(), 3);
        assert_eq!(ubg.point(1), Point::new2(0.4, 0.0));
    }

    #[test]
    fn store_construction_matches_point_construction() {
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.4, 0.0),
            Point::new2(0.9, 0.0),
        ];
        let store = PointStore::from_points(&points).unwrap();
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 0.4);
        let from_store = UnitBallGraph::from_store(store, 0.5, g.clone());
        let from_parts = UnitBallGraph::from_parts(points, 0.5, g);
        assert_eq!(from_store.points(), from_parts.points());
        assert_eq!(
            from_store.distance(0, 2).to_bits(),
            from_parts.distance(0, 2).to_bits()
        );
    }

    #[test]
    fn validity_check_accepts_and_rejects() {
        let ubg = tiny();
        assert!(ubg.is_valid_alpha_ubg());

        // Missing a mandatory short edge -> invalid.
        let mut missing = WeightedGraph::new(3);
        missing.add_edge(1, 2, 0.5);
        let bad = UnitBallGraph::from_parts(
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(0.4, 0.0),
                Point::new2(0.9, 0.0),
            ],
            0.5,
            missing,
        );
        assert!(!bad.is_valid_alpha_ubg());

        // An edge longer than 1 -> invalid.
        let mut long = WeightedGraph::new(2);
        long.add_edge(0, 1, 1.5);
        let bad = UnitBallGraph::from_parts(
            vec![Point::new2(0.0, 0.0), Point::new2(1.5, 0.0)],
            0.5,
            long,
        );
        assert!(!bad.is_valid_alpha_ubg());
    }

    #[test]
    fn csr_snapshot_matches_the_realised_graph() {
        let ubg = tiny();
        let csr = ubg.to_csr();
        assert_eq!(csr.node_count(), ubg.len());
        assert_eq!(csr.edge_count(), ubg.graph().edge_count());
        for e in ubg.graph().edges() {
            assert_eq!(csr.edge_weight(e.u, e.v), Some(e.weight));
        }
    }

    #[test]
    fn reweighting_preserves_edges_and_squares_weights() {
        let ubg = tiny();
        let energy = ubg.reweighted(|d| d.powf(2.0));
        assert_eq!(energy.edge_count(), 2);
        assert!((energy.edge_weight(0, 1).unwrap() - 0.16).abs() < 1e-12);
        assert!((energy.edge_weight(1, 2).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1]")]
    fn invalid_alpha_rejected() {
        let _ = UnitBallGraph::from_parts(vec![Point::new2(0.0, 0.0)], 1.5, WeightedGraph::new(1));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_graph_size_rejected() {
        let _ = UnitBallGraph::from_parts(vec![Point::new2(0.0, 0.0)], 0.5, WeightedGraph::new(2));
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn mixed_dimension_points_rejected_by_from_parts() {
        let _ = UnitBallGraph::from_parts(
            vec![Point::new2(0.0, 0.0), Point::new3(0.0, 0.0, 0.0)],
            0.5,
            WeightedGraph::new(2),
        );
    }
}
