//! Undirected weighted edges.

use crate::{cmp_f64, NodeId};
use serde::Serialize;
use std::cmp::Ordering;

/// An undirected, weighted edge `{u, v}` with `u ≤ v` after normalisation.
///
/// Edges compare by weight first (then by endpoints for determinism), which
/// is exactly the ordering `SEQ-GREEDY` processes edges in.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Edge {
    /// First endpoint (the smaller index after [`Edge::new`]).
    pub u: NodeId,
    /// Second endpoint (the larger index after [`Edge::new`]).
    pub v: NodeId,
    /// Edge weight (a non-negative length).
    pub weight: f64,
}

impl Edge {
    /// Creates a normalised edge with `u ≤ v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are meaningless for spanners) or if
    /// the weight is negative or NaN.
    pub fn new(u: NodeId, v: NodeId, weight: f64) -> Self {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            weight >= 0.0 && weight.is_finite(),
            "edge weight must be finite and non-negative"
        );
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        Self { u, v, weight }
    }

    /// The endpoints as a pair `(u, v)` with `u ≤ v`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.u {
            self.v
        } else if node == self.v {
            self.u
        } else {
            // Documented API contract (see `# Panics` above): callers must
            // pass an endpoint. tc-lint: allow(panic-hygiene)
            panic!(
                "node {node} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// Whether `node` is an endpoint of this edge.
    pub fn touches(&self, node: NodeId) -> bool {
        node == self.u || node == self.v
    }

    /// Whether the two edges share at least one endpoint.
    pub fn shares_endpoint(&self, other: &Edge) -> bool {
        self.touches(other.u) || self.touches(other.v)
    }

    /// An unordered key identifying the endpoints, independent of weight.
    pub fn key(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }
}

impl PartialEq for Edge {
    fn eq(&self, other: &Self) -> bool {
        self.u == other.u && self.v == other.v && self.weight == other.weight
    }
}

impl Eq for Edge {}

impl PartialOrd for Edge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Edge {
    fn cmp(&self, other: &Self) -> Ordering {
        // Weights are finite (asserted in `Edge::new`), so the IEEE total
        // order agrees with `<` and never mis-sorts a heap.
        cmp_f64(&self.weight, &other.weight)
            .then(self.u.cmp(&other.u))
            .then(self.v.cmp(&other.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_normalised() {
        let e = Edge::new(5, 2, 1.5);
        assert_eq!(e.endpoints(), (2, 5));
        assert_eq!(e.key(), (2, 5));
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(1, 3, 1.0);
        assert_eq!(e.other(1), 3);
        assert_eq!(e.other(3), 1);
        assert!(e.touches(1));
        assert!(!e.touches(2));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let e = Edge::new(1, 3, 1.0);
        let _ = e.other(2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Edge::new(2, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        let _ = Edge::new(0, 1, -1.0);
    }

    #[test]
    fn ordering_is_by_weight_then_endpoints() {
        let mut edges = [
            Edge::new(3, 4, 2.0),
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
        ];
        edges.sort();
        assert_eq!(edges[0].key(), (0, 1));
        assert_eq!(edges[1].key(), (1, 2));
        assert_eq!(edges[2].key(), (3, 4));
    }

    #[test]
    fn shares_endpoint_detects_adjacency() {
        let a = Edge::new(0, 1, 1.0);
        let b = Edge::new(1, 2, 1.0);
        let c = Edge::new(2, 3, 1.0);
        assert!(a.shares_endpoint(&b));
        assert!(!a.shares_endpoint(&c));
    }
}
