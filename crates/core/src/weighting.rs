//! Edge weighting of the input graph.
//!
//! The paper's default weighs edges by Euclidean length; extension 2 of
//! Section 1.6 observes that the same algorithm works for the metric
//! `c·|uv|^γ` (`c > 0`, `γ ≥ 1`), producing *energy spanners*. The
//! [`EdgeWeighting`] enum selects between the two without threading a
//! generic metric parameter through the whole algorithm: every weighting
//! here is a monotone function of the Euclidean distance, which is the
//! property the binning and cluster arguments rely on.

use serde::Serialize;
use std::borrow::Cow;
use tc_geometry::{Euclidean, Metric, Point, PowerMetric};
use tc_graph::WeightedGraph;
use tc_ubg::UnitBallGraph;

/// Which weight function the spanner is built and measured under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum EdgeWeighting {
    /// Euclidean length `|uv|` (the paper's default).
    #[default]
    Euclidean,
    /// The energy metric `c·|uv|^γ` (Section 1.6, extension 2).
    Power {
        /// Multiplicative constant `c > 0`.
        c: f64,
        /// Path-loss exponent `γ ≥ 1`.
        gamma: f64,
    },
}

impl EdgeWeighting {
    /// Weight of the segment `uv` under this weighting.
    pub fn weight(&self, u: &Point, v: &Point) -> f64 {
        match *self {
            EdgeWeighting::Euclidean => Euclidean.distance(u, v),
            EdgeWeighting::Power { c, gamma } => PowerMetric::new(c, gamma).distance(u, v),
        }
    }

    /// Weight corresponding to a Euclidean distance `d` (usable when the
    /// points themselves are not at hand).
    pub fn weight_of_distance(&self, d: f64) -> f64 {
        match *self {
            EdgeWeighting::Euclidean => d,
            EdgeWeighting::Power { c, gamma } => c * d.powf(gamma),
        }
    }

    /// The realised α-UBG's graph re-weighted under this weighting. The
    /// Euclidean weighting borrows the UBG's own graph, whose weights the
    /// builder already made Euclidean; the power weighting builds a
    /// re-weighted copy.
    pub fn weighted_graph<'a>(&self, ubg: &'a UnitBallGraph) -> Cow<'a, WeightedGraph> {
        match *self {
            EdgeWeighting::Euclidean => Cow::Borrowed(ubg.graph()),
            EdgeWeighting::Power { c, gamma } => {
                Cow::Owned(ubg.reweighted(&PowerMetric::new(c, gamma)))
            }
        }
    }

    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeWeighting::Euclidean => "euclidean",
            EdgeWeighting::Power { .. } => "power",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_ubg::UbgBuilder;

    #[test]
    fn euclidean_weighting_matches_distance() {
        let w = EdgeWeighting::Euclidean;
        let u = Point::new2(0.0, 0.0);
        let v = Point::new2(0.6, 0.8);
        assert!((w.weight(&u, &v) - 1.0).abs() < 1e-12);
        assert_eq!(w.weight_of_distance(0.4), 0.4);
        assert_eq!(w.name(), "euclidean");
    }

    #[test]
    fn power_weighting_raises_to_gamma() {
        let w = EdgeWeighting::Power { c: 2.0, gamma: 2.0 };
        let u = Point::new2(0.0, 0.0);
        let v = Point::new2(0.5, 0.0);
        assert!((w.weight(&u, &v) - 0.5).abs() < 1e-12);
        assert!((w.weight_of_distance(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.name(), "power");
    }

    #[test]
    fn weighted_graph_keeps_edges_and_changes_weights() {
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.5, 0.0),
            Point::new2(0.9, 0.0),
        ];
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let euclid = EdgeWeighting::Euclidean.weighted_graph(&ubg);
        let power = EdgeWeighting::Power { c: 1.0, gamma: 2.0 }.weighted_graph(&ubg);
        assert!(
            matches!(euclid, Cow::Borrowed(_)),
            "no copy of the UBG's graph"
        );
        assert!(std::ptr::eq(&*euclid, ubg.graph()));
        assert_eq!(euclid.edge_count(), power.edge_count());
        assert!((euclid.edge_weight(0, 1).unwrap() - 0.5).abs() < 1e-12);
        assert!((power.edge_weight(0, 1).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn default_is_euclidean() {
        assert_eq!(EdgeWeighting::default(), EdgeWeighting::Euclidean);
    }
}
