//! Edge-weight metrics.
//!
//! The paper weighs edges by Euclidean distance `|uv|`, and notes (Section
//! 1.6, extension 2) that the same algorithm produces *energy spanners*
//! when the metric `c·|uv|^γ` (for `c > 0`, `γ ≥ 1`) is used instead. The
//! [`Metric`] trait abstracts over that choice so the spanner construction,
//! verification and the benchmarks can be run under either weighting.

use crate::Point;
use serde::Serialize;

/// A symmetric, non-negative weight function on pairs of points.
///
/// Implementors must guarantee `weight(u, v) == weight(v, u)`,
/// `weight(u, u) == 0`, and monotonicity in the Euclidean distance (the
/// paper's arguments only require the weight to be an increasing function
/// of `|uv|`).
pub trait Metric {
    /// Weight assigned to the segment `uv`.
    fn distance(&self, u: &Point, v: &Point) -> f64;

    /// Human-readable name, used in experiment tables.
    fn name(&self) -> &'static str {
        "metric"
    }
}

/// The Euclidean metric `|uv|` — the paper's default edge weight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Euclidean;

impl Metric for Euclidean {
    fn distance(&self, u: &Point, v: &Point) -> f64 {
        u.distance(v)
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }
}

/// The energy (power) metric `c·|uv|^γ` from Section 1.6 of the paper.
///
/// With a path-loss exponent `γ` between 2 and 4 this models the
/// transmission energy needed to cover the link, so spanners under this
/// metric are *energy spanners*.
///
/// ```
/// use tc_geometry::{Metric, Point, PowerMetric};
/// let m = PowerMetric::new(1.0, 2.0);
/// let u = Point::new2(0.0, 0.0);
/// let v = Point::new2(0.0, 3.0);
/// assert!((m.distance(&u, &v) - 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerMetric {
    /// Multiplicative constant `c > 0`.
    pub c: f64,
    /// Path-loss exponent `γ ≥ 1`.
    pub gamma: f64,
}

impl PowerMetric {
    /// Creates the metric `c·|uv|^γ`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `gamma < 1`, which would violate the paper's
    /// preconditions for the energy-spanner extension.
    pub fn new(c: f64, gamma: f64) -> Self {
        assert!(c > 0.0, "the constant c must be positive");
        assert!(gamma >= 1.0, "the path-loss exponent must be at least 1");
        Self { c, gamma }
    }
}

impl Default for PowerMetric {
    fn default() -> Self {
        Self::new(1.0, 2.0)
    }
}

impl Metric for PowerMetric {
    fn distance(&self, u: &Point, v: &Point) -> f64 {
        self.c * u.distance(v).powf(self.gamma)
    }

    fn name(&self) -> &'static str {
        "power"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_matches_point_distance() {
        let u = Point::new2(1.0, 1.0);
        let v = Point::new2(4.0, 5.0);
        assert!((Euclidean.distance(&u, &v) - 5.0).abs() < 1e-12);
        assert_eq!(Euclidean.name(), "euclidean");
    }

    #[test]
    fn power_metric_squares_distance() {
        let m = PowerMetric::new(2.0, 2.0);
        let u = Point::new2(0.0, 0.0);
        let v = Point::new2(3.0, 4.0);
        assert!((m.distance(&u, &v) - 50.0).abs() < 1e-9);
        assert_eq!(m.name(), "power");
    }

    #[test]
    fn power_metric_default_is_free_space_path_loss() {
        let m = PowerMetric::default();
        assert_eq!(m.c, 1.0);
        assert_eq!(m.gamma, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn power_metric_rejects_nonpositive_constant() {
        let _ = PowerMetric::new(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn power_metric_rejects_small_gamma() {
        let _ = PowerMetric::new(1.0, 0.5);
    }

    proptest! {
        #[test]
        fn metrics_are_symmetric_and_zero_on_diagonal(
            a in proptest::collection::vec(-10.0f64..10.0, 2),
            b in proptest::collection::vec(-10.0f64..10.0, 2),
            gamma in 1.0f64..4.0,
        ) {
            let (a, b) = (Point::new(a), Point::new(b));
            let metrics: Vec<Box<dyn Metric>> = vec![
                Box::new(Euclidean),
                Box::new(PowerMetric::new(1.0, gamma)),
            ];
            for m in &metrics {
                prop_assert!((m.distance(&a, &b) - m.distance(&b, &a)).abs() < 1e-12);
                prop_assert!(m.distance(&a, &a).abs() < 1e-12);
                prop_assert!(m.distance(&a, &b) >= 0.0);
            }
        }

        #[test]
        fn power_metric_monotone_in_distance(
            d1 in 0.0f64..10.0,
            d2 in 0.0f64..10.0,
            gamma in 1.0f64..4.0,
        ) {
            let m = PowerMetric::new(1.0, gamma);
            let o = Point::new2(0.0, 0.0);
            let p1 = Point::new2(d1, 0.0);
            let p2 = Point::new2(d2, 0.0);
            if d1 <= d2 {
                prop_assert!(m.distance(&o, &p1) <= m.distance(&o, &p2) + 1e-12);
            }
        }
    }
}
