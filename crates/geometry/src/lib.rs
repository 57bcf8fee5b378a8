//! # tc-geometry
//!
//! Geometry substrate for the topology-control reproduction of
//! *Local Approximation Schemes for Topology Control* (PODC 2006).
//!
//! The paper models a wireless ad-hoc network as a *d-dimensional
//! α-quasi unit ball graph*: nodes are points in `R^d`, every pair at
//! Euclidean distance at most `α` is connected, no pair at distance more
//! than `1` is connected, and pairs in the "grey zone" `(α, 1]` may or may
//! not be connected. Everything the spanner algorithm needs from geometry
//! lives in this crate:
//!
//! * [`Point`] — a point in `R^d` for arbitrary `d ≥ 1`, with distances,
//!   dot products and the angle computation used by the Czumaj–Zhao
//!   covered-edge test (Lemma 3 in the paper),
//! * [`Metric`] — edge-weight metrics: the Euclidean metric and the
//!   *energy* metric `c·|uv|^γ` from the paper's Section 1.6 extension,
//! * [`ConePartition2d`] — Yao-style cone partitions (used by the degree
//!   argument of Theorem 11 and by the Yao/Θ baselines),
//! * [`GridIndex`] — a cell-sorted axis-parallel grid over points (the
//!   grid of cells of side `α/√d` used in the proof of Theorem 11, and
//!   the pair sweep the UBG builder uses to find neighbours in
//!   near-linear time),
//! * [`Aabb`] / [`Ball`] — bounding volumes,
//! * [`doubling`] — empirical doubling-dimension estimation used to test
//!   Lemmas 15 and 20 (the derived graphs are UBGs of constant doubling
//!   dimension).
//!
//! # Example
//!
//! ```
//! use tc_geometry::{Point, Metric, Euclidean};
//!
//! let u = Point::new(vec![0.0, 0.0]);
//! let v = Point::new(vec![3.0, 4.0]);
//! assert!((Euclidean.distance(&u, &v) - 5.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod angle;
mod bbox;
mod cone;
pub mod doubling;
mod grid;
mod metric;
mod point;
mod store;

pub use angle::{angle_at, angle_at_indices, angle_between};
pub use bbox::{Aabb, Ball};
pub use cone::ConePartition2d;
pub use grid::{CellCoord, GridIndex, GridScratch};
pub use metric::{Euclidean, HopMetric, Metric, PowerMetric};
pub use point::{DimensionMismatch, Point};
pub use store::{PointAccess, PointSetError, PointStore};

/// Relative/absolute tolerance used by approximate floating-point
/// comparisons throughout the workspace.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if `a` and `b` are equal up to [`EPSILON`] in absolute or
/// relative terms.
///
/// ```
/// assert!(tc_geometry::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!tc_geometry::approx_eq(1.0, 1.01));
/// ```
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= EPSILON * a.abs().max(b.abs())
}

/// Returns `true` if `a <= b` allowing [`EPSILON`] slack.
///
/// Used when verifying spanner inequalities that hold with equality in the
/// worst case (e.g. the stretch bound `sp(u,v) ≤ t·|uv|`).
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPSILON * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_handles_exact_and_near_values() {
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-12)));
        assert!(!approx_eq(1.0, 1.1));
    }

    #[test]
    fn approx_le_allows_tiny_overshoot() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(!approx_le(1.1, 1.0));
    }
}
