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
//! * [`Point`] — a point in `R^d` for arbitrary `d ≥ 1`, with distances
//!   and the angle computation used by the Czumaj–Zhao covered-edge test
//!   (Lemma 3 in the paper),
//! * [`ConePartition2d`] — Yao-style cone partitions (used by the degree
//!   argument of Theorem 11 and by the Yao/Θ baselines),
//! * [`GridIndex`] — a cell-sorted axis-parallel grid over points (the
//!   pair sweep the UBG builder uses to find neighbours in near-linear
//!   time),
//! * [`PointStore`] — a validated, flat point set (every point finite and
//!   of one dimension).
//!
//! # Example
//!
//! ```
//! use tc_geometry::Point;
//!
//! let u = Point::new(vec![0.0, 0.0]);
//! let v = Point::new(vec![3.0, 4.0]);
//! assert!((u.distance(&v) - 5.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod angle;
mod cone;
mod grid;
mod point;
mod store;

pub use angle::{angle_at, angle_at_indices, angle_between};
pub use cone::ConePartition2d;
pub use grid::{GridIndex, GridScratch};
pub use point::{DimensionMismatch, Point};
pub use store::{PointAccess, PointSetError, PointStore};
