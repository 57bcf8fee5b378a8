//! Yao-style cone partitions of the plane.
//!
//! Theorem 11 of the paper bounds the spanner degree by partitioning the
//! unit ball around a vertex into cones of angular diameter at most `θ`
//! (citing Yao's construction) and arguing that each cone contributes a
//! constant number of spanner neighbours. The same cone machinery is what
//! the Yao-graph and Θ-graph baselines are built on, so it lives here.
//!
//! Only the planar (`d = 2`) partition is provided explicitly; the
//! higher-dimensional degree argument in the paper needs only the *count*
//! of cones (Yao's bound), never an explicit partition, and the baselines
//! that consume this type are planar constructions.

use crate::Point;
use serde::Serialize;
use std::f64::consts::TAU;

/// A partition of the plane around an apex into `k` equal-angle cones.
///
/// Cone `i` covers directions with polar angle in
/// `[2πi/k, 2π(i+1)/k)` measured counter-clockwise from the positive
/// x-axis.
///
/// ```
/// use tc_geometry::{ConePartition2d, Point};
/// let cones = ConePartition2d::new(8);
/// let apex = Point::new2(0.0, 0.0);
/// assert_eq!(cones.cone_of(&apex, &Point::new2(1.0, 0.1)), 0);
/// assert_eq!(cones.cone_of(&apex, &Point::new2(-1.0, -0.1)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ConePartition2d {
    cones: usize,
}

impl ConePartition2d {
    /// Creates a partition into `cones` equal sectors.
    ///
    /// # Panics
    ///
    /// Panics if `cones == 0`.
    pub fn new(cones: usize) -> Self {
        assert!(cones > 0, "a cone partition needs at least one cone");
        Self { cones }
    }

    /// Angular width of each cone in radians.
    pub fn angle(&self) -> f64 {
        TAU / self.cones as f64
    }

    /// Index of the cone (with the given apex) containing `target`.
    ///
    /// Points coincident with the apex are assigned to cone 0.
    ///
    /// # Panics
    ///
    /// Panics if either point is not 2-dimensional.
    pub fn cone_of(&self, apex: &Point, target: &Point) -> usize {
        assert_eq!(apex.dim(), 2, "cone partitions are planar");
        assert_eq!(target.dim(), 2, "cone partitions are planar");
        let dx = target.coord(0) - apex.coord(0);
        let dy = target.coord(1) - apex.coord(1);
        if dx == 0.0 && dy == 0.0 {
            return 0;
        }
        let mut angle = dy.atan2(dx);
        if angle < 0.0 {
            angle += TAU;
        }
        let idx = (angle / self.angle()).floor() as usize;
        idx.min(self.cones - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn four_cones_cover_the_axes() {
        let cones = ConePartition2d::new(4);
        let o = Point::new2(0.0, 0.0);
        assert_eq!(cones.cone_of(&o, &Point::new2(1.0, 0.5)), 0);
        assert_eq!(cones.cone_of(&o, &Point::new2(-0.5, 1.0)), 1);
        assert_eq!(cones.cone_of(&o, &Point::new2(-1.0, -0.5)), 2);
        assert_eq!(cones.cone_of(&o, &Point::new2(0.5, -1.0)), 3);
    }

    #[test]
    fn apex_coincidence_maps_to_cone_zero() {
        let cones = ConePartition2d::new(6);
        let o = Point::new2(1.0, 1.0);
        assert_eq!(cones.cone_of(&o, &o), 0);
    }

    #[test]
    #[should_panic(expected = "at least one cone")]
    fn zero_cones_rejected() {
        let _ = ConePartition2d::new(0);
    }

    proptest! {
        #[test]
        fn every_direction_falls_in_exactly_one_cone(
            k in 1usize..32,
            x in -10.0f64..10.0,
            y in -10.0f64..10.0,
        ) {
            prop_assume!(x != 0.0 || y != 0.0);
            let cones = ConePartition2d::new(k);
            let o = Point::new2(0.0, 0.0);
            let idx = cones.cone_of(&o, &Point::new2(x, y));
            prop_assert!(idx < k);
        }

        #[test]
        fn points_in_same_cone_subtend_at_most_cone_angle(
            k in 3usize..24,
            a1 in 0.0f64..std::f64::consts::TAU,
            a2 in 0.0f64..std::f64::consts::TAU,
        ) {
            let cones = ConePartition2d::new(k);
            let o = Point::new2(0.0, 0.0);
            let p1 = Point::new2(a1.cos(), a1.sin());
            let p2 = Point::new2(a2.cos(), a2.sin());
            if cones.cone_of(&o, &p1) == cones.cone_of(&o, &p2) {
                let angle = crate::angle_at(&o, &p1, &p2);
                prop_assert!(angle <= cones.angle() + 1e-9);
            }
        }
    }
}
