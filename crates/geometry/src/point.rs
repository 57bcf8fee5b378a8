//! Points in `R^d` for arbitrary dimension `d ≥ 1`.

use serde::Serialize;
use std::fmt;

/// Error returned when two points of different dimensions are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimension of the left-hand operand.
    pub left: usize,
    /// Dimension of the right-hand operand.
    pub right: usize,
}

impl fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimension mismatch: left point has dimension {}, right point has dimension {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for DimensionMismatch {}

/// A point in `R^d`.
///
/// The dimension is dynamic so that the same code paths serve the paper's
/// `d ≥ 2` setting without generics leaking into every downstream crate.
/// Coordinates are stored densely; points are cheap to clone for the
/// problem sizes the simulator targets (`n` up to a few thousand).
///
/// # Example
///
/// ```
/// use tc_geometry::Point;
///
/// let p = Point::new(vec![1.0, 2.0, 2.0]);
/// assert_eq!(p.dim(), 3);
/// assert!((p.distance(&Point::origin(3)) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty: zero-dimensional points are never
    /// meaningful for the α-UBG model (`d ≥ 2` in the paper; `d = 1` is
    /// allowed here because it is useful in tests).
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(
            !coords.is_empty(),
            "a point must have at least one coordinate"
        );
        Self { coords }
    }

    /// Creates a 2-dimensional point.
    pub fn new2(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// Creates a 3-dimensional point.
    pub fn new3(x: f64, y: f64, z: f64) -> Self {
        Self::new(vec![x, y, z])
    }

    /// The origin of `R^d`.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim.max(1)])
    }

    /// Dimension `d` of the ambient space.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// All coordinates as a slice.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_squared(&self, other: &Point) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "distance between points of different dimensions"
        );
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean distance `|uv|` to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// The vector `other - self`, as a coordinate vector.
    pub fn vector_to(&self, other: &Point) -> Vec<f64> {
        assert_eq!(
            self.dim(),
            other.dim(),
            "vector between mismatched dimensions"
        );
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| b - a)
            .collect()
    }

    /// Translates the point by the given displacement vector.
    pub fn translated(&self, delta: &[f64]) -> Point {
        assert_eq!(
            self.dim(),
            delta.len(),
            "translation of mismatched dimension"
        );
        Point::new(
            self.coords
                .iter()
                .zip(delta.iter())
                .map(|(a, d)| a + d)
                .collect(),
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new2(x, y)
    }
}

impl From<(f64, f64, f64)> for Point {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Point::new3(x, y, z)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_euclidean() {
        let u = Point::new2(0.0, 0.0);
        let v = Point::new2(3.0, 4.0);
        assert!((u.distance(&v) - 5.0).abs() < 1e-12);
        assert!((u.distance_squared(&v) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_in_three_dimensions() {
        let u = Point::new3(1.0, 2.0, 3.0);
        let v = Point::new3(1.0, 2.0, 3.0);
        assert_eq!(u.distance(&v), 0.0);
        let w = Point::new3(2.0, 4.0, 5.0);
        assert!((u.distance(&w) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different dimensions")]
    fn distance_panics_on_mismatch() {
        let u = Point::new2(0.0, 0.0);
        let v = Point::new3(0.0, 0.0, 0.0);
        let _ = u.distance(&v);
    }

    #[test]
    #[should_panic(expected = "at least one coordinate")]
    fn empty_point_rejected() {
        let _ = Point::new(vec![]);
    }

    #[test]
    fn translate() {
        let u = Point::new2(1.0, 2.0);
        assert_eq!(u.translated(&[1.0, -1.0]), Point::new2(2.0, 1.0));
    }

    #[test]
    fn display_is_compact() {
        let u = Point::new2(1.0, 2.5);
        assert_eq!(format!("{u}"), "(1.0000, 2.5000)");
    }

    #[test]
    fn conversions_from_tuples() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p.dim(), 2);
        let q: Point = (1.0, 2.0, 3.0).into();
        assert_eq!(q.dim(), 3);
        let r: Point = vec![1.0; 5].into();
        assert_eq!(r.dim(), 5);
    }

    proptest! {
        #[test]
        fn triangle_inequality(
            a in proptest::collection::vec(-100.0f64..100.0, 3),
            b in proptest::collection::vec(-100.0f64..100.0, 3),
            c in proptest::collection::vec(-100.0f64..100.0, 3),
        ) {
            let (a, b, c) = (Point::new(a), Point::new(b), Point::new(c));
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }

        #[test]
        fn distance_is_symmetric_and_nonnegative(
            a in proptest::collection::vec(-100.0f64..100.0, 4),
            b in proptest::collection::vec(-100.0f64..100.0, 4),
        ) {
            let (a, b) = (Point::new(a), Point::new(b));
            prop_assert!(a.distance(&b) >= 0.0);
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        }
    }
}
