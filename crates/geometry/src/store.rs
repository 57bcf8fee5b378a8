//! Structure-of-arrays point storage and index-based point access.
//!
//! At `n = 10^6` an `Vec<Point>` pays one heap allocation and ~56 bytes of
//! overhead per point, and every distance computation chases two pointers.
//! [`PointStore`] keeps one flat `Vec<f64>` *per axis* instead, so the
//! coordinate data of a million 2-d points is two contiguous 8 MB arrays
//! and a sweep over them is a linear scan.
//!
//! [`PointAccess`] abstracts over both layouts: everything downstream of
//! the UBG builder (grid sweeps, the covered-edge test, the verification
//! helpers) is generic over it, so hand-written `&[Point]` test fixtures
//! and the SoA store run through the same code path. The provided distance
//! and angle arithmetic accumulates per axis left-to-right, exactly like
//! [`Point::distance_squared`] and [`crate::angle_between`] — results are
//! **bitwise identical** across layouts, which the construction-determinism
//! suite relies on.

use crate::point::{DimensionMismatch, Point};
use serde::Serialize;
use std::fmt;

/// Why a point set cannot become a [`PointStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSetError {
    /// The points do not share one dimension: `left` is the first point's,
    /// `right` the first disagreeing point's.
    Dimension(DimensionMismatch),
    /// Point `index` has a NaN or infinite coordinate on `axis`.
    NonFinite {
        /// Index of the offending point.
        index: usize,
        /// Axis of its first non-finite coordinate.
        axis: usize,
    },
}

impl fmt::Display for PointSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dimension(mismatch) => mismatch.fmt(f),
            Self::NonFinite { index, axis } => {
                write!(
                    f,
                    "point {index} has a non-finite coordinate on axis {axis}"
                )
            }
        }
    }
}

impl std::error::Error for PointSetError {}

impl From<DimensionMismatch> for PointSetError {
    fn from(mismatch: DimensionMismatch) -> Self {
        Self::Dimension(mismatch)
    }
}

/// The first non-finite coordinate of `coords`, by axis.
fn non_finite_axis(coords: &[f64]) -> Option<usize> {
    coords.iter().position(|c| !c.is_finite())
}

/// Read access to an indexed set of points that all share one dimension.
///
/// Implementors guarantee `coord(i, axis)` is valid for `i < len()` and
/// `axis < dim()`. The provided methods reproduce the corresponding
/// [`Point`] arithmetic bit for bit (same per-axis accumulation order).
pub trait PointAccess {
    /// Number of points.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shared dimension of the points (0 only for an empty set).
    fn dim(&self) -> usize;

    /// Coordinate `axis` of point `index`.
    fn coord(&self, index: usize, axis: usize) -> f64;

    /// Dimension of the individual point `index`. Uniform-storage
    /// implementations return [`PointAccess::dim`]; the `[Point]`
    /// implementations override this so validation code can detect
    /// mixed-dimension inputs.
    fn dim_of(&self, index: usize) -> usize {
        let _ = index;
        self.dim()
    }

    /// Squared Euclidean distance between points `i` and `j` — bitwise
    /// identical to [`Point::distance_squared`] on the same coordinates.
    fn distance_squared(&self, i: usize, j: usize) -> f64 {
        let mut sum = 0.0;
        for axis in 0..self.dim() {
            let d = self.coord(i, axis) - self.coord(j, axis);
            sum += d * d;
        }
        sum
    }

    /// Euclidean distance between points `i` and `j`.
    fn distance(&self, i: usize, j: usize) -> f64 {
        self.distance_squared(i, j).sqrt()
    }

    /// Materialises point `index` as an owned [`Point`].
    fn point(&self, index: usize) -> Point {
        Point::new(
            (0..self.dim())
                .map(|axis| self.coord(index, axis))
                .collect(),
        )
    }

    /// Copies the coordinates of point `index` into `out` (cleared first).
    /// Lets per-worker buffers avoid a `Point` allocation per query.
    fn write_coords(&self, index: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.dim()).map(|axis| self.coord(index, axis)));
    }
}

impl PointAccess for [Point] {
    fn len(&self) -> usize {
        <[Point]>::len(self)
    }

    fn dim(&self) -> usize {
        self.first().map_or(0, Point::dim)
    }

    fn coord(&self, index: usize, axis: usize) -> f64 {
        self[index].coord(axis)
    }

    fn dim_of(&self, index: usize) -> usize {
        self[index].dim()
    }

    fn point(&self, index: usize) -> Point {
        self[index].clone()
    }
}

impl PointAccess for Vec<Point> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn dim(&self) -> usize {
        PointAccess::dim(self.as_slice())
    }

    fn coord(&self, index: usize, axis: usize) -> f64 {
        self[index].coord(axis)
    }

    fn dim_of(&self, index: usize) -> usize {
        self[index].dim()
    }

    fn point(&self, index: usize) -> Point {
        self[index].clone()
    }
}

impl<const N: usize> PointAccess for [Point; N] {
    fn len(&self) -> usize {
        N
    }

    fn dim(&self) -> usize {
        PointAccess::dim(self.as_slice())
    }

    fn coord(&self, index: usize, axis: usize) -> f64 {
        self[index].coord(axis)
    }

    fn dim_of(&self, index: usize) -> usize {
        self[index].dim()
    }

    fn point(&self, index: usize) -> Point {
        self[index].clone()
    }
}

/// Structure-of-arrays storage for `n` points in `R^d`: one flat `Vec<f64>`
/// per axis.
///
/// ```
/// use tc_geometry::{Point, PointAccess, PointStore};
///
/// let store = PointStore::from_points(&[
///     Point::new2(0.0, 0.0),
///     Point::new2(3.0, 4.0),
/// ]).unwrap();
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.dim(), 2);
/// assert!((store.distance(0, 1) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct PointStore {
    len: usize,
    dim: usize,
    axes: Vec<Vec<f64>>,
}

impl PointStore {
    /// Creates an empty store for points of the given dimension.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            len: 0,
            dim,
            axes: vec![Vec::new(); dim],
        }
    }

    /// Creates an empty store with per-axis capacity for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        Self {
            len: 0,
            dim,
            axes: vec![Vec::with_capacity(n); dim],
        }
    }

    /// Appends a point given by its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len()` differs from the store's dimension, or if a
    /// coordinate is NaN or infinite: every stored point is finite, so
    /// distances between stored points are never NaN. Use
    /// [`PointStore::from_points`] to get an error instead.
    pub fn push(&mut self, coords: &[f64]) {
        assert_eq!(
            coords.len(),
            self.dim,
            "point dimension must match the store's dimension"
        );
        if let Some(axis) = non_finite_axis(coords) {
            // Documented API contract (see `# Panics` above); callers that
            // want an error use `from_points`. tc-lint: allow(panic-hygiene)
            panic!(
                "point {} has a non-finite coordinate on axis {axis}",
                self.len
            );
        }
        for (axis, &c) in coords.iter().enumerate() {
            self.axes[axis].push(c);
        }
        self.len += 1;
    }

    /// Builds a store from a slice of [`Point`]s, validating that they all
    /// share one dimension and that every coordinate is finite. An empty
    /// slice yields an empty store of dimension 0.
    ///
    /// # Errors
    ///
    /// Checks the points in order and reports the first offending one:
    /// [`PointSetError::Dimension`] naming the expected dimension (`left`,
    /// taken from the first point) and the offending dimension (`right`)
    /// when the points disagree, or [`PointSetError::NonFinite`] naming the
    /// point and axis of a NaN or infinite coordinate.
    pub fn from_points(points: &[Point]) -> Result<Self, PointSetError> {
        let dim = points.first().map_or(0, Point::dim);
        for (index, p) in points.iter().enumerate() {
            if p.dim() != dim {
                return Err(PointSetError::Dimension(DimensionMismatch {
                    left: dim,
                    right: p.dim(),
                }));
            }
            if let Some(axis) = non_finite_axis(p.coords()) {
                return Err(PointSetError::NonFinite { index, axis });
            }
        }
        let mut store = Self::with_capacity(dim, points.len());
        for p in points {
            store.push(p.coords());
        }
        Ok(store)
    }

    /// One axis as a flat slice (`axis < dim`), for bulk scans.
    pub fn axis(&self, axis: usize) -> &[f64] {
        &self.axes[axis]
    }
}

impl PointAccess for PointStore {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn coord(&self, index: usize, axis: usize) -> f64 {
        self.axes[axis][index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new2(0.25, -1.5),
            Point::new2(3.0, 4.0),
            Point::new2(-0.1, 0.7),
            Point::new2(1e-3, 1e3),
        ]
    }

    #[test]
    fn store_round_trips_points() {
        let points = sample_points();
        let store = PointStore::from_points(&points).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.dim(), 2);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(&PointAccess::point(&store, i), p);
        }
    }

    #[test]
    fn distances_are_bitwise_identical_to_point_arithmetic() {
        let points = sample_points();
        let store = PointStore::from_points(&points).unwrap();
        for i in 0..points.len() {
            for j in 0..points.len() {
                let aos = points[i].distance(&points[j]);
                let soa = store.distance(i, j);
                assert_eq!(aos.to_bits(), soa.to_bits(), "pair ({i}, {j})");
                let slice_dist = PointAccess::distance(points.as_slice(), i, j);
                assert_eq!(aos.to_bits(), slice_dist.to_bits());
            }
        }
    }

    #[test]
    fn mixed_dimensions_are_reported() {
        let err = PointStore::from_points(&[Point::new2(0.0, 0.0), Point::new3(0.0, 0.0, 0.0)])
            .unwrap_err();
        assert_eq!(
            err,
            PointSetError::Dimension(DimensionMismatch { left: 2, right: 3 })
        );
    }

    #[test]
    fn non_finite_coordinates_are_reported_with_index_and_axis() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut points = sample_points();
            points.push(Point::new2(0.5, bad));
            let err = PointStore::from_points(&points).unwrap_err();
            assert_eq!(err, PointSetError::NonFinite { index: 4, axis: 1 });
            points.insert(1, Point::new2(bad, bad));
            let err = PointStore::from_points(&points).unwrap_err();
            assert_eq!(err, PointSetError::NonFinite { index: 1, axis: 0 });
            assert_eq!(
                err.to_string(),
                "point 1 has a non-finite coordinate on axis 0"
            );
        }
    }

    #[test]
    #[should_panic(expected = "point 1 has a non-finite coordinate on axis 2")]
    fn push_rejects_non_finite_coordinates() {
        let mut store = PointStore::with_dim(3);
        store.push(&[1.0, 2.0, 3.0]);
        store.push(&[1.0, 2.0, f64::NAN]);
    }

    #[test]
    fn empty_store_has_dimension_zero() {
        let store = PointStore::from_points(&[]).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert_eq!(store.dim(), 0);
    }

    #[test]
    fn push_grows_the_store() {
        let mut store = PointStore::with_dim(3);
        store.push(&[1.0, 2.0, 3.0]);
        store.push(&[4.0, 5.0, 6.0]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.coord(1, 2), 6.0);
        assert_eq!(store.axis(0), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn push_rejects_wrong_dimension() {
        let mut store = PointStore::with_dim(2);
        store.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn write_coords_reuses_the_buffer() {
        let store = PointStore::from_points(&sample_points()).unwrap();
        let mut buf = vec![99.0; 7];
        store.write_coords(2, &mut buf);
        assert_eq!(buf, vec![-0.1, 0.7]);
    }

    #[test]
    fn slice_impl_reports_per_point_dimensions() {
        let points = vec![Point::new2(0.0, 0.0), Point::new3(1.0, 1.0, 1.0)];
        assert_eq!(points.as_slice().dim_of(0), 2);
        assert_eq!(points.as_slice().dim_of(1), 3);
        let store = PointStore::from_points(&[Point::new2(0.0, 0.0)]).unwrap();
        assert_eq!(store.dim_of(0), 2);
    }
}
