//! Axis-parallel grid spatial index.
//!
//! Constructing an α-UBG on `n` points requires finding all pairs at
//! distance at most 1. A grid with cell side equal to the query radius
//! turns that into a near-linear scan of neighbouring cells.
//!
//! The index is *cell-sorted*, with no hash table: the node IDs ordered by
//! lexicographic cell key (ties by ID), the sorted unique cell keys with
//! member offsets, and a cell-contiguous copy of every coordinate. Cells
//! whose keys differ only on the last axis are adjacent in that order, so
//! each *row* of a cell's neighbourhood — the `2r + 1` cells along the last
//! axis with one fixed prefix, `r = ⌈radius / cell side⌉` — is one
//! contiguous range of members, found by binary search. A query at
//! `radius = cell side` reads `3^(d−1)` such ranges in memory order.
//!
//! All queries are generic over [`PointAccess`], so the same sweeps serve
//! `&[Point]` fixtures and the SoA [`crate::PointStore`] the million-node
//! construction path uses. Distances are accumulated per axis exactly as
//! [`PointAccess::distance`] does, so they are bitwise identical to it.
//! The `*_with` variants and [`GridIndex::for_each_pair_within`] take a
//! [`GridScratch`] and perform no per-query allocation.

use crate::store::PointAccess;
use std::cmp::Ordering;
use std::ops::Range;

/// Reusable buffers for allocation-free [`GridIndex`] queries.
///
/// Create one per worker and pass it to
/// [`GridIndex::neighbors_within_with`] or
/// [`GridIndex::for_each_pair_within`]; the buffers grow to the largest
/// query seen and are reused across calls.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    center: Vec<f64>,
    base: Vec<i64>,
    offsets: Vec<i64>,
    prefix: Vec<i64>,
    rows: Vec<Range<usize>>,
    out: Vec<usize>,
}

impl GridScratch {
    /// Creates an empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A uniform, cell-sorted grid over a set of points in `R^d`.
///
/// ```
/// use tc_geometry::{GridIndex, GridScratch, Point};
/// let pts = vec![
///     Point::new2(0.0, 0.0),
///     Point::new2(0.5, 0.0),
///     Point::new2(3.0, 3.0),
/// ];
/// let grid = GridIndex::build(&pts, 1.0);
/// let mut scratch = GridScratch::new();
/// let near_origin = grid.neighbors_within_with(&pts, 0, 1.0, &mut scratch);
/// assert_eq!(near_origin, [1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    dim: usize,
    /// Node IDs sorted by cell key, ties by ID. Positions in this order
    /// index `coords`.
    order: Vec<usize>,
    /// The sorted unique cell keys, `dim` integers per occupied cell.
    keys: Vec<i64>,
    /// Cell `c` holds the positions `starts[c]..starts[c + 1]`.
    starts: Vec<usize>,
    /// The coordinates of `order[i]` at `coords[i * dim..(i + 1) * dim]`.
    coords: Vec<f64>,
}

/// The grid cell of coordinate `c` along one axis. Saturates for
/// coordinates off the `i64` range; a NaN coordinate maps to cell 0 (its
/// distances are NaN, so it never passes a radius filter).
fn cell_index(c: f64, cell_size: f64) -> i64 {
    (c / cell_size).floor() as i64
}

/// Euclidean distance, accumulated per axis left to right exactly as
/// [`PointAccess::distance`] does.
fn distance(a: &[f64], b: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum.sqrt()
}

impl GridIndex {
    /// Builds an index over `points` with the given cell side length.
    ///
    /// An empty point set yields an empty index (dimension 0, no occupied
    /// cells) whose queries all return no hits — degenerate workloads
    /// (n = 0 after churn or filtering) must not abort.
    ///
    /// ```
    /// use tc_geometry::{GridIndex, Point};
    /// let empty: [Point; 0] = [];
    /// let grid = GridIndex::build(&empty, 1.0);
    /// assert_eq!(grid.occupied_cells(), 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0` or if the points do not all share one
    /// dimension.
    pub fn build<P: PointAccess + ?Sized>(points: &P, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "grid cell size must be positive");
        let n = points.len();
        let dim = points.dim();
        let mut point_keys: Vec<i64> = Vec::with_capacity(n * dim);
        for i in 0..n {
            assert_eq!(points.dim_of(i), dim, "all points must share a dimension");
            point_keys.extend((0..dim).map(|axis| cell_index(points.coord(i, axis), cell_size)));
        }
        let key_of = |i: usize| &point_keys[i * dim..(i + 1) * dim];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)).then(a.cmp(&b)));
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut coords = Vec::with_capacity(n * dim);
        for (pos, &i) in order.iter().enumerate() {
            if pos == 0 || key_of(order[pos - 1]) != key_of(i) {
                keys.extend_from_slice(key_of(i));
                starts.push(pos);
            }
            coords.extend((0..dim).map(|axis| points.coord(i, axis)));
        }
        starts.push(n);
        Self {
            cell_size,
            dim,
            order,
            keys,
            starts,
            coords,
        }
    }

    /// Number of non-empty cells. The cells are numbered
    /// `0..occupied_cells()` in lexicographic key order, the numbering
    /// [`Self::for_each_pair_within`] takes its cell range in.
    pub fn occupied_cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// The key of occupied cell `c`.
    fn key(&self, c: usize) -> &[i64] {
        &self.keys[c * self.dim..(c + 1) * self.dim]
    }

    /// The coordinates of the point at sorted position `pos`.
    fn coords_at(&self, pos: usize) -> &[f64] {
        &self.coords[pos * self.dim..(pos + 1) * self.dim]
    }

    /// How many cells a query of `radius` reaches out on each axis.
    fn reach(&self, radius: f64) -> i64 {
        ((radius / self.cell_size).ceil() as i64).max(0)
    }

    /// Indices of all points within Euclidean distance `radius` of point
    /// `index` (excluding the point itself), in ascending index order.
    ///
    /// `points` must be the same set the index was built from. Fills (and
    /// returns a view of) the scratch's output buffer instead of
    /// allocating.
    pub fn neighbors_within_with<'s, P: PointAccess + ?Sized>(
        &self,
        points: &P,
        index: usize,
        radius: f64,
        scratch: &'s mut GridScratch,
    ) -> &'s [usize] {
        debug_assert_eq!(points.len(), self.order.len(), "not the indexed set");
        scratch.center.clear();
        scratch
            .center
            .extend((0..self.dim).map(|axis| points.coord(index, axis)));
        self.collect_ball(index, radius, scratch);
        &scratch.out
    }

    /// Fills `scratch.out` with the indices of the points within `radius`
    /// of `scratch.center` (except `exclude`), in ascending order.
    fn collect_ball(&self, exclude: usize, radius: f64, scratch: &mut GridScratch) {
        let GridScratch {
            center,
            base,
            offsets,
            prefix,
            out,
            ..
        } = scratch;
        base.clear();
        base.extend(center.iter().map(|&c| cell_index(c, self.cell_size)));
        out.clear();
        self.for_each_row(base, self.reach(radius), 0, offsets, prefix, |row| {
            for pos in row {
                let j = self.order[pos];
                if j != exclude && distance(self.coords_at(pos), center) <= radius {
                    out.push(j);
                }
            }
        });
        out.sort_unstable();
    }

    /// Reports every unordered pair of indexed points within distance
    /// `radius` of each other whose *first* member in the index's sorted
    /// order lies in one of `cells` (numbered as in
    /// [`Self::occupied_cells`]). Each pair is reported exactly once, as
    /// `visit(u, v, dist)` with `u < v`; `dist` is bitwise equal to
    /// [`PointAccess::distance`] on the indexed points, and a pair is
    /// reported iff `dist <= radius`, so a NaN coordinate pairs with
    /// nothing. Sweeping disjoint cell ranges that cover
    /// `0..occupied_cells()` reports every pair once in total.
    ///
    /// ```
    /// use tc_geometry::{GridIndex, GridScratch, Point};
    /// let pts = vec![
    ///     Point::new2(0.0, 0.0),
    ///     Point::new2(0.5, 0.0),
    ///     Point::new2(3.0, 3.0),
    ///     Point::new2(0.9, 0.5),
    /// ];
    /// let grid = GridIndex::build(&pts, 1.0);
    /// let mut pairs = Vec::new();
    /// grid.for_each_pair_within(0..grid.occupied_cells(), 1.0, &mut GridScratch::new(), |u, v, _| {
    ///     pairs.push((u, v))
    /// });
    /// pairs.sort_unstable();
    /// assert_eq!(pairs, vec![(0, 1), (1, 3)]);
    /// ```
    pub fn for_each_pair_within(
        &self,
        cells: Range<usize>,
        radius: f64,
        scratch: &mut GridScratch,
        mut visit: impl FnMut(usize, usize, f64),
    ) {
        let GridScratch {
            offsets,
            prefix,
            rows,
            ..
        } = scratch;
        let reach = self.reach(radius);
        for cell in cells {
            // Only cells at or after `cell` in the sorted order: the pair
            // with an earlier cell was reported when that cell was swept.
            rows.clear();
            self.for_each_row(self.key(cell), reach, cell, offsets, prefix, |r| {
                rows.push(r)
            });
            for i in self.starts[cell]..self.starts[cell + 1] {
                let a = self.order[i];
                let at = self.coords_at(i);
                for row in rows.iter() {
                    // Within `cell` itself, only the positions after `i`.
                    for j in row.start.max(i + 1)..row.end {
                        let dist = distance(self.coords_at(j), at);
                        if dist <= radius {
                            let b = self.order[j];
                            visit(a.min(b), a.max(b), dist);
                        }
                    }
                }
            }
        }
    }

    /// Calls `row` with the member positions of every neighbour row of the
    /// cell `base`: the occupied cells numbered at least `first_cell` whose
    /// key lies within `reach` of `base` on every axis. Rows are visited
    /// in ascending cell order and are disjoint. `offsets` and `prefix`
    /// are caller-provided buffers so the enumeration allocates nothing.
    fn for_each_row(
        &self,
        base: &[i64],
        reach: i64,
        first_cell: usize,
        offsets: &mut Vec<i64>,
        prefix: &mut Vec<i64>,
        mut row: impl FnMut(Range<usize>),
    ) {
        let cells = self.occupied_cells();
        let Some(last) = self.dim.checked_sub(1) else {
            // Zero-dimensional points all share the one (empty) key.
            if first_cell < cells {
                row(self.starts[first_cell]..self.starts[cells]);
            }
            return;
        };
        let low = base[last].saturating_sub(reach);
        let high = base[last].saturating_add(reach);
        offsets.clear();
        offsets.resize(last, -reach);
        let mut from = first_cell;
        loop {
            prefix.clear();
            // A prefix off the i64 range holds no cell.
            let in_range = base[..last]
                .iter()
                .zip(offsets.iter())
                .all(|(&b, &o)| b.checked_add(o).map(|k| prefix.push(k)).is_some());
            if in_range {
                let versus = |key: &[i64], end: i64| {
                    key[..last].cmp(prefix.as_slice()).then(key[last].cmp(&end))
                };
                let lo = self.seek(from, |key| versus(key, low) == Ordering::Less);
                let hi = self.seek(lo, |key| versus(key, high) != Ordering::Greater);
                if lo < hi {
                    row(self.starts[lo]..self.starts[hi]);
                }
                from = hi;
            }
            // Advance the mixed-radix counter over the prefix offsets, last
            // prefix axis fastest, so the prefixes (and rows) ascend.
            let mut axis = last;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                offsets[axis] += 1;
                if offsets[axis] <= reach {
                    break;
                }
                offsets[axis] = -reach;
            }
        }
    }

    /// The first occupied cell at or after `from` whose key is not
    /// `before` (the keys that are `before` must form a prefix of the
    /// sorted order). Gallops from `from`, so a nearby answer costs
    /// O(log distance) key comparisons.
    fn seek(&self, from: usize, before: impl Fn(&[i64]) -> bool) -> usize {
        let cells = self.occupied_cells();
        let mut lo = from;
        let mut hi = from;
        let mut step = 1;
        while hi < cells && before(self.key(hi)) {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let mut hi = hi.min(cells);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point, PointStore};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    impl GridIndex {
        /// [`GridIndex::neighbors_within_with`] into a fresh vector: the
        /// allocating form the tests compare against their oracles.
        fn neighbors_within<P: PointAccess + ?Sized>(
            &self,
            points: &P,
            index: usize,
            radius: f64,
        ) -> Vec<usize> {
            self.neighbors_within_with(points, index, radius, &mut GridScratch::new())
                .to_vec()
        }
    }

    fn brute_force_neighbors(points: &[Point], index: usize, radius: f64) -> Vec<usize> {
        let mut out: Vec<usize> = (0..points.len())
            .filter(|&j| j != index && points[j].distance(&points[index]) <= radius)
            .collect();
        out.sort_unstable();
        out
    }

    fn uniform_points(seed: u64, n: usize, side: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new2(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    }

    /// Gaussian-ish blobs around a few anchors: many points share a cell,
    /// many cells are empty.
    fn clustered_points(seed: u64, n: usize, side: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let anchors: Vec<(f64, f64)> = (0..4)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        (0..n)
            .map(|i| {
                let (ax, ay) = anchors[i % anchors.len()];
                Point::new2(ax + rng.gen_range(-0.3..0.3), ay + rng.gen_range(-0.3..0.3))
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let points = uniform_points(7, 200, 5.0);
        let grid = GridIndex::build(&points, 1.0);
        for i in (0..points.len()).step_by(17) {
            assert_eq!(
                grid.neighbors_within(&points, i, 1.0),
                brute_force_neighbors(&points, i, 1.0),
                "mismatch at point {i}"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_clustered_points() {
        // Clustered inputs exercise heavily occupied cells next to wholly
        // empty ones — both sides of the candidate enumeration.
        let points = clustered_points(23, 150, 6.0);
        let grid = GridIndex::build(&points, 0.5);
        for i in 0..points.len() {
            assert_eq!(
                grid.neighbors_within(&points, i, 0.5),
                brute_force_neighbors(&points, i, 0.5),
                "mismatch at point {i}"
            );
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let points = uniform_points(31, 120, 4.0);
        let store = PointStore::from_points(&points).unwrap();
        let grid = GridIndex::build(&store, 1.0);
        let mut scratch = GridScratch::new();
        for i in 0..points.len() {
            let allocating = grid.neighbors_within(&store, i, 1.0);
            let reused = grid.neighbors_within_with(&store, i, 1.0, &mut scratch);
            assert_eq!(allocating, reused, "mismatch at point {i}");
            assert_eq!(allocating, brute_force_neighbors(&points, i, 1.0));
        }
    }

    #[test]
    fn soa_store_queries_match_slice_queries() {
        let points = clustered_points(5, 90, 5.0);
        let store = PointStore::from_points(&points).unwrap();
        let from_slice = GridIndex::build(&points, 0.75);
        let from_store = GridIndex::build(&store, 0.75);
        for i in 0..points.len() {
            assert_eq!(
                from_slice.neighbors_within(&points, i, 0.75),
                from_store.neighbors_within(&store, i, 0.75),
            );
        }
    }

    #[test]
    fn boundary_cells_are_included() {
        // Points exactly on cell boundaries and a query radius equal to
        // the cell size: the candidate enumeration must reach one cell
        // beyond the boundary in every direction.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(1.0, 0.0),  // on the cell boundary, distance exactly 1
            Point::new2(-1.0, 0.0), // negative-coordinate cell
            Point::new2(0.0, 1.0),
            Point::new2(1.0, 1.0), // distance sqrt(2) > 1: excluded
        ];
        let grid = GridIndex::build(&points, 1.0);
        assert_eq!(grid.neighbors_within(&points, 0, 1.0), vec![1, 2, 3]);
    }

    #[test]
    fn empty_cells_between_occupied_ones_are_skipped() {
        // Two far-apart points: every cell between them is empty and the
        // query must cross the gap without false positives.
        let points = vec![Point::new2(0.0, 0.0), Point::new2(10.0, 0.0)];
        let grid = GridIndex::build(&points, 1.0);
        assert!(grid.neighbors_within(&points, 0, 5.0).is_empty());
        assert_eq!(grid.neighbors_within(&points, 0, 10.0), vec![1]);
    }

    #[test]
    fn works_in_three_dimensions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let points: Vec<Point> = (0..100)
            .map(|_| {
                Point::new3(
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                    rng.gen_range(0.0..3.0),
                )
            })
            .collect();
        let grid = GridIndex::build(&points, 0.75);
        for i in (0..points.len()).step_by(13) {
            assert_eq!(
                grid.neighbors_within(&points, i, 0.75),
                brute_force_neighbors(&points, i, 0.75)
            );
        }
    }

    #[test]
    fn occupied_cells_reported() {
        let points = vec![
            Point::new2(0.1, 0.1),
            Point::new2(0.2, 0.2),
            Point::new2(3.0, 3.0),
        ];
        let grid = GridIndex::build(&points, 1.0);
        assert_eq!(grid.occupied_cells(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_rejected() {
        let _ = GridIndex::build(&[Point::new2(0.0, 0.0)], 0.0);
    }

    #[test]
    fn empty_point_set_builds_an_empty_index() {
        // Regression: this used to panic, aborting degenerate workloads
        // (n = 0 after churn/filters). It must build an inert index.
        let empty: [Point; 0] = [];
        let grid = GridIndex::build(&empty, 1.0);
        assert_eq!(grid.occupied_cells(), 0);
    }

    /// Every pair within `radius`, by the O(n²) definition: `(u < v,
    /// distance bits)` in ascending order.
    fn brute_force_pairs<P: PointAccess + ?Sized>(
        points: &P,
        radius: f64,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for u in 0..points.len() {
            for v in u + 1..points.len() {
                let dist = points.distance(u, v);
                if dist <= radius {
                    out.push((u, v, dist.to_bits()));
                }
            }
        }
        out
    }

    /// The pair sweep over `0..occupied_cells()` cut into `chunks` ranges,
    /// sorted; asserts each pair is reported once, with `u < v`.
    fn swept_pairs(grid: &GridIndex, radius: f64, chunks: usize) -> Vec<(usize, usize, u64)> {
        let cells = grid.occupied_cells();
        let step = cells.div_ceil(chunks).max(1);
        let mut scratch = GridScratch::new();
        let mut out = Vec::new();
        for start in (0..cells).step_by(step) {
            grid.for_each_pair_within(
                start..(start + step).min(cells),
                radius,
                &mut scratch,
                |u, v, d| {
                    assert!(u < v, "pair ({u}, {v}) is not ascending");
                    out.push((u, v, d.to_bits()));
                },
            );
        }
        out.sort_unstable();
        let reported = out.len();
        out.dedup();
        assert_eq!(out.len(), reported, "a pair was reported twice");
        out
    }

    /// Checks the pair sweep (whole and chunked) and every neighbour query
    /// against the O(n²) reference.
    fn assert_sweeps_match_brute_force(points: &[Point], cell_size: f64, radius: f64) {
        let store = PointStore::from_points(points).unwrap();
        let grid = GridIndex::build(&store, cell_size);
        let expected = brute_force_pairs(&store, radius);
        for chunks in [1, 3, 7] {
            assert_eq!(
                swept_pairs(&grid, radius, chunks),
                expected,
                "{chunks} chunk(s)"
            );
        }
        let mut scratch = GridScratch::new();
        for i in 0..points.len() {
            assert_eq!(
                grid.neighbors_within_with(&store, i, radius, &mut scratch),
                brute_force_neighbors(points, i, radius).as_slice(),
                "neighbours of {i}"
            );
        }
    }

    fn random_points(seed: u64, n: usize, dim: usize, lo: f64, hi: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(lo..hi)).collect()))
            .collect()
    }

    #[test]
    fn pair_sweep_matches_brute_force_in_one_two_and_three_dimensions() {
        for dim in 1..=3 {
            // Straddles the origin, so negative cells are swept too.
            let points = random_points(40 + dim as u64, 160, dim, -3.0, 3.0);
            assert_sweeps_match_brute_force(&points, 1.0, 1.0);
            assert_sweeps_match_brute_force(&points, 0.5, 0.7);
            assert_sweeps_match_brute_force(&points, 1.0, 2.5);
        }
    }

    #[test]
    fn pair_sweep_handles_duplicates_and_one_dense_cluster() {
        let mut points = clustered_points(9, 60, 4.0);
        points.extend(points.clone());
        points.extend(vec![Point::new2(-0.25, 0.75); 12]);
        // One cell holding a hundred points.
        points.extend(random_points(10, 100, 2, 2.1, 2.9));
        assert_sweeps_match_brute_force(&points, 1.0, 1.0);
        let store = PointStore::from_points(&points).unwrap();
        let pairs = brute_force_pairs(&store, 1.0);
        assert!(
            pairs.iter().any(|&(_, _, d)| d == 0),
            "zero-length pairs are kept"
        );
    }

    #[test]
    fn pair_sweep_handles_a_sparse_deployment_over_a_huge_box() {
        let mut points = random_points(12, 120, 2, -1.0e12, 1.0e12);
        // A few close pairs among the far-flung points, and points beyond
        // the i64 range of cells on either side.
        for k in 0..5 {
            let base = points[k].clone();
            points.push(Point::new2(base.coord(0) + 0.25, base.coord(1) - 0.5));
        }
        points.push(Point::new2(1.0e300, -1.0e300));
        points.push(Point::new2(1.0e300, -1.0e300));
        points.push(Point::new2(-1.0e300, 1.0e300));
        assert_sweeps_match_brute_force(&points, 1.0, 1.0);
    }

    #[test]
    fn pair_sweep_keeps_pairs_at_exactly_the_radius() {
        // Axis-aligned pairs at distance exactly 0.5 and exactly 1, across
        // cell boundaries and at negative coordinates.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.5, 0.0),
            Point::new2(1.0, 0.0),
            Point::new2(-1.0, 2.0),
            Point::new2(0.0, 2.0),
            Point::new2(-1.0, 1.0),
            Point::new2(-1.5, 1.0),
            Point::new2(3.0, 3.0),
        ];
        let store = PointStore::from_points(&points).unwrap();
        let grid = GridIndex::build(&store, 1.0);
        let pairs: Vec<(usize, usize)> = swept_pairs(&grid, 1.0, 1)
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (5, 6)]);
        let half: Vec<(usize, usize)> = swept_pairs(&grid, 0.5, 1)
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect();
        assert_eq!(half, vec![(0, 1), (1, 2), (5, 6)]);
        assert_sweeps_match_brute_force(&points, 1.0, 1.0);
        assert_sweeps_match_brute_force(&points, 1.0, 0.5);
    }

    #[test]
    fn a_nan_coordinate_pairs_with_nothing() {
        let mut points = random_points(13, 40, 2, 0.0, 2.0);
        points.push(Point::new2(f64::NAN, 0.5));
        points.push(Point::new2(0.5, f64::NAN));
        let nan = points.len() - 2;
        // A `PointStore` refuses NaN coordinates; a `[Point]` slice does
        // not, so the grid still has to cope with them.
        let grid = GridIndex::build(points.as_slice(), 1.0);
        let pairs = swept_pairs(&grid, 1.0, 2);
        assert!(pairs
            .iter()
            .all(|&(u, v, d)| u < nan && v < nan && !f64::from_bits(d).is_nan()));
        assert_eq!(pairs, brute_force_pairs(points.as_slice(), 1.0));
        assert!(grid
            .neighbors_within(points.as_slice(), nan, 1.0)
            .is_empty());
        assert!(grid
            .neighbors_within(points.as_slice(), nan + 1, 5.0)
            .is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn grid_neighbors_equal_brute_force(
            seed in 0u64..1000,
            n in 2usize..60,
            radius in 0.1f64..1.5,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new2(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
                .collect();
            let grid = GridIndex::build(&points, radius);
            let store = PointStore::from_points(&points).unwrap();
            let mut scratch = GridScratch::new();
            for i in 0..n {
                let expected = brute_force_neighbors(&points, i, radius);
                prop_assert_eq!(
                    grid.neighbors_within(&points, i, radius),
                    expected.clone()
                );
                prop_assert_eq!(
                    grid.neighbors_within_with(&store, i, radius, &mut scratch),
                    expected.as_slice()
                );
            }
        }
    }
}
