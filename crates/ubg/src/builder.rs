//! Construction of α-quasi unit ball graphs from point sets.

use crate::{GreyZonePolicy, UnitBallGraph};
use std::ops::Range;
use tc_geometry::{GridIndex, GridScratch, Point, PointAccess, PointSetError, PointStore};
use tc_graph::{par, NodeId, WeightedGraph};

/// Occupied grid cells per parallel work item in
/// [`UbgBuilder::build_store`]. Fixed, independent of the thread count;
/// the adjacency rows are sorted after the merge, so the built graph does
/// not depend on the chunking either.
const SWEEP_CHUNK_CELLS: usize = 1024;

/// Builds a realised α-UBG from node positions.
///
/// Every pair at distance at most `α` is connected (as the model requires);
/// pairs in the grey zone `(α, 1]` are resolved by the configured
/// [`GreyZonePolicy`]; pairs farther than 1 are never connected. Edge
/// weights are Euclidean distances.
///
/// Candidate pairs come from one pair sweep over a cell-sorted
/// [`GridIndex`] with cell side 1, so construction is near-linear for
/// bounded-density deployments. The sweep is fanned over fixed chunks of
/// cells via [`par`] (worker count from `TC_THREADS`) and its edges are
/// written straight into exact-capacity adjacency rows in ascending
/// neighbour order, so the result is bitwise identical for any thread
/// count.
///
/// # Example
///
/// ```
/// use tc_ubg::{UbgBuilder, GreyZonePolicy};
/// use tc_geometry::Point;
///
/// let points = vec![
///     Point::new2(0.0, 0.0),
///     Point::new2(0.3, 0.0),
///     Point::new2(0.9, 0.0),
///     Point::new2(2.5, 0.0),
/// ];
/// let ubg = UbgBuilder::new(0.5)
///     .grey_zone(GreyZonePolicy::Never)
///     .build(points)
///     .unwrap();
/// assert!(ubg.graph().has_edge(0, 1));      // 0.3 <= alpha
/// assert!(!ubg.graph().has_edge(0, 2));     // grey zone, policy = Never
/// assert!(!ubg.graph().has_edge(2, 3));     // farther than 1
/// ```
#[derive(Debug, Clone)]
pub struct UbgBuilder {
    alpha: f64,
    policy: GreyZonePolicy,
}

impl UbgBuilder {
    /// Creates a builder for the given `α ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        Self {
            alpha,
            policy: GreyZonePolicy::Always,
        }
    }

    /// Builder for the classical unit disk/ball graph (`α = 1`, so there is
    /// no grey zone).
    pub fn unit_disk() -> Self {
        Self::new(1.0)
    }

    /// Sets the grey-zone policy (default: [`GreyZonePolicy::Always`]).
    pub fn grey_zone(mut self, policy: GreyZonePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured grey-zone policy.
    pub fn policy(&self) -> GreyZonePolicy {
        self.policy
    }

    /// Builds the realised α-UBG on the given points.
    ///
    /// # Errors
    ///
    /// Returns [`PointSetError::Dimension`] (expected dimension on the
    /// left, offending dimension on the right) if the points do not all
    /// share one dimension, and [`PointSetError::NonFinite`] naming the
    /// point and axis of the first NaN or infinite coordinate: such a point
    /// has no distance to anyone, so it could only be left isolated.
    pub fn build(&self, points: Vec<Point>) -> Result<UnitBallGraph, PointSetError> {
        let store = PointStore::from_points(&points)?;
        Ok(self.build_store(store))
    }

    /// Builds the realised α-UBG on a structure-of-arrays point store.
    ///
    /// This is the million-node entry point. The store is already
    /// dimension-uniform and finite by construction (see
    /// [`PointStore::push`]), so no input check is left to fail. [`GridIndex::for_each_pair_within`]
    /// reports each pair at distance at most 1 once, as `(u < v, dist)`,
    /// over fixed chunks of cells fanned out via [`par`] with one
    /// [`GridScratch`] per worker; the grey-zone policy is asked about
    /// `(u, v)` in that ascending order. The kept edges then fill
    /// exact-capacity adjacency rows sorted by neighbour, the rows an
    /// edge-by-edge insertion in ascending `(u, v)` order would produce, and
    /// the graph takes those rows as they are
    /// ([`WeightedGraph::from_adjacency`]). The output is bitwise identical
    /// for any `TC_THREADS`.
    pub fn build_store(&self, points: PointStore) -> UnitBallGraph {
        let rows = self.adjacency_rows(&points);
        UnitBallGraph::from_store(points, self.alpha, WeightedGraph::from_adjacency(rows))
    }

    /// The realised graph's adjacency rows, each in ascending neighbour
    /// order.
    fn adjacency_rows(&self, points: &PointStore) -> Vec<Vec<(NodeId, f64)>> {
        let n = points.len();
        if n < 2 {
            return vec![Vec::new(); n];
        }
        let grid = GridIndex::build(points, 1.0);
        let cells = grid.occupied_cells();
        let chunks: Vec<Range<usize>> = (0..cells)
            .step_by(SWEEP_CHUNK_CELLS)
            .map(|start| start..(start + SWEEP_CHUNK_CELLS).min(cells))
            .collect();
        let per_chunk = par::par_map_with(
            &chunks,
            0,
            || (GridScratch::new(), Vec::new(), Vec::new()),
            |(scratch, coords_u, coords_v), _idx, cells| {
                let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
                grid.for_each_pair_within(cells.clone(), 1.0, scratch, |u, v, dist| {
                    let connect = dist <= self.alpha || {
                        points.write_coords(u, coords_u);
                        points.write_coords(v, coords_v);
                        self.policy
                            .connects(u, v, dist, self.alpha, coords_u, coords_v)
                    };
                    if connect {
                        edges.push((u, v, dist));
                    }
                });
                edges
            },
        );
        drop(grid);
        let mut degree = vec![0usize; n];
        for &(u, v, _) in per_chunk.iter().flatten() {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut rows: Vec<Vec<(NodeId, f64)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (u, v, dist) in per_chunk.into_iter().flatten() {
            rows[u].push((v, dist));
            rows[v].push((u, dist));
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(v, _)| v);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tc_geometry::DimensionMismatch;

    fn random_points(seed: u64, n: usize, dim: usize, side: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..side)).collect()))
            .collect()
    }

    #[test]
    fn mandatory_and_forbidden_edges() {
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.4, 0.0),
            Point::new2(0.8, 0.0),
            Point::new2(2.0, 0.0),
        ];
        let ubg = UbgBuilder::new(0.5).build(points).unwrap();
        assert!(ubg.graph().has_edge(0, 1));
        assert!(ubg.graph().has_edge(1, 2)); // 0.4 <= alpha
        assert!(ubg.graph().has_edge(0, 2)); // grey zone but policy Always
        assert!(!ubg.graph().has_edge(0, 3)); // > 1
        assert!(ubg.is_valid_alpha_ubg());
        assert!((ubg.graph().edge_weight(0, 2).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unit_disk_builder_has_no_grey_zone() {
        let b = UbgBuilder::unit_disk();
        assert_eq!(b.alpha(), 1.0);
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.99, 0.0),
            Point::new2(2.0, 0.0),
        ];
        let ubg = b.build(points).unwrap();
        assert!(ubg.graph().has_edge(0, 1));
        assert!(!ubg.graph().has_edge(1, 2));
    }

    #[test]
    fn never_policy_gives_alpha_ball_graph() {
        let points = random_points(5, 60, 2, 3.0);
        let ubg = UbgBuilder::new(0.6)
            .grey_zone(GreyZonePolicy::Never)
            .build(points)
            .unwrap();
        for e in ubg.graph().edges() {
            assert!(e.weight <= 0.6 + 1e-12);
        }
        assert!(ubg.is_valid_alpha_ubg());
    }

    #[test]
    fn probabilistic_policy_is_between_never_and_always() {
        let points = random_points(6, 120, 2, 3.0);
        let never = UbgBuilder::new(0.5)
            .grey_zone(GreyZonePolicy::Never)
            .build(points.clone())
            .unwrap()
            .graph()
            .edge_count();
        let half = UbgBuilder::new(0.5)
            .grey_zone(GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed: 3,
            })
            .build(points.clone())
            .unwrap()
            .graph()
            .edge_count();
        let always = UbgBuilder::new(0.5)
            .grey_zone(GreyZonePolicy::Always)
            .build(points)
            .unwrap()
            .graph()
            .edge_count();
        assert!(never <= half && half <= always);
        assert!(
            never < always,
            "test instance should have a non-empty grey zone"
        );
    }

    #[test]
    fn three_dimensional_instances_build() {
        let points = random_points(7, 80, 3, 2.0);
        let ubg = UbgBuilder::new(0.75).build(points).unwrap();
        assert_eq!(ubg.dim(), 3);
        assert!(ubg.is_valid_alpha_ubg());
    }

    #[test]
    fn empty_and_singleton_point_sets() {
        let empty = UbgBuilder::new(0.5).build(vec![]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.graph().edge_count(), 0);
        let single = UbgBuilder::new(0.5)
            .build(vec![Point::new2(1.0, 1.0)])
            .unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single.graph().edge_count(), 0);
    }

    #[test]
    fn mixed_dimension_points_are_rejected_with_a_typed_error() {
        // Regression for the documented panic: `build` now reports the
        // expected and offending dimensions instead of aborting.
        let err = UbgBuilder::new(0.5)
            .build(vec![Point::new2(0.0, 0.0), Point::new3(0.0, 0.0, 0.0)])
            .unwrap_err();
        assert_eq!(
            err,
            PointSetError::Dimension(DimensionMismatch { left: 2, right: 3 })
        );
        let err = UbgBuilder::new(0.5)
            .build(vec![
                Point::new3(0.0, 0.0, 0.0),
                Point::new3(1.0, 0.0, 0.0),
                Point::new(vec![2.0]),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            PointSetError::Dimension(DimensionMismatch { left: 3, right: 1 })
        );
    }

    #[test]
    fn build_store_matches_build_bitwise() {
        let points = random_points(11, 150, 2, 3.0);
        let store = PointStore::from_points(&points).unwrap();
        let builder = UbgBuilder::new(0.6).grey_zone(GreyZonePolicy::DistanceFalloff { seed: 9 });
        let via_points = builder.build(points).unwrap();
        let via_store = builder.build_store(store);
        let a: Vec<_> = via_points
            .graph()
            .edges()
            .map(|e| (e.u, e.v, e.weight.to_bits()))
            .collect();
        let b: Vec<_> = via_store
            .graph()
            .edges()
            .map(|e| (e.u, e.v, e.weight.to_bits()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1]")]
    fn zero_alpha_rejected() {
        let _ = UbgBuilder::new(0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn built_graphs_satisfy_the_model_constraints(
            seed in 0u64..500,
            n in 0usize..80,
            alpha in 0.2f64..1.0,
            policy_idx in 0usize..4,
        ) {
            let points = random_points(seed, n, 2, 3.0);
            let policy = match policy_idx {
                0 => GreyZonePolicy::Always,
                1 => GreyZonePolicy::Never,
                2 => GreyZonePolicy::Probabilistic { probability: 0.5, seed },
                _ => GreyZonePolicy::DistanceFalloff { seed },
            };
            let ubg = UbgBuilder::new(alpha).grey_zone(policy).build(points).unwrap();
            prop_assert!(ubg.is_valid_alpha_ubg());
        }
    }
}
