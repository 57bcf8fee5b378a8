//! `UbgBuilder::build_store` against the O(n²) definition of the α-UBG.
//!
//! The reference visits every pair `u < v` in ascending order and inserts
//! the kept ones edge by edge. That insertion produces adjacency rows in
//! ascending neighbour order, the order the spanner construction iterates
//! in, so the builder's rows are compared entry by entry: neighbour, and
//! weight bits. Every case is built with `TC_THREADS` pinned to 1 and to
//! 2; this file is its own test process and serialises its environment
//! changes, so no other test sees them.

use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use tc_geometry::{Point, PointAccess, PointSetError, PointStore};
use tc_graph::par::THREADS_ENV;
use tc_graph::WeightedGraph;
use tc_ubg::{GreyZonePolicy, UbgBuilder};

/// Serialises the tests that pin `TC_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    std::env::remove_var(THREADS_ENV);
    out
}

/// The realised α-UBG by its definition, one pair at a time.
fn reference(points: &PointStore, alpha: f64, policy: GreyZonePolicy) -> WeightedGraph {
    let n = points.len();
    let mut graph = WeightedGraph::new(n);
    let (mut cu, mut cv) = (Vec::new(), Vec::new());
    for u in 0..n {
        for v in u + 1..n {
            let dist = points.distance(u, v);
            if dist > 1.0 {
                continue;
            }
            points.write_coords(u, &mut cu);
            points.write_coords(v, &mut cv);
            if dist <= alpha || policy.connects(u, v, dist, alpha, &cu, &cv) {
                graph.add_edge(u, v, dist);
            }
        }
    }
    graph
}

type Rows = Vec<Vec<(usize, u64)>>;

fn rows(graph: &WeightedGraph) -> Rows {
    (0..graph.node_count())
        .map(|u| {
            graph
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect()
        })
        .collect()
}

fn policies() -> [GreyZonePolicy; 5] {
    [
        GreyZonePolicy::Always,
        GreyZonePolicy::Never,
        GreyZonePolicy::Probabilistic {
            probability: 0.4,
            seed: 17,
        },
        GreyZonePolicy::DistanceFalloff { seed: 23 },
        GreyZonePolicy::Obstruction {
            wall_x: 0.5,
            half_width: 0.2,
            gap_y: 0.0,
            gap_half_height: 0.5,
        },
    ]
}

/// Builds `points` under every policy at two thread counts and compares
/// the rows with the reference.
fn assert_matches_reference(name: &str, points: &[Point], alpha: f64) {
    let store = PointStore::from_points(points).expect("one dimension");
    for policy in policies() {
        let expected = rows(&reference(&store, alpha, policy));
        for threads in ["1", "2"] {
            let built = with_threads(threads, || {
                UbgBuilder::new(alpha)
                    .grey_zone(policy)
                    .build_store(store.clone())
            });
            let got = rows(built.graph());
            assert_eq!(
                got, expected,
                "{name}: rows differ under {policy:?} at TC_THREADS={threads}"
            );
            let entries: usize = got.iter().map(Vec::len).sum();
            assert_eq!(
                built.graph().edge_count() * 2,
                entries,
                "{name}: edge count"
            );
            assert!(
                got.iter()
                    .all(|row| row.windows(2).all(|w| w[0].0 < w[1].0)),
                "{name}: a row is not in ascending neighbour order"
            );
        }
    }
}

fn random_points(seed: u64, n: usize, dim: usize, lo: f64, hi: f64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(lo..hi)).collect()))
        .collect()
}

#[test]
fn one_two_and_three_dimensional_deployments_with_negative_coordinates() {
    for dim in 1..=3 {
        let side = [40.0, 6.0, 2.5][dim - 1];
        let points = random_points(dim as u64, 220, dim, -side, side);
        assert_matches_reference(&format!("uniform {dim}-d"), &points, 0.5);
    }
}

#[test]
fn enough_cells_for_several_parallel_chunks() {
    // ~2 000 occupied cells: the sweep is cut into several cell chunks, so
    // two workers really split it.
    let points = random_points(5, 2_400, 2, -40.0, 40.0);
    assert_matches_reference("sparse 2-d", &points, 0.7);
}

#[test]
fn duplicate_points_and_one_dense_cluster() {
    let mut points = random_points(6, 60, 2, 0.0, 3.0);
    points.extend(points.clone());
    points.extend(vec![Point::new2(1.5, -0.5); 8]);
    points.extend(random_points(7, 120, 2, 0.1, 0.9));
    assert_matches_reference("duplicates and a cluster", &points, 0.6);
}

#[test]
fn a_sparse_deployment_over_a_huge_bounding_box() {
    let mut points = random_points(8, 150, 3, -1.0e9, 1.0e9);
    for k in 0..10 {
        let p = points[k].clone();
        points.push(Point::new3(p.coord(0) + 0.3, p.coord(1), p.coord(2) - 0.6));
    }
    assert_matches_reference("huge box", &points, 0.5);
}

#[test]
fn pairs_at_exactly_alpha_and_exactly_one() {
    let points = vec![
        Point::new2(0.0, 0.0),
        Point::new2(0.5, 0.0),  // exactly α from 0
        Point::new2(1.0, 0.0),  // exactly 1 from 0, α from 1
        Point::new2(0.0, -1.0), // exactly 1 from 0
        Point::new2(-2.0, 3.0),
        Point::new2(-2.0, 3.5),  // exactly α from 4
        Point::new2(-3.0, 3.0),  // exactly 1 from 4
        Point::new2(-3.0, 4.25), // out of reach
    ];
    assert_matches_reference("exact distances", &points, 0.5);
    let ubg = UbgBuilder::new(0.5)
        .grey_zone(GreyZonePolicy::Never)
        .build(points.clone())
        .unwrap();
    assert!(ubg.graph().has_edge(0, 1) && ubg.graph().has_edge(4, 5));
    assert!(!ubg.graph().has_edge(0, 2), "grey zone under Never");
    let ubg = UbgBuilder::new(0.5).build(points).unwrap();
    assert!(ubg.graph().has_edge(0, 2) && ubg.graph().has_edge(0, 3));
    assert!(ubg.graph().has_edge(4, 6));
}

/// Finite random points with one NaN coordinate inserted at index 7
/// (axis 0) and one appended (axis 1).
fn points_with_nan() -> Vec<Point> {
    let mut points = random_points(9, 50, 2, 0.0, 2.0);
    points.insert(7, Point::new2(f64::NAN, 1.0));
    points.push(Point::new2(0.5, f64::NAN));
    points
}

#[test]
fn from_points_rejects_a_non_finite_coordinate_by_index_and_axis() {
    let err = PointStore::from_points(&points_with_nan()).unwrap_err();
    assert_eq!(err, PointSetError::NonFinite { index: 7, axis: 0 });
    let mut points = points_with_nan();
    points.remove(7);
    let last = points.len() - 1;
    let err = PointStore::from_points(&points).unwrap_err();
    assert_eq!(
        err,
        PointSetError::NonFinite {
            index: last,
            axis: 1
        }
    );
}

#[test]
fn build_rejects_a_non_finite_coordinate_by_index_and_axis() {
    let err = UbgBuilder::new(0.6).build(points_with_nan()).unwrap_err();
    assert_eq!(err, PointSetError::NonFinite { index: 7, axis: 0 });
    let mut points = random_points(10, 30, 3, 0.0, 2.0);
    points[12] = Point::new3(0.5, 0.5, f64::INFINITY);
    let err = UbgBuilder::unit_disk().build(points).unwrap_err();
    assert_eq!(err, PointSetError::NonFinite { index: 12, axis: 2 });
}

/// `build_store` takes a `PointStore`, and the only way to put a point
/// into one outside `from_points` is `push`, which refuses it.
#[test]
#[should_panic(expected = "point 7 has a non-finite coordinate on axis 0")]
fn push_refuses_a_non_finite_coordinate_so_build_store_never_sees_one() {
    let mut store = PointStore::with_dim(2);
    for p in points_with_nan() {
        store.push(p.coords());
    }
    let _ = UbgBuilder::new(0.6).build_store(store);
}
