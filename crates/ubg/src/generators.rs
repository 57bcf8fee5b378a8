//! Random point-set generators for the experiment workloads.
//!
//! The paper evaluates nothing empirically, so the workloads here are the
//! standard deployments used throughout the topology-control literature:
//! uniform random deployment in a cube, clustered (Gaussian blob)
//! deployments and long thin corridors (the adversarial case for hop
//! counts).

use rand::Rng;
use tc_geometry::Point;

/// `n` points uniformly random in the cube `[0, side]^dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `side < 0`.
pub fn uniform_points<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize, side: f64) -> Vec<Point> {
    assert!(dim >= 1, "dimension must be at least 1");
    assert!(side >= 0.0, "side length must be non-negative");
    (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0.0..=side)).collect()))
        .collect()
}

/// `n` points drawn from `clusters` Gaussian blobs whose centres are
/// uniform in `[0, side]^dim` and whose standard deviation is `spread`.
///
/// Samples outside `[0, side]` are reflected back into the cube at its
/// faces, so the deployment region stays bounded without piling points
/// up on the faces and corners (clamping made coincident points there).
/// Samples inside the cube are returned unchanged.
pub fn clustered_points<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    dim: usize,
    side: f64,
    clusters: usize,
    spread: f64,
) -> Vec<Point> {
    assert!(dim >= 1, "dimension must be at least 1");
    assert!(clusters >= 1, "need at least one cluster");
    assert!(spread >= 0.0, "spread must be non-negative");
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..=side)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % clusters];
            Point::new(
                c.iter()
                    .map(|&x| reflect_into_cube(x + gaussian(rng) * spread, side))
                    .collect(),
            )
        })
        .collect()
}

/// Folds `x` into `[0, side]` by reflecting it at the faces `0` and `side`
/// (as often as needed); values already inside are returned as they are.
fn reflect_into_cube(x: f64, side: f64) -> f64 {
    if (0.0..=side).contains(&x) {
        return x;
    }
    if side == 0.0 {
        return 0.0;
    }
    let folded = x.rem_euclid(2.0 * side);
    if folded <= side {
        folded
    } else {
        2.0 * side - folded
    }
}

/// `n` points in a long thin corridor of the given `length` and `width`
/// (the first coordinate spans the length; all remaining coordinates span
/// the width). Produces high-diameter networks where hop counts and the
/// `O(log n)` phase structure are exercised hardest.
pub fn corridor_points<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    dim: usize,
    length: f64,
    width: f64,
) -> Vec<Point> {
    assert!(dim >= 1, "dimension must be at least 1");
    assert!(
        length >= 0.0 && width >= 0.0,
        "corridor dimensions must be non-negative"
    );
    (0..n)
        .map(|_| {
            let mut coords = vec![rng.gen_range(0.0..=length)];
            for _ in 1..dim {
                coords.push(rng.gen_range(0.0..=width));
            }
            Point::new(coords)
        })
        .collect()
}

/// Chooses the side length of a square/cubic deployment region so that a
/// uniform deployment of `n` nodes with communication radius 1 has the
/// given expected number of neighbours per node. Used by the experiments to
/// keep density (and hence connectivity) roughly constant as `n` grows.
pub fn side_for_target_degree(n: usize, dim: usize, target_degree: f64) -> f64 {
    assert!(dim >= 1, "dimension must be at least 1");
    assert!(target_degree > 0.0, "target degree must be positive");
    if n <= 1 {
        return 1.0;
    }
    // Expected neighbours ≈ (n-1) · vol(unit ball) / side^dim.
    let unit_ball_volume = match dim {
        1 => 2.0,
        2 => std::f64::consts::PI,
        3 => 4.0 * std::f64::consts::PI / 3.0,
        d => {
            // Γ-free approximation adequate for sizing: vol ≈ π^(d/2) / (d/2)!
            let half = d as f64 / 2.0;
            std::f64::consts::PI.powf(half) / gamma_plus_one(half)
        }
    };
    (((n - 1) as f64) * unit_ball_volume / target_degree).powf(1.0 / dim as f64)
}

/// Simple Stirling-based approximation of Γ(x+1) for sizing purposes.
fn gamma_plus_one(x: f64) -> f64 {
    if x <= 1.0 {
        return 1.0;
    }
    (2.0 * std::f64::consts::PI * x).sqrt() * (x / std::f64::consts::E).powf(x)
}

/// A standard normal sample via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_points_stay_in_the_cube() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pts = uniform_points(&mut rng, 200, 3, 2.5);
        assert_eq!(pts.len(), 200);
        for p in &pts {
            assert_eq!(p.dim(), 3);
            for i in 0..3 {
                assert!((0.0..=2.5).contains(&p.coord(i)));
            }
        }
    }

    #[test]
    fn clustered_points_stay_in_the_cube() {
        // The second case's spread is wider than the cube, so samples are
        // reflected more than once.
        for (seed, dim, side, spread) in [(2, 2, 4.0, 0.3), (4, 3, 2.0, 5.0)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let pts = clustered_points(&mut rng, 150, dim, side, 5, spread);
            assert_eq!(pts.len(), 150);
            for p in &pts {
                for i in 0..dim {
                    assert!((0.0..=side).contains(&p.coord(i)), "{p:?}");
                }
            }
        }
        assert_eq!(reflect_into_cube(-0.5, 6.0), 0.5);
        assert_eq!(reflect_into_cube(6.5, 6.0), 5.5);
        assert_eq!(reflect_into_cube(13.0, 6.0), 1.0);
        assert_eq!(reflect_into_cube(-8.0, 6.0), 4.0);
        assert_eq!(reflect_into_cube(0.1, 0.0), 0.0);
    }

    #[test]
    fn clustered_points_near_a_corner_do_not_coincide() {
        // Clamping put five of these points at exactly (6, 0).
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let pts = clustered_points(&mut rng, 160, 2, 6.0, 5, 0.6);
        let mut coords: Vec<[u64; 2]> = pts
            .iter()
            .map(|p| [p.coord(0).to_bits(), p.coord(1).to_bits()])
            .collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(coords.len(), pts.len(), "coincident points");
    }

    #[test]
    fn corridor_points_are_long_and_thin() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let pts = corridor_points(&mut rng, 120, 2, 20.0, 0.5);
        assert_eq!(pts.len(), 120);
        for p in &pts {
            assert!((0.0..=20.0).contains(&p.coord(0)));
            assert!((0.0..=0.5).contains(&p.coord(1)));
        }
    }

    #[test]
    fn generators_are_deterministic_given_a_seed() {
        let a = uniform_points(&mut ChaCha8Rng::seed_from_u64(9), 50, 2, 3.0);
        let b = uniform_points(&mut ChaCha8Rng::seed_from_u64(9), 50, 2, 3.0);
        assert_eq!(a, b);
    }

    #[test]
    fn side_for_target_degree_controls_density() {
        // Doubling n at fixed degree should grow the area ~linearly, i.e.
        // the side by ~sqrt(2) in 2D.
        let s1 = side_for_target_degree(200, 2, 10.0);
        let s2 = side_for_target_degree(400, 2, 10.0);
        assert!((s2 / s1 - 2.0_f64.sqrt()).abs() < 0.05);
        // Higher target degree -> smaller region.
        assert!(side_for_target_degree(200, 2, 20.0) < s1);
        assert_eq!(side_for_target_degree(1, 2, 10.0), 1.0);
        // Higher dimensions remain finite and positive.
        assert!(side_for_target_degree(500, 4, 10.0) > 0.0);
    }

    #[test]
    fn empirical_density_roughly_matches_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 400;
        let target = 12.0;
        let side = side_for_target_degree(n, 2, target);
        let pts = uniform_points(&mut rng, n, 2, side);
        let ubg = crate::UbgBuilder::unit_disk().build(pts).unwrap();
        let mean = ubg.graph().mean_degree();
        assert!(
            (mean - target).abs() < target * 0.4,
            "mean degree {mean} too far from target {target}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dimension_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = uniform_points(&mut rng, 10, 0, 1.0);
    }
}
