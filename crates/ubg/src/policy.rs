//! Grey-zone edge policies.
//!
//! The α-UBG model leaves edges between nodes at distance in `(α, 1]`
//! unspecified. Each policy here is one way of realising those edges; the
//! experiments sweep over policies to show the spanner guarantees are
//! insensitive to the choice (they only depend on the two hard constraints
//! of the model).

use serde::Serialize;

/// How pairs of nodes in the grey zone `(α, 1]` are connected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum GreyZonePolicy {
    /// Every grey-zone pair becomes an edge. With this policy the α-UBG is
    /// exactly the unit ball graph of radius 1 (and a UDG when `d = 2`).
    #[default]
    Always,
    /// No grey-zone pair becomes an edge: the graph is the unit ball graph
    /// of radius `α`. This is the sparsest realisation the model allows.
    Never,
    /// Each grey-zone pair independently becomes an edge with the given
    /// probability, using a deterministic per-pair hash seeded by `seed`
    /// so a given policy always realises the same graph for the same
    /// points (reproducible experiments).
    Probabilistic {
        /// Probability that a grey-zone pair is connected.
        probability: f64,
        /// Seed mixed into the per-pair hash.
        seed: u64,
    },
    /// The connection probability decays linearly from 1 at distance `α`
    /// to 0 at distance 1 — a simple model of fading signal strength.
    DistanceFalloff {
        /// Seed mixed into the per-pair hash.
        seed: u64,
    },
    /// Pairs are connected unless the segment between them crosses an
    /// "obstructed" band of the deployment region: the band consists of
    /// all points whose first coordinate lies within `half_width` of
    /// `wall_x`, except for a doorway of half-height `gap_half_height`
    /// centred at `gap_y` in the second coordinate. A crude but effective
    /// stand-in for physical obstructions (and it never removes edges of
    /// length at most α, as the model requires — see
    /// [`GreyZonePolicy::connects`]).
    Obstruction {
        /// First coordinate of the wall.
        wall_x: f64,
        /// Half-width of the wall along the first coordinate.
        half_width: f64,
        /// Second coordinate of the doorway centre.
        gap_y: f64,
        /// Half-height of the doorway.
        gap_half_height: f64,
    },
}

/// A small, fast, deterministic hash of an unordered pair and a seed,
/// mapped to `[0, 1)`. Splitmix64-style mixing.
fn pair_hash_unit(seed: u64, i: usize, j: usize) -> f64 {
    let (a, b) = if i <= j {
        (i as u64, j as u64)
    } else {
        (j as u64, i as u64)
    };
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl GreyZonePolicy {
    /// Decides whether the grey-zone pair `(i, j)` at Euclidean distance
    /// `dist ∈ (α, 1]` is connected. The decision is deterministic for a
    /// given policy, pair and distance.
    ///
    /// `coords_i` / `coords_j` are the node positions (used only by the
    /// obstruction policy).
    pub fn connects(
        &self,
        i: usize,
        j: usize,
        dist: f64,
        alpha: f64,
        coords_i: &[f64],
        coords_j: &[f64],
    ) -> bool {
        match *self {
            GreyZonePolicy::Always => true,
            GreyZonePolicy::Never => false,
            GreyZonePolicy::Probabilistic { probability, seed } => {
                pair_hash_unit(seed, i, j) < probability.clamp(0.0, 1.0)
            }
            GreyZonePolicy::DistanceFalloff { seed } => {
                let span = (1.0 - alpha).max(f64::EPSILON);
                let p = ((1.0 - dist) / span).clamp(0.0, 1.0);
                pair_hash_unit(seed, i, j) < p
            }
            GreyZonePolicy::Obstruction {
                wall_x,
                half_width,
                gap_y,
                gap_half_height,
            } => !segment_blocked(
                coords_i,
                coords_j,
                wall_x,
                half_width,
                gap_y,
                gap_half_height,
            ),
        }
    }
}

/// Whether the segment from `a` to `b` crosses the wall band and misses the
/// doorway. Only the first two coordinates participate; 1-dimensional
/// inputs are treated as having a second coordinate of 0.
fn segment_blocked(
    a: &[f64],
    b: &[f64],
    wall_x: f64,
    half_width: f64,
    gap_y: f64,
    gap_half_height: f64,
) -> bool {
    let (ax, ay) = (a[0], a.get(1).copied().unwrap_or(0.0));
    let (bx, by) = (b[0], b.get(1).copied().unwrap_or(0.0));
    let (lo, hi) = (wall_x - half_width, wall_x + half_width);
    // If both endpoints are on the same side of the band, no crossing.
    if (ax < lo && bx < lo) || (ax > hi && bx > hi) {
        return false;
    }
    // Sample the portion of the segment inside the band and require the
    // doorway to contain it.
    let steps = 16;
    for s in 0..=steps {
        let t = s as f64 / steps as f64;
        let x = ax + t * (bx - ax);
        let y = ay + t * (by - ay);
        if x >= lo && x <= hi && (y - gap_y).abs() > gap_half_height {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never_are_constant() {
        assert!(GreyZonePolicy::Always.connects(0, 1, 0.9, 0.5, &[0.0, 0.0], &[0.9, 0.0]));
        assert!(!GreyZonePolicy::Never.connects(0, 1, 0.9, 0.5, &[0.0, 0.0], &[0.9, 0.0]));
    }

    #[test]
    fn probabilistic_is_deterministic_and_symmetric() {
        let p = GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed: 42,
        };
        let a = p.connects(3, 9, 0.8, 0.5, &[0.0, 0.0], &[0.8, 0.0]);
        let b = p.connects(9, 3, 0.8, 0.5, &[0.8, 0.0], &[0.0, 0.0]);
        assert_eq!(a, b);
        // Repeated evaluation gives the same answer.
        assert_eq!(a, p.connects(3, 9, 0.8, 0.5, &[0.0, 0.0], &[0.8, 0.0]));
    }

    #[test]
    fn probabilistic_extremes() {
        let yes = GreyZonePolicy::Probabilistic {
            probability: 1.0,
            seed: 1,
        };
        let no = GreyZonePolicy::Probabilistic {
            probability: 0.0,
            seed: 1,
        };
        for (i, j) in [(0, 1), (5, 17), (100, 3)] {
            assert!(yes.connects(i, j, 0.9, 0.5, &[0.0], &[0.9]));
            assert!(!no.connects(i, j, 0.9, 0.5, &[0.0], &[0.9]));
        }
    }

    #[test]
    fn probabilistic_hits_roughly_the_requested_rate() {
        let p = GreyZonePolicy::Probabilistic {
            probability: 0.3,
            seed: 7,
        };
        let total = 2000;
        let hits = (0..total)
            .filter(|&i| p.connects(i, i + 1, 0.9, 0.5, &[0.0], &[0.9]))
            .count();
        let rate = hits as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.05, "rate was {rate}");
    }

    #[test]
    fn falloff_connects_near_alpha_and_disconnects_near_one() {
        let p = GreyZonePolicy::DistanceFalloff { seed: 11 };
        let near_alpha = (0..500)
            .filter(|&i| p.connects(i, i + 1, 0.51, 0.5, &[0.0], &[0.51]))
            .count();
        let near_one = (0..500)
            .filter(|&i| p.connects(i, i + 1, 0.995, 0.5, &[0.0], &[0.995]))
            .count();
        assert!(near_alpha > 450, "near-alpha connect count {near_alpha}");
        assert!(near_one < 50, "near-one connect count {near_one}");
    }

    #[test]
    fn obstruction_blocks_wall_crossings_but_not_doorway() {
        let p = GreyZonePolicy::Obstruction {
            wall_x: 0.5,
            half_width: 0.05,
            gap_y: 0.0,
            gap_half_height: 0.2,
        };
        // Crosses the wall far from the doorway: blocked.
        assert!(!p.connects(0, 1, 0.9, 0.5, &[0.1, 1.0], &[0.9, 1.0]));
        // Crosses through the doorway: connected.
        assert!(p.connects(0, 1, 0.9, 0.5, &[0.1, 0.0], &[0.9, 0.0]));
        // Entirely on one side of the wall: connected.
        assert!(p.connects(0, 1, 0.3, 0.5, &[0.1, 1.0], &[0.3, 1.0]));
    }

    #[test]
    fn default_policy_is_always() {
        assert_eq!(GreyZonePolicy::default(), GreyZonePolicy::Always);
    }
}
