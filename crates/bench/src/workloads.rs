//! The reproducible workloads the experiment tables build: uniform points
//! in a cube sized for a target mean degree, realised as a UDG or an α-UBG.
//! Non-uniform deployments are built directly from [`generators`].

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tc_geometry::PointStore;
use tc_ubg::{generators, GreyZonePolicy, UbgBuilder, UnitBallGraph};

/// Target mean degree of the unit-radius graph every workload is sized
/// for (controls density).
const TARGET_DEGREE: f64 = 12.0;

/// A reproducible network workload: `n` points uniform in a cube sized for
/// a mean unit-radius degree of 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Seed for the point generator (and the grey-zone policy, if random).
    pub seed: u64,
    /// Number of nodes.
    pub n: usize,
    /// Dimension `d ≥ 2`.
    pub dim: usize,
    /// The α of the α-UBG model.
    pub alpha: f64,
    /// Grey-zone policy (ignored when `alpha == 1`).
    pub grey_zone: GreyZonePolicy,
}

impl Workload {
    /// A uniform UDG workload (α = 1) at the default density.
    pub fn udg(seed: u64, n: usize) -> Self {
        Self {
            seed,
            n,
            dim: 2,
            alpha: 1.0,
            grey_zone: GreyZonePolicy::Always,
        }
    }

    /// A uniform α-UBG workload with a Bernoulli grey zone.
    pub fn alpha_ubg(seed: u64, n: usize, alpha: f64) -> Self {
        Self {
            seed,
            n,
            dim: 2,
            alpha,
            grey_zone: GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed,
            },
        }
    }

    /// Realises the workload as an α-UBG.
    pub fn build(&self) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let side = generators::side_for_target_degree(self.n, self.dim, TARGET_DEGREE);
        let points = generators::uniform_points(&mut rng, self.n, self.dim, side);
        // The generators emit uniform-dimension points, so the store path
        // (whose `push` asserts the dimension) cannot fail here.
        let mut store = PointStore::with_capacity(self.dim, points.len());
        for p in &points {
            store.push(p.coords());
        }
        UbgBuilder::new(self.alpha)
            .grey_zone(self.grey_zone)
            .build_store(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udg_workload_builds_a_connected_dense_network() {
        let ubg = Workload::udg(1, 200).build();
        assert_eq!(ubg.len(), 200);
        assert!(ubg.graph().mean_degree() > 5.0);
        assert!(tc_graph::components::is_connected(ubg.graph()));
    }

    #[test]
    fn alpha_ubg_workload_is_a_valid_model_instance() {
        let ubg = Workload::alpha_ubg(2, 150, 0.6).build();
        assert!(ubg.is_valid_alpha_ubg());
        assert_eq!(ubg.alpha(), 0.6);
    }

    #[test]
    fn two_and_three_dimensional_workloads_build() {
        let ubg = Workload::udg(3, 80).build();
        assert_eq!((ubg.len(), ubg.dim()), (80, 2));
        let ubg3d = Workload {
            dim: 3,
            ..Workload::udg(4, 80)
        }
        .build();
        assert_eq!((ubg3d.len(), ubg3d.dim()), (80, 3));
    }

    #[test]
    fn workloads_are_reproducible() {
        let a = Workload::udg(9, 60).build();
        let b = Workload::udg(9, 60).build();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.points(), b.points());
    }
}
