//! # tc-baselines
//!
//! Classical topology-control constructions used as comparison baselines
//! for the PODC 2006 spanner (experiment E5 / the qualitative comparison
//! the paper's Section 1.3 makes against prior work).
//!
//! Every baseline consumes a realised α-UBG (it may only keep edges the
//! radio graph actually has) and returns the selected topology as a
//! [`tc_graph::WeightedGraph`]:
//!
//! * [`yao_graph`] — per-node cone partition, shortest edge per cone,
//! * [`theta_graph`] — like Yao but selecting by projection onto the cone
//!   bisector,
//! * [`gabriel_graph`] — keep `{u, v}` iff the disk with diameter `uv`
//!   contains no other node,
//! * [`relative_neighborhood_graph`] — keep `{u, v}` iff no node is
//!   simultaneously closer to both endpoints (empty lune),
//! * [`xtc`] — the Wattenhofer–Zollinger XTC protocol with Euclidean
//!   distances as the link-quality order,
//! * [`lmst`] — Li–Hou–Sha local MST (each node keeps its incident edges
//!   of the MST of its 1-hop neighbourhood; an edge survives if both
//!   endpoints keep it).
//!
//! All constructions are *local* (each node's decision depends only on its
//! 1-hop neighbourhood, except Gabriel/RNG which are stated globally here
//! but are locally computable on unit-disk inputs); none of them gives the
//! paper's combination of (1+ε) stretch, constant degree and O(MST)
//! weight, which is exactly the comparison the experiment table shows.
//!
//! # Example
//!
//! ```
//! use tc_baselines::{gabriel_graph, relative_neighborhood_graph};
//! use tc_ubg::{generators, UbgBuilder};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let points = generators::uniform_points(&mut rng, 80, 2, 3.0);
//! let ubg = UbgBuilder::unit_disk().build(points).unwrap();
//! let gg = gabriel_graph(&ubg);
//! let rng_graph = relative_neighborhood_graph(&ubg);
//! // RNG ⊆ Gabriel ⊆ UDG.
//! assert!(gg.contains_subgraph(&rng_graph));
//! assert!(ubg.graph().contains_subgraph(&gg));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lmst;
mod proximity;
mod xtc;
mod yao;

pub use lmst::lmst;
pub use proximity::{gabriel_graph, relative_neighborhood_graph};
pub use xtc::xtc;
pub use yao::{theta_graph, yao_graph};

use serde::Serialize;
use tc_graph::WeightedGraph;
use tc_ubg::UnitBallGraph;

/// The set of baselines, as an enumeration the experiment harness can
/// iterate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Baseline {
    /// Yao graph with the given number of cones.
    Yao {
        /// Number of cones per node (≥ 6 for a spanner guarantee).
        cones: usize,
    },
    /// Θ-graph with the given number of cones.
    Theta {
        /// Number of cones per node.
        cones: usize,
    },
    /// Gabriel graph.
    Gabriel,
    /// Relative neighbourhood graph.
    RelativeNeighborhood,
    /// XTC with Euclidean link order.
    Xtc,
    /// Local MST (symmetric variant).
    Lmst,
}

impl Baseline {
    /// All baselines with sensible default parameters, in the order the
    /// experiment table reports them.
    pub fn all() -> Vec<Baseline> {
        vec![
            Baseline::Yao { cones: 8 },
            Baseline::Theta { cones: 8 },
            Baseline::Gabriel,
            Baseline::RelativeNeighborhood,
            Baseline::Xtc,
            Baseline::Lmst,
        ]
    }

    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            Baseline::Yao { cones } => format!("yao-{cones}"),
            Baseline::Theta { cones } => format!("theta-{cones}"),
            Baseline::Gabriel => "gabriel".to_string(),
            Baseline::RelativeNeighborhood => "rng".to_string(),
            Baseline::Xtc => "xtc".to_string(),
            Baseline::Lmst => "lmst".to_string(),
        }
    }

    /// Runs the baseline on the given network.
    pub fn build(&self, ubg: &UnitBallGraph) -> WeightedGraph {
        match *self {
            Baseline::Yao { cones } => yao_graph(ubg, cones),
            Baseline::Theta { cones } => theta_graph(ubg, cones),
            Baseline::Gabriel => gabriel_graph(ubg),
            Baseline::RelativeNeighborhood => relative_neighborhood_graph(ubg),
            Baseline::Xtc => xtc(ubg),
            Baseline::Lmst => lmst(ubg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::components;
    use tc_ubg::{generators, UbgBuilder};

    fn sample(seed: u64, n: usize) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, 2.2);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    #[test]
    fn all_baselines_produce_subgraphs_of_the_input() {
        let ubg = sample(1, 90);
        for baseline in Baseline::all() {
            let out = baseline.build(&ubg);
            assert!(
                ubg.graph().contains_subgraph(&out),
                "{} produced edges outside the UBG",
                baseline.name()
            );
            assert!(!baseline.name().is_empty());
        }
    }

    #[test]
    fn all_baselines_preserve_connectivity_on_a_connected_input() {
        let ubg = sample(2, 120);
        assert!(
            components::is_connected(ubg.graph()),
            "test instance must be connected"
        );
        for baseline in Baseline::all() {
            let out = baseline.build(&ubg);
            assert!(
                components::is_connected(&out),
                "{} disconnected the network",
                baseline.name()
            );
        }
    }

    #[test]
    fn all_baselines_are_sparser_than_the_input() {
        let ubg = sample(3, 150);
        for baseline in Baseline::all() {
            let out = baseline.build(&ubg);
            assert!(
                out.edge_count() < ubg.graph().edge_count(),
                "{} kept every edge",
                baseline.name()
            );
        }
    }
}
