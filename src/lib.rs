//! # topology-control
//!
//! Facade crate for the reproduction of *Local Approximation Schemes for
//! Topology Control* (Damian, Pandit, Pemmaraju — PODC 2006). It
//! re-exports the workspace crates under one roof so applications can
//! depend on a single crate:
//!
//! * [`geometry`] — points, metrics, cones, grids ([`tc_geometry`]),
//! * [`graph`] — the weighted-graph substrate ([`tc_graph`]),
//! * [`ubg`] — the α-quasi unit ball graph network model ([`tc_ubg`]),
//! * [`simnet`] — distributed MIS protocols run round by round, and the
//!   round ledger ([`tc_simnet`]),
//! * [`spanner`] — the paper's spanner constructions ([`tc_spanner`]),
//! * [`baselines`] — classical topology-control baselines ([`tc_baselines`]).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
//!
//! ```
//! use topology_control::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let points = generators::uniform_points(&mut rng, 50, 2, 2.0);
//! let network = UbgBuilder::unit_disk().build(points).unwrap();
//! let spanner = build_spanner(&network, 0.5).unwrap();
//! assert!(spanner.spanner.edge_count() <= network.graph().edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tc_baselines as baselines;
pub use tc_geometry as geometry;
pub use tc_graph as graph;
pub use tc_simnet as simnet;
pub use tc_spanner as spanner;
pub use tc_ubg as ubg;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use tc_baselines::Baseline;
    pub use tc_geometry::Point;
    pub use tc_graph::{CsrGraph, GraphView, WeightedGraph};
    pub use tc_spanner::{
        build_spanner, build_spanner_distributed, verify::verify_spanner, DistributedRelaxedGreedy,
        EdgeWeighting, RelaxedGreedy, SpannerParams,
    };
    pub use tc_ubg::{generators, GreyZonePolicy, UbgBuilder, UnitBallGraph};
}
