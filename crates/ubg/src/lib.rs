//! # tc-ubg
//!
//! The wireless-network model of the PODC 2006 paper: *d-dimensional
//! α-quasi unit ball graphs* (α-UBGs).
//!
//! An α-UBG on a point set `P ⊂ R^d` (for `0 < α ≤ 1`) is any graph whose
//! vertices are the points of `P` and whose edge set satisfies
//!
//! * `|uv| ≤ α`  ⇒  `{u, v}` **is** an edge,
//! * `|uv| > 1`  ⇒  `{u, v}` is **not** an edge,
//! * `α < |uv| ≤ 1` — the "grey zone" — the model does not prescribe
//!   whether the edge exists; this is how the paper accounts for
//!   transmission errors, fading signal strength and obstructions.
//!
//! With `α = 1` and `d = 2` the model degenerates to the familiar unit
//! disk graph (UDG).
//!
//! This crate provides:
//!
//! * [`UnitBallGraph`] — positions + the realised graph, with edge weights
//!   equal to Euclidean distances (the paper's default weighting),
//! * [`GreyZonePolicy`] — how grey-zone pairs are resolved (always, never,
//!   Bernoulli, distance-falloff, obstruction field),
//! * [`UbgBuilder`] — constructs the graph from points with a cell-sorted
//!   grid sweep, so building large instances is near-linear,
//! * [`generators`] — the random point workloads the experiments use
//!   (uniform, Gaussian clusters, corridor).
//!
//! # Example
//!
//! ```
//! use tc_ubg::{generators, UbgBuilder, GreyZonePolicy};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let points = generators::uniform_points(&mut rng, 100, 2, 4.0);
//! let ubg = UbgBuilder::new(0.75)
//!     .grey_zone(GreyZonePolicy::Probabilistic { probability: 0.5, seed: 7 })
//!     .build(points)
//!     .unwrap();
//! assert_eq!(ubg.len(), 100);
//! assert!(ubg.graph().edge_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
pub mod generators;
mod model;
mod policy;

pub use builder::UbgBuilder;
pub use model::UnitBallGraph;
pub use policy::GreyZonePolicy;
