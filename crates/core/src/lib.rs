//! # tc-spanner
//!
//! Reproduction of the core contribution of *Local Approximation Schemes
//! for Topology Control* (Damian, Pandit, Pemmaraju — PODC 2006):
//! distributed construction of `(1+ε)`-spanners of d-dimensional α-quasi
//! unit ball graphs with constant maximum degree and total weight
//! `O(w(MST))`, in `O(log n · log* n)` communication rounds.
//!
//! ## What is here
//!
//! * [`seq_greedy`] — the classical sequential path-greedy spanner
//!   (`SEQ-GREEDY`), the paper's starting point and a baseline,
//! * [`SpannerParams`] — derivation and validation of the constants the
//!   proofs need (`t1`, `δ`, `r`, `θ`) from the single knob `ε`,
//! * [`RelaxedGreedy`] — the sequential *relaxed* greedy algorithm
//!   (Section 2): weight bins, lazy updates against a frozen cluster
//!   graph, Czumaj–Zhao covered-edge filtering, one query edge per cluster
//!   pair, and MIS-based removal of mutually redundant edges,
//! * [`DistributedRelaxedGreedy`] — the distributed version (Section 3) on
//!   top of the `tc-simnet` synchronous message-passing substrate, with
//!   full round accounting per phase and step,
//! * [`verify`] — measurement of the three guaranteed properties plus a
//!   leapfrog-property spot check,
//! * [`extensions`] — the Section 1.6 extensions: energy spanners, the
//!   power-cost measure, and k-fault-tolerant spanners.
//!
//! ## Quick start
//!
//! ```
//! use tc_spanner::{build_spanner, SpannerParams};
//! use tc_ubg::{generators, UbgBuilder};
//! use rand::SeedableRng;
//!
//! // Deploy 80 nodes uniformly in a 3x3 square, radio range 1.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let points = generators::uniform_points(&mut rng, 80, 2, 3.0);
//! let network = UbgBuilder::unit_disk().build(points).unwrap();
//!
//! // Build a 1.5-spanner (epsilon = 0.5).
//! let result = build_spanner(&network, 0.5).unwrap();
//! let report = tc_spanner::verify::verify_spanner(
//!     network.graph(),
//!     &result.spanner,
//!     result.params.t,
//! );
//! assert!(report.stretch_ok);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
mod distributed;
pub mod extensions;
mod params;
pub mod relaxed;
mod seq_greedy;
pub mod verify;
mod weighting;

pub use ablation::{run_ablation, AblationConfig};
pub use distributed::{DistributedRelaxedGreedy, DistributedSpannerResult, MisProtocol};
pub use params::{ParamError, SpannerParams};
pub use relaxed::{PhaseStats, PointCountMismatch, RelaxedGreedy, SpannerResult};
pub use seq_greedy::seq_greedy;
pub use weighting::EdgeWeighting;

use tc_ubg::UnitBallGraph;

/// Builds a `(1+ε)`-spanner of the given α-UBG with the sequential relaxed
/// greedy algorithm, deriving all internal parameters from `ε` and the
/// network's `α`.
///
/// # Errors
///
/// Returns a [`ParamError`] if `ε ≤ 0` or the network's `α` is out of
/// range.
pub fn build_spanner(ubg: &UnitBallGraph, epsilon: f64) -> Result<SpannerResult, ParamError> {
    let alpha = if ubg.is_empty() { 1.0 } else { ubg.alpha() };
    let params = SpannerParams::for_epsilon(epsilon, alpha)?;
    Ok(RelaxedGreedy::new(params).run(ubg))
}

/// Builds a `(1+ε)`-spanner with the distributed relaxed greedy algorithm,
/// returning the spanner together with the measured round/message costs.
///
/// # Errors
///
/// Returns a [`ParamError`] if `ε ≤ 0` or the network's `α` is out of
/// range.
pub fn build_spanner_distributed(
    ubg: &UnitBallGraph,
    epsilon: f64,
) -> Result<DistributedSpannerResult, ParamError> {
    let alpha = if ubg.is_empty() { 1.0 } else { ubg.alpha() };
    let params = SpannerParams::for_epsilon(epsilon, alpha)?;
    Ok(DistributedRelaxedGreedy::new(params).run(ubg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, UbgBuilder};

    #[test]
    fn top_level_sequential_entry_point() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let points = generators::uniform_points(&mut rng, 60, 2, 2.5);
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let result = build_spanner(&ubg, 0.5).unwrap();
        assert!(stretch_factor(ubg.graph(), &result.spanner) <= 1.5 + 1e-9);
        assert!(build_spanner(&ubg, 0.0).is_err());
    }

    #[test]
    fn top_level_distributed_entry_point() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let points = generators::uniform_points(&mut rng, 50, 2, 2.0);
        let ubg = UbgBuilder::new(0.8).build(points).unwrap();
        let out = build_spanner_distributed(&ubg, 1.0).unwrap();
        assert!(stretch_factor(ubg.graph(), &out.result.spanner) <= 2.0 + 1e-9);
        assert!(out.rounds > 0);
        assert!(build_spanner_distributed(&ubg, -1.0).is_err());
    }

    #[test]
    fn empty_network_is_accepted() {
        let ubg = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let result = build_spanner(&ubg, 0.5).unwrap();
        assert_eq!(result.spanner.node_count(), 0);
    }
}
