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
//!   top of `tc-simnet`'s round-synchronous MIS protocols and round
//!   ledger, with full round accounting per phase and step,
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

/// The node order is a pure layout choice: the phase loop and the
/// verifier give the same output, bit for bit, whatever permutation of the
/// nodes they run on — the identity, the breadth-first order production
/// uses, or a random one — on deployments full of identifier ties, for
/// both constructions and both MIS protocols, at one and two workers.
#[cfg(test)]
mod relabel_invariance {
    use crate::relaxed::{RelaxedGreedy, SequentialRules};
    use crate::verify::{verify_in_order, verify_spanner, VerificationReport};
    use crate::{DistributedRelaxedGreedy, MisProtocol, SpannerParams};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Mutex;
    use tc_geometry::Point;
    use tc_graph::par::THREADS_ENV;
    use tc_graph::{NodeOrder, WeightedGraph};
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder, UnitBallGraph};

    /// Serialises the tests that set `TC_THREADS`, a process-wide variable.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` at one and at two workers, restoring `TC_THREADS` afterwards.
    fn at_one_and_two_workers(mut f: impl FnMut()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(THREADS_ENV).ok();
        for threads in ["1", "2"] {
            std::env::set_var(THREADS_ENV, threads);
            f();
        }
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    /// The deployments, each with its parameters: ties in every weight
    /// (lattice), zero-weight edges in phase 0 (duplicated points), dense
    /// blobs, a long thin corridor and a 3D grey zone.
    fn deployments() -> Vec<(&'static str, UnitBallGraph, SpannerParams)> {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let udg = |points: Vec<Point>| UbgBuilder::unit_disk().build(points).unwrap();
        let udg_params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let lattice: Vec<Point> = (0..40)
            .flat_map(|i| (0..40).map(move |j| Point::new2(0.625 * i as f64, 0.625 * j as f64)))
            .collect();
        let base = generators::uniform_points(&mut rng, 400, 2, 7.0);
        let mut duplicated = base.clone();
        for (i, p) in base.iter().enumerate() {
            duplicated.push(p.clone());
            if i % 3 == 0 {
                duplicated.push(p.translated(&[1e-5 * (i % 7) as f64, 1e-5]));
            }
        }
        let clustered = generators::clustered_points(&mut rng, 900, 2, 8.0, 6, 0.6);
        let corridor = generators::corridor_points(&mut rng, 700, 2, 60.0, 1.5);
        let grey_points = generators::uniform_points(&mut rng, 900, 3, 4.0);
        let grey = UbgBuilder::new(0.6)
            .grey_zone(GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed: 9,
            })
            .build(grey_points)
            .unwrap();
        vec![
            ("lattice", udg(lattice), udg_params),
            ("duplicated", udg(duplicated), udg_params),
            ("clustered", udg(clustered), udg_params),
            ("corridor", udg(corridor), udg_params),
            (
                "grey3d",
                grey,
                SpannerParams::for_epsilon(1.0, 0.6).unwrap(),
            ),
        ]
    }

    /// The identity, the breadth-first order and a seeded random
    /// permutation of the nodes of `ubg`.
    fn orders(ubg: &UnitBallGraph) -> Vec<NodeOrder> {
        let n = ubg.len();
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        for i in (1..n).rev() {
            nodes.swap(i, rng.gen_range(0..=i));
        }
        vec![
            NodeOrder::identity(n),
            NodeOrder::breadth_first(ubg.graph()),
            NodeOrder::from_nodes(nodes),
        ]
    }

    /// Every row of `g` in order, weights as bits.
    fn rows(g: &WeightedGraph) -> Vec<Vec<(usize, u64)>> {
        (0..g.node_count())
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .map(|&(v, w)| (v, w.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn constructions_do_not_depend_on_the_node_order() {
        at_one_and_two_workers(|| {
            for (name, ubg, params) in deployments() {
                let graph = ubg.graph();
                let sequential = RelaxedGreedy::new(params);
                let rank = DistributedRelaxedGreedy::new(params);
                let luby = DistributedRelaxedGreedy::new(params)
                    .with_mis_protocol(MisProtocol::Luby { seed: 5 });
                let mut outputs = Vec::new();
                for order in orders(&ubg) {
                    let (seq, _) = sequential
                        .run_in_order(ubg.points(), graph, &mut SequentialRules, &order)
                        .unwrap();
                    let mut runs = vec![(rows(&seq.spanner), format!("{:?}", seq.phases), 0, 0)];
                    for construction in [&rank, &luby] {
                        let out = construction.run_in_order(&ubg, &order);
                        runs.push((
                            rows(&out.result.spanner),
                            format!("{:?}", out.result.phases),
                            out.rounds,
                            out.messages,
                        ));
                    }
                    outputs.push(runs);
                }
                assert!(
                    outputs.windows(2).all(|w| w[0] == w[1]),
                    "{name}: the output depends on the node order"
                );
                if name == "duplicated" {
                    assert!(
                        seq_has_phase0(&sequential, &ubg),
                        "{name}: phase 0 is empty"
                    );
                }
            }
        });
    }

    fn seq_has_phase0(construction: &RelaxedGreedy, ubg: &UnitBallGraph) -> bool {
        let result = construction.run(ubg);
        result
            .phases
            .first()
            .is_some_and(|p| p.bin == 0 && p.added_edges > 0)
    }

    /// Every field of a report, floats as bits.
    fn fields(r: &VerificationReport) -> String {
        let violations: Vec<(usize, usize, u64)> = r
            .violations
            .iter()
            .map(|&(u, v, s)| (u, v, s.to_bits()))
            .collect();
        format!(
            "{} {} {} {} {:?} {} {} {} {}",
            r.t.to_bits(),
            r.stretch.to_bits(),
            r.disconnected_pairs,
            r.stretch_ok,
            violations,
            r.max_degree,
            r.weight_ratio.to_bits(),
            r.spanner_edges,
            r.base_edges
        )
    }

    #[test]
    fn verification_does_not_depend_on_the_node_order() {
        at_one_and_two_workers(|| {
            for (name, ubg, params) in deployments() {
                let spanner = RelaxedGreedy::new(params).run(&ubg).spanner;
                // Drop every third edge (finite violations) and cut the
                // busiest node off (disconnected pairs).
                let mut count = 0;
                let busiest = (0..ubg.len())
                    .max_by_key(|&v| ubg.graph().degree(v))
                    .unwrap();
                let broken = spanner.filter_edges(|e| {
                    count += 1;
                    count % 3 != 0 && !e.touches(busiest)
                });
                let reports: Vec<String> = orders(&ubg)
                    .iter()
                    .map(|order| {
                        let report = verify_in_order(ubg.graph(), &broken, params.t, order);
                        assert!(
                            !report.violations.is_empty() && report.disconnected_pairs > 0,
                            "{name}: the broken spanner must fail both ways"
                        );
                        fields(&report)
                    })
                    .collect();
                assert!(
                    reports.windows(2).all(|w| w[0] == w[1]),
                    "{name}: the report depends on the node order"
                );
                assert_eq!(
                    fields(&verify_spanner(ubg.graph(), &broken, params.t)),
                    reports[0],
                    "{name}: verify_spanner differs from the identity order"
                );
            }
        });
    }
}
