//! Energy spanners and the power-cost measure (Section 1.6, extensions
//! 2 and 3).
//!
//! Extension 2: running the relaxed greedy algorithm with edge weights
//! `c·|uv|^γ` instead of `|uv|` yields a `t`-spanner under that metric —
//! an *energy spanner*, since `|uv|^γ` models the transmission energy of
//! the link for a path-loss exponent `γ`.
//!
//! Extension 3: the *power cost* of a graph is
//! `Σ_u max_{v ∈ N(u)} w(u, v)` — the total transmission power needed when
//! every node transmits just far enough to reach its farthest chosen
//! neighbour. The paper claims the spanner is lightweight under this
//! measure as well; [`power_cost_comparison`] measures it.

use crate::params::SpannerParams;
use crate::relaxed::{RelaxedGreedy, SpannerResult};
use crate::weighting::EdgeWeighting;
use serde::Serialize;
use tc_ubg::UnitBallGraph;

/// Builds an energy spanner: a `(1+ε)`-spanner of the α-UBG under the
/// metric `c·|uv|^γ`.
///
/// # Errors
///
/// Returns a parameter error if `epsilon` or the UBG's `α` is out of range.
///
/// # Panics
///
/// Panics if `c ≤ 0` or `gamma < 1` (the preconditions of the metric).
pub fn energy_spanner(
    ubg: &UnitBallGraph,
    epsilon: f64,
    c: f64,
    gamma: f64,
) -> Result<SpannerResult, crate::params::ParamError> {
    assert!(c > 0.0, "the constant c must be positive");
    assert!(gamma >= 1.0, "the path-loss exponent must be at least 1");
    let params = SpannerParams::for_epsilon(epsilon, ubg.alpha())?;
    Ok(RelaxedGreedy::new(params)
        .with_weighting(EdgeWeighting::Power { c, gamma })
        .run(ubg))
}

/// Power costs of the full topology versus a selected subgraph, under the
/// energy metric `c·d^γ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerCostComparison {
    /// Power cost of the maximum-power topology (the full α-UBG).
    pub full_topology: f64,
    /// Power cost of the spanner.
    pub spanner: f64,
    /// `spanner / full_topology` (1.0 when both are zero).
    pub ratio: f64,
}

/// Measures the power cost (extension 3) of the spanner against the full
/// topology, both weighted by `c·d^γ`.
pub fn power_cost_comparison(
    ubg: &UnitBallGraph,
    spanner: &tc_graph::WeightedGraph,
    c: f64,
    gamma: f64,
) -> PowerCostComparison {
    let weighting = EdgeWeighting::Power { c, gamma };
    let full = weighting.weighted_graph(ubg).power_cost();
    // Re-weight the spanner's edges under the energy metric (its stored
    // weights may be Euclidean).
    let mut spanner_energy = tc_graph::WeightedGraph::new(spanner.node_count());
    for e in spanner.edges() {
        spanner_energy.add_edge(e.u, e.v, weighting.weight(&ubg.point(e.u), &ubg.point(e.v)));
    }
    let sp = spanner_energy.power_cost();
    let ratio = if full == 0.0 {
        if sp == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        sp / full
    };
    PowerCostComparison {
        full_topology: full,
        spanner: sp,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, UbgBuilder};

    fn sample_ubg(seed: u64, n: usize) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, 2.5);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    #[test]
    fn energy_spanner_meets_its_stretch_in_the_energy_metric() {
        let ubg = sample_ubg(31, 70);
        let result = energy_spanner(&ubg, 0.5, 1.0, 2.0).unwrap();
        let energy_base = EdgeWeighting::Power { c: 1.0, gamma: 2.0 }.weighted_graph(&ubg);
        let stretch = stretch_factor(&*energy_base, &result.spanner);
        assert!(stretch <= 1.5 + 1e-9, "energy stretch {stretch}");
    }

    #[test]
    fn energy_spanner_rejects_bad_epsilon() {
        let ubg = sample_ubg(32, 20);
        assert!(energy_spanner(&ubg, 0.0, 1.0, 2.0).is_err());
    }

    #[test]
    #[should_panic(expected = "path-loss exponent")]
    fn energy_spanner_rejects_small_gamma() {
        let ubg = sample_ubg(33, 10);
        let _ = energy_spanner(&ubg, 0.5, 1.0, 0.5);
    }

    #[test]
    fn power_cost_of_spanner_is_at_most_full_topology() {
        let ubg = sample_ubg(34, 80);
        let result = energy_spanner(&ubg, 1.0, 1.0, 2.0).unwrap();
        let cmp = power_cost_comparison(&ubg, &result.spanner, 1.0, 2.0);
        assert!(cmp.spanner <= cmp.full_topology + 1e-9);
        assert!(cmp.ratio <= 1.0 + 1e-9);
        assert!(cmp.ratio > 0.0);
    }

    #[test]
    fn power_cost_comparison_handles_empty_graphs() {
        let ubg = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let cmp = power_cost_comparison(&ubg, &tc_graph::WeightedGraph::new(0), 1.0, 2.0);
        assert_eq!(cmp.ratio, 1.0);
    }
}
