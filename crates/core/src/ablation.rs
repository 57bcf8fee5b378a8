//! Ablation variants of the relaxed greedy algorithm.
//!
//! The construction combines four design choices whose roles the paper
//! argues for separately:
//!
//! 1. the **covered-edge filter** (Czumaj–Zhao, Section 2.2.2) — needed
//!    for the constant degree bound,
//! 2. **one query edge per cluster pair** (Section 2.2.2) — also needed
//!    for the degree bound and for the `O(1)` queries per node of the
//!    distributed version,
//! 3. answering queries on the **cluster graph** `H_{i-1}` instead of the
//!    exact partial spanner (Section 2.2.3) — needed for `O(1)`-round
//!    query answering; the price is extra edges, bounded via `δ`,
//! 4. **redundant-edge removal** (Section 2.2.5) — needed for the weight
//!    bound.
//!
//! [`AblationConfig`] switches each choice off individually so the
//! ablation experiment (table E9 of the `experiments` binary) can
//! quantify what each one buys: how the spanner size, degree, weight and
//! stretch move when a mechanism is removed. Every variant still
//! produces a valid `t`-spanner — the mechanisms only affect sparsity,
//! degree, weight and round complexity, never correctness of the stretch
//! bound (disabling the cluster graph can only make queries more
//! accurate; disabling a filter can only add edges).
//!
//! The switches are rules of the production phase loop
//! ([`RelaxedGreedy`]'s): the configuration is read once per run, and
//! each disabled mechanism skips its step (or, for the cluster graph,
//! answers each query exactly on the frozen partial spanner `G'_{i-1}`)
//! in every phase. [`AblationConfig::full`] therefore *is* the production
//! construction.

use crate::params::SpannerParams;
use crate::relaxed::{PhaseRules, PointCountMismatch, RelaxedGreedy, SpannerResult};
use crate::weighting::EdgeWeighting;
use serde::Serialize;
use tc_geometry::PointAccess;
use tc_graph::WeightedGraph;
use tc_ubg::UnitBallGraph;

/// Which mechanisms of the relaxed greedy construction are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AblationConfig {
    /// Apply the Czumaj–Zhao covered-edge filter.
    pub covered_filter: bool,
    /// Keep at most one query edge per cluster pair.
    pub per_cluster_pair: bool,
    /// Answer spanner-path queries on the cluster graph `H_{i-1}`
    /// (`false` = answer them exactly on the partial spanner `G'_{i-1}`).
    pub cluster_graph_queries: bool,
    /// Remove mutually redundant edges at the end of each phase.
    pub redundancy_removal: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self::full()
    }
}

impl AblationConfig {
    /// The complete algorithm (everything enabled).
    pub fn full() -> Self {
        Self {
            covered_filter: true,
            per_cluster_pair: true,
            cluster_graph_queries: true,
            redundancy_removal: true,
        }
    }

    /// The named single-mechanism ablations reported by the experiment, in
    /// presentation order, each paired with a label.
    pub fn named_variants() -> Vec<(&'static str, AblationConfig)> {
        vec![
            ("full", Self::full()),
            (
                "no-covered-filter",
                Self {
                    covered_filter: false,
                    ..Self::full()
                },
            ),
            (
                "no-cluster-pair-dedup",
                Self {
                    per_cluster_pair: false,
                    ..Self::full()
                },
            ),
            (
                "exact-queries",
                Self {
                    cluster_graph_queries: false,
                    ..Self::full()
                },
            ),
            (
                "no-redundancy-removal",
                Self {
                    redundancy_removal: false,
                    ..Self::full()
                },
            ),
        ]
    }
}

/// Runs the relaxed greedy construction with the given mechanisms enabled.
///
/// [`AblationConfig::full`] gives exactly [`RelaxedGreedy::run`]'s
/// spanner; the other configurations switch mechanisms off on the same
/// phase loop.
pub fn run_ablation(
    ubg: &UnitBallGraph,
    params: SpannerParams,
    config: AblationConfig,
) -> SpannerResult {
    let weighting = EdgeWeighting::Euclidean;
    let graph = weighting.weighted_graph(ubg);
    // weighted_graph() derives the graph from ubg.points(), so the counts
    // agree by construction.
    run_ablation_on(ubg.points(), &graph, params, weighting, config)
        // tc-lint: allow(panic-hygiene)
        .expect("the UBG's own points match its graph by construction")
}

/// Like [`run_ablation`] but on an explicit (points, weighted graph) pair.
///
/// # Errors
///
/// Returns [`PointCountMismatch`] if `points` does not have exactly one
/// point per graph vertex.
pub fn run_ablation_on<P: PointAccess + Sync + ?Sized>(
    points: &P,
    graph: &WeightedGraph,
    params: SpannerParams,
    weighting: EdgeWeighting,
    config: AblationConfig,
) -> Result<SpannerResult, PointCountMismatch> {
    RelaxedGreedy::new(params)
        .with_weighting(weighting)
        .run_with_rules(points, graph, &mut AblationRules(config), None)
}

/// The sequential rules with some mechanisms switched off.
struct AblationRules(AblationConfig);

impl PhaseRules for AblationRules {
    fn mechanisms(&self) -> AblationConfig {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

    fn sample(seed: u64, n: usize) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, 2.5);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    fn params() -> SpannerParams {
        SpannerParams::for_epsilon(0.5, 1.0).unwrap()
    }

    fn grey_3d_ubg(seed: u64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, 120, 3, 2.5);
        UbgBuilder::new(0.6)
            .grey_zone(GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed,
            })
            .build(points)
            .unwrap()
    }

    /// Every third point has an exact duplicate, so the input carries
    /// zero-weight edges.
    fn duplicate_point_ubg(seed: u64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = generators::uniform_points(&mut rng, 90, 2, 3.0);
        let copies: Vec<_> = points.iter().step_by(3).cloned().collect();
        points.extend(copies);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    /// The uniform, 3D grey-zone and duplicate-point inputs, each with its
    /// parameters (ε = 0.5 at the input's α).
    fn inputs() -> Vec<(&'static str, UnitBallGraph, SpannerParams)> {
        vec![
            ("uniform", sample(2, 80), params()),
            (
                "grey-zone 3d",
                grey_3d_ubg(32),
                SpannerParams::for_epsilon(0.5, 0.6).unwrap(),
            ),
            ("duplicate points", duplicate_point_ubg(33), params()),
        ]
    }

    #[test]
    fn run_ablation_on_rejects_a_point_count_mismatch() {
        let ubg = sample(4, 20);
        let graph = EdgeWeighting::Euclidean.weighted_graph(&ubg);
        let too_few = vec![tc_geometry::Point::new2(0.0, 0.0); 19];
        let err = run_ablation_on(
            too_few.as_slice(),
            &graph,
            params(),
            EdgeWeighting::Euclidean,
            AblationConfig::full(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PointCountMismatch {
                points: 19,
                nodes: 20
            }
        );
    }

    #[test]
    fn full_ablation_is_the_production_spanner() {
        for (name, ubg, params) in inputs() {
            assert!(ubg.graph().edge_count() > 0, "{name}: empty input");
            let production = RelaxedGreedy::new(params).run(&ubg);
            let full = run_ablation(&ubg, params, AblationConfig::full());
            assert_eq!(
                production.spanner.sorted_edges(),
                full.spanner.sorted_edges(),
                "{name}"
            );
            assert_eq!(production.phases, full.phases, "{name}");
        }
    }

    #[test]
    fn every_variant_still_meets_the_stretch_target() {
        for (input, ubg, params) in inputs() {
            for (name, config) in AblationConfig::named_variants() {
                let result = run_ablation(&ubg, params, config);
                let stretch = stretch_factor(ubg.graph(), &result.spanner);
                assert!(
                    stretch <= params.t + 1e-9,
                    "variant {name} broke the stretch bound on {input}: {stretch}"
                );
            }
        }
    }

    #[test]
    fn disabling_filters_keeps_at_least_as_many_edges() {
        let ubg = sample(3, 100);
        let full = run_ablation(&ubg, params(), AblationConfig::full());
        let no_cover = run_ablation(
            &ubg,
            params(),
            AblationConfig {
                covered_filter: false,
                ..AblationConfig::full()
            },
        );
        let no_dedup = run_ablation(
            &ubg,
            params(),
            AblationConfig {
                per_cluster_pair: false,
                ..AblationConfig::full()
            },
        );
        let no_redundancy = run_ablation(
            &ubg,
            params(),
            AblationConfig {
                redundancy_removal: false,
                ..AblationConfig::full()
            },
        );
        assert!(no_cover.spanner.edge_count() >= full.spanner.edge_count());
        assert!(no_dedup.spanner.edge_count() >= full.spanner.edge_count());
        assert!(no_redundancy.spanner.edge_count() >= full.spanner.edge_count());
    }

    #[test]
    fn exact_queries_keep_at_most_as_many_edges() {
        // Answering on the exact partial spanner can only find more paths
        // than the (over-estimating) cluster graph, so it adds fewer edges.
        let ubg = sample(4, 100);
        let full = run_ablation(&ubg, params(), AblationConfig::full());
        let exact = run_ablation(
            &ubg,
            params(),
            AblationConfig {
                cluster_graph_queries: false,
                ..AblationConfig::full()
            },
        );
        assert!(exact.spanner.edge_count() <= full.spanner.edge_count());
        let stretch = stretch_factor(ubg.graph(), &exact.spanner);
        assert!(stretch <= params().t + 1e-9);
    }

    #[test]
    fn named_variants_cover_each_mechanism_exactly_once() {
        let variants = AblationConfig::named_variants();
        assert_eq!(variants.len(), 5);
        assert_eq!(variants[0].1, AblationConfig::full());
        let disabled_counts: Vec<usize> = variants
            .iter()
            .map(|(_, c)| {
                [
                    !c.covered_filter,
                    !c.per_cluster_pair,
                    !c.cluster_graph_queries,
                    !c.redundancy_removal,
                ]
                .iter()
                .filter(|&&x| x)
                .count()
            })
            .collect();
        assert_eq!(disabled_counts, vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn default_config_is_the_full_algorithm() {
        assert_eq!(AblationConfig::default(), AblationConfig::full());
    }

    #[test]
    fn empty_input_is_fine_for_all_variants() {
        let ubg = UbgBuilder::unit_disk().build(vec![]).unwrap();
        for (_, config) in AblationConfig::named_variants() {
            let result = run_ablation(&ubg, params(), config);
            assert_eq!(result.spanner.node_count(), 0);
        }
    }
}
