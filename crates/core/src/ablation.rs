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
//! ablation experiment (bench target `ablation`) can quantify what each
//! one buys: how the spanner size, degree, weight and stretch move when a
//! mechanism is removed. Every variant still produces a valid
//! `t`-spanner — the mechanisms only affect sparsity, degree, weight and
//! round complexity, never correctness of the stretch bound (disabling
//! the cluster graph can only make queries more accurate; disabling a
//! filter can only add edges).

use crate::params::SpannerParams;
use crate::relaxed::{
    build_cluster_graph, is_covered, sequential_redundant_removals, BinPartition, ClusterCover,
    PhaseStats, PointCountMismatch, RelaxedGreedy, SpannerResult,
};
use crate::weighting::EdgeWeighting;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tc_geometry::PointAccess;
use tc_graph::{dijkstra, Edge, WeightedGraph};
use tc_ubg::UnitBallGraph;

/// Which mechanisms of the relaxed greedy construction are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// [`AblationConfig::full`] is the paper's pipeline with every step
/// recomputed from scratch each phase — per-phase [`ClusterCover::greedy`]
/// and [`build_cluster_graph`] — i.e. the reference oracle the production
/// path's hierarchical phase engine (`relaxed::hierarchy`) is gated
/// against. The engine reuses covers across phase levels and answers
/// queries on a contracted cluster graph, so its output may differ edge
/// for edge; both satisfy the paper's stretch/degree/weight invariants
/// (see the equivalence tests here and `tests/paper_claims.rs`).
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
pub fn run_ablation_on<P: PointAccess + ?Sized>(
    points: &P,
    graph: &WeightedGraph,
    params: SpannerParams,
    weighting: EdgeWeighting,
    config: AblationConfig,
) -> Result<SpannerResult, PointCountMismatch> {
    let n = graph.node_count();
    if points.len() != n {
        return Err(PointCountMismatch {
            points: points.len(),
            nodes: n,
        });
    }
    let mut phases = Vec::new();
    let mut spanner = WeightedGraph::new(n);
    if n == 0 || graph.is_edgeless() {
        return Ok(SpannerResult {
            spanner,
            params,
            weighting,
            phases,
        });
    }
    let w0 = weighting.weight_of_distance(params.alpha) / n as f64;
    let bins = BinPartition::new(graph, w0, params.r);

    for bin_index in bins.non_empty_bins() {
        let bin_edges = bins.bin(bin_index);
        if bin_index == 0 {
            phases.push(RelaxedGreedy::new(params).process_short_edges(
                &mut spanner,
                bin_edges,
                &bins,
            ));
            continue;
        }

        let w_prev = bins.upper(bin_index - 1);
        let radius = params.delta * w_prev;
        let cover = ClusterCover::greedy(&spanner, radius);

        // Query-edge selection under the configured mechanisms.
        let mut covered_count = 0;
        let mut same_cluster = 0;
        let mut candidates = 0;
        let mut query_edges: Vec<Edge> = Vec::new();
        let mut best: BTreeMap<(usize, usize), (f64, Edge)> = BTreeMap::new();
        for edge in bin_edges {
            let ca = cover.cluster_of(edge.u);
            let cb = cover.cluster_of(edge.v);
            if ca == cb {
                same_cluster += 1;
                continue;
            }
            if config.covered_filter && is_covered(points, &params, weighting, &spanner, edge) {
                covered_count += 1;
                continue;
            }
            candidates += 1;
            if config.per_cluster_pair {
                let objective = params.t * edge.weight
                    - cover.dist_to_center(edge.u)
                    - cover.dist_to_center(edge.v);
                let key = if ca < cb { (ca, cb) } else { (cb, ca) };
                match best.get(&key) {
                    Some((current, _)) if *current <= objective => {}
                    _ => {
                        best.insert(key, (objective, *edge));
                    }
                }
            } else {
                query_edges.push(*edge);
            }
        }
        if config.per_cluster_pair {
            query_edges.extend(best.into_values().map(|(_, e)| e));
            query_edges.sort();
        }

        // The cluster graph is only built when some step needs it.
        let h = if config.cluster_graph_queries || config.redundancy_removal {
            Some(build_cluster_graph(&spanner, &cover, w_prev, params.delta).0)
        } else {
            None
        };

        // Query answering.
        let mut added: Vec<Edge> = Vec::new();
        for edge in &query_edges {
            let budget = params.t * edge.weight;
            let query_graph: &WeightedGraph = match (config.cluster_graph_queries, &h) {
                (true, Some(h_ref)) => h_ref,
                _ => &spanner,
            };
            if dijkstra::shortest_path_within(query_graph, edge.u, edge.v, budget).is_none() {
                added.push(*edge);
            }
        }
        for e in &added {
            spanner.add(*e);
        }

        // Redundancy removal.
        let removals = match (config.redundancy_removal, &h) {
            (true, Some(h_ref)) => sequential_redundant_removals(&added, h_ref, params.t1),
            _ => Vec::new(),
        };
        for &idx in &removals {
            let e = added[idx];
            let _ = spanner.remove_edge(e.u, e.v);
        }

        phases.push(PhaseStats {
            bin: bin_index,
            bin_upper: bins.upper(bin_index),
            edges_in_bin: bin_edges.len(),
            clusters: cover.cluster_count(),
            covered_edges: covered_count,
            same_cluster_edges: same_cluster,
            candidate_edges: candidates,
            query_edges: query_edges.len(),
            added_edges: added.len(),
            removed_redundant: removals.len(),
        });
    }

    Ok(SpannerResult {
        spanner,
        params,
        weighting,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relaxed::RelaxedGreedy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, UbgBuilder};

    fn sample(seed: u64, n: usize) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, 2.5);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    fn params() -> SpannerParams {
        SpannerParams::for_epsilon(0.5, 1.0).unwrap()
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
    fn full_config_is_paper_equivalent_to_the_production_engine() {
        // The production path runs the hierarchical phase engine (frozen
        // level covers, contracted cluster graphs), the full ablation the
        // per-phase oracle pipeline. Their outputs may differ edge for
        // edge, but both must be valid t-spanners of comparable size —
        // the paper-invariant gate for the engine.
        for seed in [1, 4, 11] {
            let ubg = sample(seed, 90);
            let engine = RelaxedGreedy::new(params()).run(&ubg);
            let oracle = run_ablation(&ubg, params(), AblationConfig::full());
            for result in [&engine, &oracle] {
                let stretch = stretch_factor(ubg.graph(), &result.spanner);
                assert!(stretch <= params().t + 1e-9, "stretch {stretch}");
            }
            let (a, b) = (
                engine.spanner.edge_count() as f64,
                oracle.spanner.edge_count() as f64,
            );
            assert!(
                a <= 1.25 * b && b <= 1.25 * a,
                "engine kept {a} edges, oracle {b} — not comparable"
            );
        }
    }

    #[test]
    fn every_variant_still_meets_the_stretch_target() {
        let ubg = sample(2, 80);
        for (name, config) in AblationConfig::named_variants() {
            let result = run_ablation(&ubg, params(), config);
            let stretch = stretch_factor(ubg.graph(), &result.spanner);
            assert!(
                stretch <= params().t + 1e-9,
                "variant {name} broke the stretch bound: {stretch}"
            );
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
