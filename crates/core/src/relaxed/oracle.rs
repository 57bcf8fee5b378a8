//! The per-phase-rescan pipeline: Section 2.2's phase taken literally, the
//! oracle the hierarchical phase engine is checked against.
//!
//! Every phase builds a fresh greedy cover of the whole partial spanner,
//! selects the query edges, builds the full cluster graph `H_{i-1}`
//! (condition (i) centre edges included), answers each query with a
//! Dijkstra on `H`, and removes mutually redundant edges with the dense
//! analysis. That costs `Θ(n)` per phase, which is why the constructions
//! run the engine instead; its output may differ from the engine's edge
//! for edge (the engine freezes covers per level and drops condition
//! (i)), but both must meet the paper's guarantees.

use super::cluster_graph::build_cluster_graph;
use super::cover::Level;
use super::redundant::sequential_redundant_removals;
use super::{select_query_edges, BinPartition, RelaxedGreedy};
use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use crate::weighting::EdgeWeighting;
use tc_graph::{dijkstra, Edge, NodeOrder, WeightedGraph};
use tc_ubg::UnitBallGraph;

/// The spanner the per-phase-rescan pipeline builds on `ubg` under the
/// Euclidean weighting.
pub(crate) fn per_phase_rescan(ubg: &UnitBallGraph, params: SpannerParams) -> WeightedGraph {
    let graph = EdgeWeighting::Euclidean.weighted_graph(ubg);
    let points = ubg.points();
    let n = graph.node_count();
    let mut spanner = WeightedGraph::new(n);
    if n == 0 || graph.is_edgeless() {
        return spanner;
    }
    let w0 = EdgeWeighting::Euclidean.weight_of_distance(params.alpha) / n as f64;
    let bins = BinPartition::new(&graph, w0, params.r);
    let order = NodeOrder::identity(n);
    for bin_index in bins.non_empty_bins() {
        let bin_edges = bins.bin(bin_index);
        if bin_index == 0 {
            RelaxedGreedy::new(params).process_short_edges(&mut spanner, bin_edges, &bins, &order);
            continue;
        }
        let w_prev = bins.upper(bin_index - 1);
        let level = Level::greedy(&spanner, params.delta * w_prev);
        let selection = select_query_edges(
            points,
            &params,
            &spanner,
            &level.contraction,
            bin_edges,
            &AblationConfig::full(),
        );
        let (h, _) = build_cluster_graph(&spanner, &level, w_prev, params.delta);
        let added: Vec<Edge> = selection
            .query_edges
            .into_iter()
            .filter(|e| dijkstra::shortest_path_within(&h, e.u, e.v, params.t * e.weight).is_none())
            .collect();
        for e in &added {
            spanner.add(*e);
        }
        for idx in sequential_redundant_removals(&added, &h, params.t1) {
            let e = added[idx];
            let _ = spanner.remove_edge(e.u, e.v);
        }
    }
    spanner
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, UbgBuilder};

    #[test]
    fn the_engine_is_paper_equivalent_to_the_per_phase_rescan_oracle() {
        // The engine (frozen level covers, contracted cluster graphs) and
        // the oracle may differ edge for edge, but both must be valid
        // t-spanners of comparable size — the paper-invariant gate for the
        // engine.
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        for seed in [1, 4, 11] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let points = generators::uniform_points(&mut rng, 90, 2, 2.5);
            let ubg = UbgBuilder::unit_disk().build(points).unwrap();
            let engine = RelaxedGreedy::new(params).run(&ubg).spanner;
            let oracle = per_phase_rescan(&ubg, params);
            for spanner in [&engine, &oracle] {
                let stretch = stretch_factor(ubg.graph(), spanner);
                assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
            }
            let (a, b) = (engine.edge_count() as f64, oracle.edge_count() as f64);
            assert!(
                a <= 1.25 * b && b <= 1.25 * a,
                "engine kept {a} edges, oracle {b} — not comparable"
            );
        }
    }
}
