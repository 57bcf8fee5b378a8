//! The traced run: each layer's public calls, timed one by one from the
//! benchmark's own code.
//!
//! Peak memory per layer comes from resetting `VmHWM` before the layer's
//! calls and reading it after them.

use crate::probe::{peak_rss_mb, reset_peak_rss};
use crate::report::Metrics;
use crate::workload::{edge_hash, Construction, Workload};
use std::hint::black_box;
use std::time::Instant;
use tc_geometry::{GridIndex, GridScratch, PointAccess, PointStore};
use tc_graph::{mst, par, properties, CsrGraph};
use tc_spanner::relaxed::BinPartition;
use tc_spanner::{DistributedRelaxedGreedy, EdgeWeighting, RelaxedGreedy};

/// Nodes per work item of the ball sweep, as in `UbgBuilder::build_store`.
const SWEEP_CHUNK: usize = 4096;

/// Size of the distributed side instance of the sequential workloads.
const DIST_SIDE_NODES: usize = 5_000;

/// Output hashes of the traced construction, for the traced-vs-untraced
/// check.
pub struct TracedOutput {
    pub ubg_hash: String,
    pub spanner_hash: String,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Node count of the instance the distributed layer is traced on: the
/// workload's own when its construction is distributed, otherwise a side
/// instance of the same shape small enough to build in seconds.
pub fn dist_nodes(wl: &Workload, n: usize) -> usize {
    match wl.construction {
        Construction::Distributed => n,
        Construction::Sequential => DIST_SIDE_NODES.min(n),
    }
}

/// Runs every layer of the pipeline once on `store` and records the
/// per-layer metrics; `build_s` is the untraced median.
pub fn traced_run(
    wl: &Workload,
    seed: u64,
    store: &PointStore,
    build_s: f64,
    out: &mut Metrics,
) -> TracedOutput {
    let params = wl.params();
    let n = store.len();

    // tc-geometry: the grid and the radius-1 ball sweep the UBG build runs.
    reset_peak_rss();
    let (grid, grid_build_s) = timed(|| GridIndex::build(store, 1.0));
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(SWEEP_CHUNK)
        .map(|start| (start, (start + SWEEP_CHUNK).min(n)))
        .collect();
    let (pairs, ball_sweep_s) = timed(|| {
        par::par_map_with(&chunks, 0, GridScratch::new, |scratch, _, &(start, end)| {
            let mut pairs = 0usize;
            for u in start..end {
                let hits = grid.neighbors_within_with(store, u, 1.0, scratch);
                pairs += hits.iter().filter(|&&v| v > u).count();
            }
            pairs
        })
        .into_iter()
        .sum::<usize>()
    });
    drop(grid);
    out.add("geometry.grid_build_s", grid_build_s, "s");
    out.add("geometry.ball_sweep_s", ball_sweep_s, "s");
    out.add("geometry.candidate_pairs", pairs as f64, "count");

    // tc-ubg: the builder end to end.
    let points = store.clone();
    reset_peak_rss();
    let (ubg, ubg_build_s) = timed(|| wl.builder(seed).build_store(points));
    let ubg_edges = ubg.graph().edge_count();
    out.add("ubg.build_s", ubg_build_s, "s");
    out.add("ubg.edges", ubg_edges as f64, "count");
    out.add(
        "ubg.edge_yield",
        ubg_edges as f64 / pairs.max(1) as f64,
        "ratio",
    );
    out.add("ubg.peak_rss_mb", peak_rss_mb(), "MB");

    // tc-spanner::relaxed: weighting, bins, then the phase loop with its
    // per-phase, per-step timings.
    reset_peak_rss();
    let weighting = EdgeWeighting::Euclidean;
    let (graph, weighting_s) = timed(|| weighting.weighted_graph(&ubg));
    let w0 = weighting.weight_of_distance(params.alpha) / n.max(1) as f64;
    let (bins, bins_s) = timed(|| BinPartition::new(&graph, w0, params.r));
    drop(bins);
    let ((result, timings), spanner_s) = timed(|| {
        RelaxedGreedy::new(params)
            .run_on_timed(ubg.points(), &graph)
            .expect("the UBG's own points match its graph")
    });
    let relaxed_peak = peak_rss_mb();
    let sum = |f: fn(&tc_spanner::relaxed::PhaseTiming) -> f64| timings.iter().map(f).sum::<f64>();
    let count =
        |f: fn(&tc_spanner::PhaseStats) -> usize| result.phases.iter().map(f).sum::<usize>() as f64;
    let long_phases = || result.phases.iter().filter(|p| p.bin > 0);
    let filtered: usize = long_phases()
        .map(|p| p.covered_edges + p.same_cluster_edges)
        .sum();
    let long_bin_edges: usize = long_phases().map(|p| p.edges_in_bin).sum();
    let query_edges = count(|p| p.query_edges);
    let added_edges = count(|p| p.added_edges);
    out.add("relaxed.weighting_s", weighting_s, "s");
    out.add("relaxed.bins_s", bins_s, "s");
    out.add("relaxed.spanner_s", spanner_s, "s");
    out.add(
        "relaxed.unattributed_s",
        spanner_s - sum(|t| t.seconds),
        "s",
    );
    out.add("relaxed.cover_s", sum(|t| t.cover_seconds), "s");
    out.add("relaxed.selection_s", sum(|t| t.selection_seconds), "s");
    out.add("relaxed.h_build_s", sum(|t| t.h_build_seconds), "s");
    out.add("relaxed.query_s", sum(|t| t.query_seconds), "s");
    out.add("relaxed.redundant_s", sum(|t| t.redundant_seconds), "s");
    let slowest = timings.iter().map(|t| t.seconds).fold(0.0, f64::max);
    out.add("relaxed.slowest_phase_s", slowest, "s");
    out.add("relaxed.phases", result.phases.len() as f64, "count");
    out.add("relaxed.clusters", count(|p| p.clusters), "count");
    out.add("relaxed.query_edges", query_edges, "count");
    out.add("relaxed.added_edges", added_edges, "count");
    out.add(
        "relaxed.removed_redundant",
        count(|p| p.removed_redundant),
        "count",
    );
    out.add(
        "relaxed.query_yield",
        added_edges / query_edges.max(1.0),
        "ratio",
    );
    out.add(
        "relaxed.filter_ratio",
        filtered as f64 / long_bin_edges.max(1) as f64,
        "ratio",
    );
    out.add("relaxed.peak_rss_mb", relaxed_peak, "MB");

    // tc-graph: the three parts of `verify_spanner`.
    reset_peak_rss();
    let ((base_csr, spanner_csr), csr_freeze_s) =
        timed(|| (CsrGraph::from(ubg.graph()), CsrGraph::from(&result.spanner)));
    let (_, stretch_sweep_s) = timed(|| properties::edge_stretches(&base_csr, &spanner_csr));
    let (_, mst_s) = timed(|| mst::mst_weight(&base_csr));
    out.add("graph.csr_freeze_s", csr_freeze_s, "s");
    out.add("graph.stretch_sweep_s", stretch_sweep_s, "s");
    out.add("graph.mst_s", mst_s, "s");
    out.add("graph.peak_rss_mb", peak_rss_mb(), "MB");
    drop((base_csr, spanner_csr));

    // tc-spanner::distributed + tc-simnet.
    let side;
    let dist_ubg = match wl.construction {
        Construction::Distributed => &ubg,
        Construction::Sequential => {
            side = wl
                .builder(seed)
                .build_store(wl.deployment(dist_nodes(wl, n), seed));
            &side
        }
    };
    let (dist, dist_spanner_s) = timed(|| DistributedRelaxedGreedy::new(params).run(dist_ubg));
    let step_rounds = |step: &str| -> usize {
        dist.ledger
            .entries()
            .filter(|(label, _)| label.split_once('/').is_some_and(|(_, s)| s == step))
            .map(|(_, stats)| stats.rounds)
            .sum()
    };
    let cover_mis = step_rounds("cover/mis");
    let redundant_mis = step_rounds("redundant/mis");
    let max_per_node = dist
        .ledger
        .entries()
        .map(|(_, stats)| stats.max_messages_per_node_round)
        .max()
        .unwrap_or(0);
    out.add("dist.spanner_s", dist_spanner_s, "s");
    out.add("dist.cover_mis_rounds", cover_mis as f64, "count");
    out.add("dist.redundant_mis_rounds", redundant_mis as f64, "count");
    out.add(
        "dist.hop_rounds",
        (dist.rounds - cover_mis - redundant_mis) as f64,
        "count",
    );
    out.add("dist.normalized_rounds", dist.normalized_rounds(), "ratio");
    out.add("dist.messages", dist.messages as f64, "count");
    out.add(
        "dist.max_messages_per_node_round",
        max_per_node as f64,
        "count",
    );

    // The traced equivalent of the untraced construction, minus its median.
    let (spanner_hash, traced_build_s) = match wl.construction {
        Construction::Sequential => (
            edge_hash(&result.spanner),
            ubg_build_s + weighting_s + spanner_s,
        ),
        Construction::Distributed => (
            edge_hash(&dist.result.spanner),
            ubg_build_s + dist_spanner_s,
        ),
    };
    out.add("bench.trace_overhead_s", traced_build_s - build_s, "s");

    TracedOutput {
        ubg_hash: edge_hash(ubg.graph()),
        spanner_hash,
    }
}
