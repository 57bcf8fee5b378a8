//! The sequential relaxed greedy algorithm (Section 2 of the paper).
//!
//! The classical `SEQ-GREEDY` needs a *total* order on the edges and an
//! up-to-date partial spanner for every query — both fatal for a
//! distributed implementation. The relaxed variant keeps correctness while
//! removing both requirements:
//!
//! 1. edges are only *binned* by weight (`E_0, E_1, …`, geometric bins
//!    `W_i = r^i·α/n`) and processed bin by bin in arbitrary order inside
//!    a bin,
//! 2. all spanner-path queries of a bin are answered on a *frozen*
//!    approximation of the partial spanner — the Das–Narasimhan cluster
//!    graph `H_{i-1}` — so the queries of a phase are independent of each
//!    other (lazy updates),
//! 3. a covered-edge filter (Czumaj–Zhao) and a one-query-edge-per-
//!    cluster-pair rule keep the number of queries, and ultimately the
//!    spanner degree, constant per node,
//! 4. mutually redundant edges added in the same phase are pruned through
//!    an MIS of their conflict graph, which the weight bound needs.
//!
//! The phase loop runs every phase `i ≥ 1` as one call of the
//! `hierarchy` engine, steps (i)–(v) end to end: covers are kept frozen
//! across geometric *levels* of phases and rebuilt on the previous
//! level's contraction, and the cluster graph is maintained
//! incrementally as a quotient ([`tc_graph::Contraction`]) that each
//! phase queries in place — it only changes after the phase's queries
//! and redundancy sweeps, so it is the frozen `H_{i-1}` of lazy updating
//! without a per-phase copy. The per-phase cost then tracks the work of
//! the phase's queries instead of `n` — see `docs/PERFORMANCE.md`,
//! "Phase engine". Because nothing a phase reads changes until its
//! redundancy analysis is done, each phase's selection, queries and
//! redundancy sweeps run in one parallel region
//! (`tc_graph::par::region`) on every worker, with per-worker scratch
//! the engine keeps across phases, and every merge in item order — the
//! spanner is the same bit for bit at any `TC_THREADS`.
//! No construction builds `H` itself: the per-phase-rescan pipeline that
//! does (a fresh greedy cover, the full cluster graph and the dense
//! redundancy analysis in every phase) is test code, the oracle the
//! engine is checked against.
//!
//! Every construction runs this one phase loop and differs only in its
//! phase rules (`PhaseRules`). The distributed algorithm
//! ([`DistributedRelaxedGreedy`](crate::DistributedRelaxedGreedy)) picks
//! a level rebuild's cluster centres and the conflict graph's MIS by
//! message passing and charges its round ledger after every phase; the
//! ablation ([`run_ablation`](crate::run_ablation)) switches mechanisms
//! of Section 2.2 off ([`AblationConfig`]).

mod bins;
#[cfg(test)]
mod cluster_graph;
mod cover;
mod hierarchy;
#[cfg(test)]
mod oracle;
mod query;
mod redundant;

pub use bins::BinPartition;

use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use crate::seq_greedy::seq_greedy;
use crate::weighting::EdgeWeighting;
pub(crate) use cover::Level;
use hierarchy::PhaseEngine;
use serde::Serialize;
use std::fmt;
use std::time::Instant;
use tc_geometry::PointAccess;
use tc_graph::{components, mis, par, CsrGraph, Edge, NodeId, NodeOrder, WeightedGraph};
use tc_ubg::UnitBallGraph;

/// The `points` slice handed to a construction does not have one point per
/// graph vertex.
///
/// Returned by [`RelaxedGreedy::run_on`] (and the distributed
/// counterpart); [`RelaxedGreedy::run`] cannot hit it because it derives
/// the graph from the UBG's own points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointCountMismatch {
    /// Number of points supplied.
    pub points: usize,
    /// Number of vertices in the graph.
    pub nodes: usize,
}

impl fmt::Display for PointCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points supplied for a graph with {} vertices; \
             one point per graph vertex is required",
            self.points, self.nodes
        )
    }
}

impl std::error::Error for PointCountMismatch {}

/// Wall-clock duration of one construction phase and of its steps.
///
/// Timing is reported *beside* [`PhaseStats`], never inside it: the stats
/// (and everything else in [`SpannerResult`]) are part of the deterministic
/// construction output, which must be bitwise identical across runs and
/// thread counts — wall-clock readings are not.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseTiming {
    /// Bin index `i` the timed phase processed.
    pub bin: usize,
    /// Wall-clock seconds the whole phase took, its rules' bookkeeping
    /// included; at least the sum of the step fields.
    pub seconds: f64,
    /// Step (i): cluster-cover preparation (0 when the engine reused the
    /// frozen level, and for phase 0).
    pub cover_seconds: f64,
    /// Step (ii): query-edge selection (0 for phase 0).
    pub selection_seconds: f64,
    /// Step (iii): readying the cluster graph `H_{i-1}` for the phase's
    /// queries (0 for phase 0). The quotient is queried in place, so this
    /// only derives its bucket configuration from running statistics and
    /// is ≈ 0; the field stays so per-step records keep one column per
    /// paper step.
    pub h_build_seconds: f64,
    /// Step (iv): answering the spanner-path queries (0 for phase 0).
    pub query_seconds: f64,
    /// Step (v): redundant-edge analysis, the conflict MIS, the spanner
    /// update and the quotient absorption (0 for phase 0).
    pub redundant_seconds: f64,
}

impl PhaseTiming {
    /// A zeroed timing record for bin `bin`.
    pub fn for_bin(bin: usize) -> Self {
        Self {
            bin,
            seconds: 0.0,
            cover_seconds: 0.0,
            selection_seconds: 0.0,
            h_build_seconds: 0.0,
            query_seconds: 0.0,
            redundant_seconds: 0.0,
        }
    }
}

/// Per-phase statistics of a relaxed-greedy run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseStats {
    /// Bin index `i` this phase processed.
    pub bin: usize,
    /// Upper weight threshold `W_i` of the bin.
    pub bin_upper: f64,
    /// Number of edges in the bin.
    pub edges_in_bin: usize,
    /// Number of clusters of the cover of `G'_{i-1}` (0 for phase 0).
    pub clusters: usize,
    /// Edges filtered out by the covered-edge test.
    pub covered_edges: usize,
    /// Edges whose endpoints share a cluster (implicitly satisfied).
    pub same_cluster_edges: usize,
    /// Candidate edges surviving the filters.
    pub candidate_edges: usize,
    /// Query edges actually asked (≤ one per cluster pair).
    pub query_edges: usize,
    /// Edges added to the spanner this phase (before redundancy removal).
    pub added_edges: usize,
    /// Edges removed again as mutually redundant.
    pub removed_redundant: usize,
}

/// The output of a relaxed-greedy construction.
#[derive(Debug, Clone)]
pub struct SpannerResult {
    /// The constructed spanner (same vertex set as the input).
    pub spanner: WeightedGraph,
    /// The parameters the construction ran with.
    pub params: SpannerParams,
    /// The weighting the construction ran under.
    pub weighting: EdgeWeighting,
    /// Per-phase statistics, in processing order (only non-empty bins
    /// appear).
    pub phases: Vec<PhaseStats>,
}

impl SpannerResult {
    /// Number of phases that actually processed edges.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

/// The variant rules of a construction on the shared phase loop. The
/// defaults are the sequential rules (Section 2); a construction
/// overrides what differs. Every hook runs once per run, per phase or per
/// level rebuild, never per edge.
pub(crate) trait PhaseRules {
    /// The Section 2.2 mechanisms the run uses, read once before the
    /// phase loop. Only the ablation switches any of them off.
    fn mechanisms(&self) -> AblationConfig {
        AblationConfig::full()
    }

    /// Step (i) at a level rebuild (see `PhaseEngine::prepare`): greedy,
    /// offering the previous level's centres (`prev` marks them by
    /// original ID) centre-hood first, so new clusters are unions of old
    /// ones wherever the radii allow. `graph` is numbered by the positions
    /// of `order`, and every identifier tie is broken by original ID.
    fn level_cover(
        &mut self,
        graph: &WeightedGraph,
        radius: f64,
        prev: &[bool],
        order: &NodeOrder,
    ) -> Level {
        Level::greedy_with_candidates(graph, radius, prev, order)
    }

    /// Step (v): a maximal independent set of a non-trivial conflict
    /// graph of mutually redundant edges.
    fn conflict_mis(&mut self, conflict_graph: &CsrGraph) -> Vec<NodeId> {
        mis::greedy_mis(conflict_graph)
    }

    /// Called after every phase with its statistics.
    fn phase_done(&mut self, _bins: &BinPartition, _stats: &PhaseStats) {}
}

/// The sequential construction's rules: the defaults.
pub(crate) struct SequentialRules;

impl PhaseRules for SequentialRules {}

/// The sequential relaxed greedy spanner construction.
///
/// # Example
///
/// ```
/// use tc_spanner::{RelaxedGreedy, SpannerParams};
/// use tc_ubg::{generators, UbgBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let points = generators::uniform_points(&mut rng, 60, 2, 3.0);
/// let ubg = UbgBuilder::unit_disk().build(points).unwrap();
/// let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
/// let result = RelaxedGreedy::new(params).run(&ubg);
/// assert!(result.spanner.edge_count() <= ubg.graph().edge_count());
/// ```
#[derive(Debug, Clone)]
pub struct RelaxedGreedy {
    params: SpannerParams,
    weighting: EdgeWeighting,
}

impl RelaxedGreedy {
    /// Creates a construction with the given (validated) parameters and the
    /// Euclidean weighting.
    pub fn new(params: SpannerParams) -> Self {
        Self {
            params,
            weighting: EdgeWeighting::Euclidean,
        }
    }

    /// Selects the edge weighting (e.g. the power metric for energy
    /// spanners).
    pub fn with_weighting(mut self, weighting: EdgeWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &SpannerParams {
        &self.params
    }

    /// The configured weighting.
    pub fn weighting(&self) -> EdgeWeighting {
        self.weighting
    }

    /// Runs the construction on a realised α-UBG.
    pub fn run(&self, ubg: &UnitBallGraph) -> SpannerResult {
        let graph = self.weighting.weighted_graph(ubg);
        // weighted_graph() derives the graph from ubg.points(), so the
        // counts agree by construction.
        self.run_on(ubg.points(), &graph)
            // tc-lint: allow(panic-hygiene)
            .expect("the UBG's own points match its graph by construction")
    }

    /// Runs the construction on an explicit (points, weighted graph) pair.
    /// The graph's weights must be consistent with the configured
    /// weighting applied to the points; [`RelaxedGreedy::run`] guarantees
    /// this, tests may construct their own inputs.
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on<P: PointAccess + Sync + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<SpannerResult, PointCountMismatch> {
        let (result, _) = self.run_with_rules(points, graph, &mut SequentialRules)?;
        Ok(result)
    }

    /// [`RelaxedGreedy::run_on`] with per-phase wall-clock timings (for
    /// the scale harness; see [`PhaseTiming`] for why timings live outside
    /// [`SpannerResult`]).
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on_timed<P: PointAccess + Sync + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<(SpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
        self.run_with_rules(points, graph, &mut SequentialRules)
    }

    /// The phase loop every construction runs: phase 0, then steps
    /// (i)–(v) of every non-empty bin, with `rules` supplying the
    /// construction's variant steps; returns the result and one timing
    /// per phase, in phase order. The loop runs on the nodes renumbered
    /// in the breadth-first [`NodeOrder`] of `graph`, so each step's
    /// neighbourhoods sit close together in memory (see
    /// `docs/PERFORMANCE.md`, "Node order"); the result is in the caller's
    /// IDs and does not depend on the order.
    pub(crate) fn run_with_rules<P: PointAccess + Sync + ?Sized, R: PhaseRules>(
        &self,
        points: &P,
        graph: &WeightedGraph,
        rules: &mut R,
    ) -> Result<(SpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
        let order = NodeOrder::breadth_first(graph);
        self.run_in_order(points, graph, rules, &order)
    }

    /// [`Self::run_with_rules`] on the nodes renumbered by `order`, which
    /// may be any permutation: the spanner, the phase statistics and
    /// everything `rules` sees are the same for every order. Every step
    /// runs on positions and breaks identifier ties by original ID — the
    /// bins keep `Edge`'s order and orientation on the original IDs, the
    /// covers take candidates in original-ID order — and the spanner is
    /// mapped back at the end.
    pub(crate) fn run_in_order<P: PointAccess + Sync + ?Sized, R: PhaseRules>(
        &self,
        points: &P,
        graph: &WeightedGraph,
        rules: &mut R,
        order: &NodeOrder,
    ) -> Result<(SpannerResult, Vec<PhaseTiming>), PointCountMismatch> {
        let n = graph.node_count();
        if points.len() != n {
            return Err(PointCountMismatch {
                points: points.len(),
                nodes: n,
            });
        }
        let mut phases = Vec::new();
        let mut timings = Vec::new();
        let mut spanner = WeightedGraph::new(n);
        // The block's end frees the bins, which alone hold every edge,
        // before the rows move.
        if n > 0 && !graph.is_edgeless() {
            let points = OrderedPoints::gather(points, order);
            let w0 = self.weighting.weight_of_distance(self.params.alpha) / n as f64;
            let bins = BinPartition::in_order(graph, w0, self.params.r, order);
            let mut engine = PhaseEngine::new(
                par::thread_count(0),
                order,
                &points,
                &self.params,
                rules.mechanisms(),
            );
            for bin_index in bins.non_empty_bins() {
                let start = Instant::now();
                let (stats, mut timing) = if bin_index == 0 {
                    let stats = self.process_short_edges(&mut spanner, bins.bin(0), &bins, order);
                    (stats, PhaseTiming::for_bin(0))
                } else {
                    engine.run_phase(&mut spanner, &bins, bin_index, rules)
                };
                rules.phase_done(&bins, &stats);
                timing.seconds = start.elapsed().as_secs_f64();
                phases.push(stats);
                timings.push(timing);
            }
        }
        let result = SpannerResult {
            spanner: in_original_ids(spanner, order),
            params: self.params,
            weighting: self.weighting,
            phases,
        };
        Ok((result, timings))
    }

    /// Phase 0 (Section 2.1): the graph `G_0` of short edges has clique
    /// components (Lemma 1); run `SEQ-GREEDY` on each component and keep
    /// the union. `spanner` and `bin_edges` are numbered by the positions
    /// of `order`; `G_0` is built in the original IDs, so its components
    /// and every `SEQ-GREEDY` tie follow them.
    pub(crate) fn process_short_edges(
        &self,
        spanner: &mut WeightedGraph,
        bin_edges: &[Edge],
        bins: &BinPartition,
        order: &NodeOrder,
    ) -> PhaseStats {
        let n = spanner.node_count();
        let g0 = WeightedGraph::from_edges(n, bin_edges.iter().map(|&e| order.edge_to_nodes(e)));
        // The sweep is over G_0 (short edges only), whose components are
        // cliques of 1-hop neighbourhoods (Lemma 1) — global on a graph
        // that is itself local, not on the input.
        // tc-lint: allow(locality)
        let work: Vec<_> = components::connected_components(&g0)
            .into_iter()
            .filter(|component| component.len() >= 2)
            .collect();
        // The per-component SEQ-GREEDY runs are independent, so they fan
        // out over TC_THREADS workers; merging the edge lists in component
        // order makes the spanner's insertion order — and therefore the
        // output — bitwise identical to the sequential loop.
        let t = self.params.t;
        let per_component: Vec<Vec<Edge>> = par::par_map_with(
            &work,
            0,
            || vec![0; n],
            |local, _idx, component| seq_greedy_on_component(&g0, component, t, local),
        );
        let mut added = 0;
        for component_edges in per_component {
            for e in component_edges {
                spanner.add(order.edge_to_positions(e));
                added += 1;
            }
        }
        PhaseStats {
            bin: 0,
            bin_upper: bins.upper(0),
            edges_in_bin: bin_edges.len(),
            clusters: 0,
            covered_edges: 0,
            same_cluster_edges: 0,
            candidate_edges: bin_edges.len(),
            query_edges: bin_edges.len(),
            added_edges: added,
            removed_redundant: 0,
        }
    }
}

/// `graph`, numbered by the positions of `order`, in the original IDs:
/// row `v` is the row of position `order.position(v)` with every target
/// mapped back, in the same order, so the rows are the ones the phase loop
/// would have built on the original IDs. The rows move; none is copied.
fn in_original_ids(graph: WeightedGraph, order: &NodeOrder) -> WeightedGraph {
    let mut rows = graph.into_adjacency();
    for row in &mut rows {
        for entry in row.iter_mut() {
            entry.0 = order.node_at(entry.0);
        }
    }
    let by_node = (0..rows.len())
        .map(|v| std::mem::take(&mut rows[order.position(v)]))
        .collect();
    WeightedGraph::from_adjacency(by_node)
}

/// The input points renumbered by a [`NodeOrder`], each point's
/// coordinates stored together, so the covered-edge tests read a node's
/// neighbours from nearby memory.
pub(crate) struct OrderedPoints {
    len: usize,
    dim: usize,
    coords: Vec<f64>,
}

impl OrderedPoints {
    /// Point `p` is the point of original node `order.node_at(p)`.
    pub(crate) fn gather<P: PointAccess + ?Sized>(points: &P, order: &NodeOrder) -> Self {
        let dim = points.dim();
        let mut coords = Vec::with_capacity(order.len() * dim);
        for p in 0..order.len() {
            let v = order.node_at(p);
            coords.extend((0..dim).map(|axis| points.coord(v, axis)));
        }
        Self {
            len: order.len(),
            dim,
            coords,
        }
    }
}

impl PointAccess for OrderedPoints {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn coord(&self, index: usize, axis: usize) -> f64 {
        self.coords[index * self.dim + axis]
    }
}

/// `SEQ-GREEDY` on one component of `G_0`, in the component's own size:
/// its members (ascending, as [`components::connected_components`] lists
/// them) are relabelled `0..k` through `local`, a node-indexed scratch
/// whose entries for `component` this call overwrites. The relabelling is
/// monotone, so the (weight, endpoints) processing order, every path
/// length and the order of the kept edges are those of `SEQ-GREEDY` run
/// on the component inside the whole vertex set. The kept edges come back
/// in global IDs.
fn seq_greedy_on_component(
    g0: &WeightedGraph,
    component: &[NodeId],
    t: f64,
    local: &mut [usize],
) -> Vec<Edge> {
    for (i, &u) in component.iter().enumerate() {
        local[u] = i;
    }
    let mut sub = WeightedGraph::new(component.len());
    for (i, &u) in component.iter().enumerate() {
        for &(v, w) in g0.neighbors(u) {
            if u < v {
                sub.add_edge(i, local[v], w);
            }
        }
    }
    seq_greedy(&sub, t)
        .edges()
        .map(|e| Edge {
            u: component[e.u],
            v: component[e.v],
            weight: e.weight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_spanner;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_geometry::Point;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

    fn uniform_ubg(seed: u64, n: usize, dim: usize, side: f64, alpha: f64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, dim, side);
        UbgBuilder::new(alpha).build(points).unwrap()
    }

    #[test]
    fn produces_a_t_spanner_on_a_udg() {
        let ubg = uniform_ubg(1, 80, 2, 3.0, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(
            stretch <= params.t + 1e-9,
            "stretch {stretch} exceeds target {}",
            params.t
        );
        assert!(result.spanner.edge_count() <= ubg.graph().edge_count());
        assert!(result.phase_count() > 0);
    }

    #[test]
    fn produces_a_t_spanner_on_an_alpha_ubg_with_grey_zone() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let points = generators::uniform_points(&mut rng, 70, 2, 2.5);
        let ubg = UbgBuilder::new(0.6)
            .grey_zone(GreyZonePolicy::Probabilistic {
                probability: 0.5,
                seed: 3,
            })
            .build(points)
            .unwrap();
        let params = SpannerParams::for_epsilon(1.0, 0.6).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn produces_a_t_spanner_in_three_dimensions() {
        let ubg = uniform_ubg(9, 60, 3, 2.0, 0.8);
        let params = SpannerParams::for_epsilon(1.0, 0.8).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn spanner_is_sparse_and_light_relative_to_the_input() {
        let ubg = uniform_ubg(2, 150, 2, 2.5, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let report = verify_spanner(ubg.graph(), &result.spanner, params.t);
        // Linear size: a small constant times n edges.
        assert!(
            report.spanner_edges <= 12 * ubg.len(),
            "spanner has {} edges on {} nodes",
            report.spanner_edges,
            ubg.len()
        );
        // Lightweight relative to the MST (the theorem's constant is much
        // larger; this is a sanity threshold for the dense-UDG workload).
        assert!(
            report.weight_ratio.is_finite() && report.weight_ratio < 30.0,
            "weight ratio {}",
            report.weight_ratio
        );
        // The dense input graph should be thinned substantially.
        assert!(report.spanner_edges < report.base_edges);
    }

    #[test]
    fn empty_and_trivial_inputs() {
        let empty = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&empty);
        assert_eq!(result.spanner.node_count(), 0);
        assert_eq!(result.phase_count(), 0);

        let single = UbgBuilder::unit_disk()
            .build(vec![Point::new2(0.0, 0.0)])
            .unwrap();
        let result = RelaxedGreedy::new(params).run(&single);
        assert_eq!(result.spanner.edge_count(), 0);
    }

    #[test]
    fn disconnected_input_is_handled_per_component() {
        // Two far-apart blobs: the spanner must preserve paths within each.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut points = generators::uniform_points(&mut rng, 30, 2, 1.5);
        points.extend(
            generators::uniform_points(&mut rng, 30, 2, 1.5)
                .into_iter()
                .map(|p| p.translated(&[10.0, 0.0])),
        );
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9);
    }

    #[test]
    fn phase_stats_are_consistent() {
        let ubg = uniform_ubg(3, 90, 2, 3.0, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let mut total_bin_edges = 0;
        for phase in &result.phases {
            total_bin_edges += phase.edges_in_bin;
            assert!(phase.query_edges <= phase.edges_in_bin.max(phase.candidate_edges));
            assert!(phase.added_edges <= phase.query_edges.max(phase.edges_in_bin));
            assert!(phase.removed_redundant <= phase.added_edges);
            if phase.bin > 0 {
                assert_eq!(
                    phase.covered_edges + phase.same_cluster_edges + phase.candidate_edges,
                    phase.edges_in_bin
                );
            }
        }
        assert_eq!(total_bin_edges, ubg.graph().edge_count());
        assert!(result.spanner.edge_count() <= ubg.graph().edge_count());
    }

    #[test]
    fn power_weighting_produces_an_energy_spanner() {
        let ubg = uniform_ubg(4, 60, 2, 2.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let weighting = EdgeWeighting::Power { c: 1.0, gamma: 2.0 };
        let result = RelaxedGreedy::new(params)
            .with_weighting(weighting)
            .run(&ubg);
        // Verify the stretch in the *energy* metric.
        let energy_base = weighting.weighted_graph(&ubg);
        let stretch = stretch_factor(&*energy_base, &result.spanner);
        assert!(stretch <= params.t + 1e-9, "energy stretch {stretch}");
    }

    /// Phase 0 as a masked run per component: `SEQ-GREEDY` over all of
    /// `G_0`'s sorted edges restricted to one component, on the whole
    /// vertex set, the kept edges unioned in component order.
    fn masked_phase0(g0: &WeightedGraph, t: f64) -> WeightedGraph {
        let n = g0.node_count();
        let mut spanner = WeightedGraph::new(n);
        for component in components::connected_components(g0) {
            let mut member = vec![false; n];
            for &v in &component {
                member[v] = true;
            }
            let mut part = WeightedGraph::new(n);
            for edge in g0.sorted_edges() {
                if member[edge.u]
                    && member[edge.v]
                    && tc_graph::dijkstra::shortest_path_within(
                        &part,
                        edge.u,
                        edge.v,
                        t * edge.weight,
                    )
                    .is_none()
                {
                    part.add(edge);
                }
            }
            for e in part.edges() {
                spanner.add(e);
            }
        }
        spanner
    }

    #[test]
    fn phase0_equals_the_masked_per_component_run_on_duplicate_heavy_input() {
        // Every point is duplicated and every third one gets a third copy
        // jittered well inside w_0, so G_0 has hundreds of components with
        // zero and near-zero weights, and SEQ-GREEDY drops edges in them.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let base = generators::uniform_points(&mut rng, 400, 2, 8.0);
        let mut points = base.clone();
        for (i, p) in base.iter().enumerate() {
            points.push(p.clone());
            if i % 3 == 0 {
                points.push(p.translated(&[1e-5 * (i % 7) as f64, 1e-5]));
            }
        }
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let n = ubg.len();
        let bins = BinPartition::new(ubg.graph(), params.alpha / n as f64, params.r);
        let g0 = WeightedGraph::from_edges(n, bins.bin(0).iter().copied());
        let mut spanner = WeightedGraph::new(n);
        let order = NodeOrder::identity(n);
        RelaxedGreedy::new(params).process_short_edges(&mut spanner, bins.bin(0), &bins, &order);
        let expected = masked_phase0(&g0, params.t);
        let rows = |g: &WeightedGraph| -> Vec<Vec<(NodeId, u64)>> {
            (0..n)
                .map(|u| {
                    g.neighbors(u)
                        .iter()
                        .map(|&(v, w)| (v, w.to_bits()))
                        .collect()
                })
                .collect()
        };
        assert_eq!(rows(&spanner), rows(&expected));
        let clusters = components::connected_components(&g0)
            .into_iter()
            .filter(|c| c.len() >= 2)
            .count();
        assert_eq!(clusters, 400);
        assert!(
            spanner.edge_count() < g0.edge_count(),
            "SEQ-GREEDY must drop edges"
        );
    }

    #[test]
    fn duplicate_points_do_not_cover_each_others_edges() {
        // u and u' coincide. Their zero-weight edge must not let each of
        // them cover the other's edge to v, or no edge to v is ever added.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.0, 0.0),
            Point::new2(0.5, 0.0),
        ];
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn run_on_requires_matching_points() {
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let graph = WeightedGraph::new(3);
        let err = RelaxedGreedy::new(params)
            .run_on(&[Point::new2(0.0, 0.0)], &graph)
            .unwrap_err();
        assert_eq!(
            err,
            PointCountMismatch {
                points: 1,
                nodes: 3
            }
        );
        assert!(err.to_string().contains("one point per graph vertex"));
    }

    #[test]
    fn run_on_timed_returns_run_on_and_times_every_phase() {
        // Duplicated points give phase 0 edges, the rest long phases.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut points = generators::uniform_points(&mut rng, 400, 2, 6.0);
        points.extend(points[..40].to_vec());
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let construction = RelaxedGreedy::new(SpannerParams::for_epsilon(0.5, 1.0).unwrap());
        let plain = construction.run_on(ubg.points(), ubg.graph()).unwrap();
        let (timed, timings) = construction
            .run_on_timed(ubg.points(), ubg.graph())
            .unwrap();
        let rows = |g: &WeightedGraph| -> Vec<Vec<(NodeId, u64)>> {
            (0..g.node_count())
                .map(|u| {
                    g.neighbors(u)
                        .iter()
                        .map(|&(v, w)| (v, w.to_bits()))
                        .collect()
                })
                .collect()
        };
        assert_eq!(rows(&timed.spanner), rows(&plain.spanner));
        assert_eq!(timed.phases, plain.phases);
        assert_eq!(plain.phases[0].bin, 0);
        assert!(plain.phases.len() > 1);
        let timed_bins: Vec<usize> = timings.iter().map(|t| t.bin).collect();
        let phase_bins: Vec<usize> = plain.phases.iter().map(|p| p.bin).collect();
        assert_eq!(timed_bins, phase_bins);
        for t in &timings {
            let steps = [
                t.cover_seconds,
                t.selection_seconds,
                t.h_build_seconds,
                t.query_seconds,
                t.redundant_seconds,
            ];
            for seconds in steps.iter().chain([&t.seconds]) {
                assert!(seconds.is_finite() && *seconds >= 0.0, "{t:?}");
            }
            assert!(steps.iter().sum::<f64>() <= t.seconds + 1e-6, "{t:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn stretch_target_is_always_met(
            seed in 0u64..100,
            n in 10usize..60,
            eps_decile in 1usize..5,
            alpha_decile in 5usize..11,
        ) {
            let eps = eps_decile as f64 * 0.25;
            let alpha = (alpha_decile as f64 * 0.1).min(1.0);
            let ubg = uniform_ubg(seed, n, 2, 2.0, alpha);
            let params = SpannerParams::for_epsilon(eps, alpha).unwrap();
            let result = RelaxedGreedy::new(params).run(&ubg);
            let stretch = stretch_factor(ubg.graph(), &result.spanner);
            prop_assert!(stretch <= params.t + 1e-9, "stretch {} > t {}", stretch, params.t);
        }
    }
}
