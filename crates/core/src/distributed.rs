//! The distributed relaxed greedy algorithm (Section 3 of the paper).
//!
//! The distributed algorithm runs the phase structure of the sequential
//! relaxed greedy with each step replaced by its local, message-passing
//! counterpart — on the *same* phase loop as [`RelaxedGreedy`] (the
//! hierarchical engine of `relaxed::hierarchy`), with its own phase rules.
//!
//! **Per level rebuild** (`O(log n)` of them: the phase radius
//! `δ·W_{i-1}` grows geometrically over the `O(log n)` weight bins, and a
//! level is rebuilt only when the radius outgrows it by a constant
//! factor):
//!
//! * **Cluster cover** (Section 3.2.1): the "within `δ·W_{i-1}`" graph `J`
//!   is a UBG of constant doubling dimension (Lemma 15); an MIS of `J`
//!   yields the cluster centres and every other node attaches to the
//!   reachable centre with the highest identifier — `O(log* n)` rounds in
//!   the paper via Kuhn–Moscibroda–Wattenhofer; here the rounds of the
//!   stand-in MIS protocol are *measured* (see DESIGN.md, substitution 2).
//!   Between rebuilds every node keeps its cluster and its distance to the
//!   centre locally — every later edge weighs more than twice the cover
//!   radius, so no path inside a cluster changes — and nothing is
//!   communicated: the `cover/*` charges are made on rebuild phases only.
//!
//! **Per phase:**
//!
//! * **Phase 0** (Section 3.1): each node learns its closed 1-hop
//!   neighbourhood, identifies its clique component of `G_0`, runs
//!   `SEQ-GREEDY` locally and announces its incident spanner edges —
//!   `O(1)` rounds.
//! * **Query-edge selection, cluster graph, query answering** (Sections
//!   3.2.2–3.2.4): each requires gathering information from a constant
//!   number of hops — `O(1)` rounds, charged at the hop bounds the paper
//!   derives.
//! * **Redundant-edge removal** (Section 3.2.5): an MIS on the conflict
//!   graph of mutually redundant edges (a UBG of constant doubling
//!   dimension, Lemma 20), then a one-round announcement.
//!
//! **Rounds.** `O(log n)` phases each charge `O(1)` hop rounds plus at
//! most one `O(log* n)` conflict MIS, and `O(log n)` rebuilds each charge
//! one `O(log* n)` cover MIS relayed over `O(1)` hops: `O(log n · log* n)`
//! in total, the paper's bound.
//!
//! The engine computes the *data*; a [`RoundLedger`] is charged for the
//! *communication* at exactly the hop bounds proved in the paper, and the
//! two MIS invocations run as genuine message-passing protocols on
//! [`tc_simnet::SyncNetwork`] whose measured rounds are charged. The
//! output thus keeps the sequential algorithm's structure (so the
//! spanner guarantees carry over) with an honest round count for the
//! complexity experiment (E4).

use crate::params::SpannerParams;
use crate::relaxed::{
    BinPartition, Level, PhaseRules, PhaseStats, PointCountMismatch, RelaxedGreedy, SpannerResult,
};
use crate::weighting::EdgeWeighting;
use serde::Serialize;
use tc_geometry::PointAccess;
use tc_graph::bucket::{BucketConfig, BucketScratch};
use tc_graph::{par, CsrGraph, Edge, NodeId, NodeOrder, WeightedGraph};
use tc_simnet::{log2_ceil, log_star, mis, CommStats, RoundLedger};
use tc_ubg::UnitBallGraph;

/// Sources per parallel work item of the J-graph construction sweep.
const J_SWEEP_CHUNK: usize = 4096;

/// Which distributed MIS protocol stands in for the paper's
/// Kuhn–Moscibroda–Wattenhofer black box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum MisProtocol {
    /// Deterministic highest-rank-joins protocol (ranks = node ids).
    #[default]
    Rank,
    /// Luby's randomised protocol with the given seed.
    Luby {
        /// Seed for the per-node random priorities.
        seed: u64,
    },
}

impl MisProtocol {
    /// Runs the protocol on `graph`, whose node identifiers (the ranks,
    /// Luby's seeds and tie-breaks) are `ids`, or the node indices.
    fn run(self, graph: &CsrGraph, ids: Option<&[u32]>) -> mis::MisResult {
        match self {
            MisProtocol::Rank => mis::rank_mis(graph, ids),
            MisProtocol::Luby { seed } => mis::luby_mis(graph, seed, ids),
        }
    }
}

/// The outcome of a distributed construction: the spanner plus the full
/// communication accounting.
#[derive(Debug, Clone)]
pub struct DistributedSpannerResult {
    /// The constructed spanner and per-phase statistics (same format as
    /// the sequential result).
    pub result: SpannerResult,
    /// Round/message charges, labelled per phase and step.
    pub ledger: RoundLedger,
    /// Total rounds across all phases.
    pub rounds: usize,
    /// Total messages of the MIS sub-protocols (the only genuinely
    /// message-level simulations).
    pub messages: usize,
    /// Number of nodes `n`.
    pub nodes: usize,
    /// `⌈log2 n⌉`.
    pub log_n: f64,
    /// `log* n`.
    pub log_star_n: u32,
}

impl DistributedSpannerResult {
    /// Rounds divided by the paper's bound `log n · log* n`; the
    /// round-complexity experiment plots this ratio, which should stay
    /// bounded as `n` grows.
    pub fn normalized_rounds(&self) -> f64 {
        self.rounds as f64 / (self.log_n * self.log_star_n.max(1) as f64)
    }
}

/// The distributed relaxed greedy construction.
///
/// # Example
///
/// ```
/// use tc_spanner::{DistributedRelaxedGreedy, SpannerParams};
/// use tc_ubg::{generators, UbgBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let points = generators::uniform_points(&mut rng, 50, 2, 2.0);
/// let ubg = UbgBuilder::unit_disk().build(points).unwrap();
/// let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
/// let out = DistributedRelaxedGreedy::new(params).run(&ubg);
/// assert!(out.rounds > 0);
/// assert!(out.result.spanner.edge_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DistributedRelaxedGreedy {
    params: SpannerParams,
    weighting: EdgeWeighting,
    mis_protocol: MisProtocol,
}

impl DistributedRelaxedGreedy {
    /// Creates a distributed construction with the given parameters, the
    /// Euclidean weighting and the deterministic rank MIS.
    pub fn new(params: SpannerParams) -> Self {
        Self {
            params,
            weighting: EdgeWeighting::Euclidean,
            mis_protocol: MisProtocol::Rank,
        }
    }

    /// Selects the edge weighting.
    pub fn with_weighting(mut self, weighting: EdgeWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Selects the distributed MIS protocol.
    pub fn with_mis_protocol(mut self, protocol: MisProtocol) -> Self {
        self.mis_protocol = protocol;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &SpannerParams {
        &self.params
    }

    /// Runs the distributed construction on a realised α-UBG.
    pub fn run(&self, ubg: &UnitBallGraph) -> DistributedSpannerResult {
        let graph = self.weighting.weighted_graph(ubg);
        // weighted_graph() derives the graph from ubg.points(), so the
        // counts agree by construction.
        self.run_on(ubg.points(), &graph)
            // tc-lint: allow(panic-hygiene)
            .expect("the UBG's own points match its graph by construction")
    }

    /// Runs the construction on an explicit (points, weighted graph) pair;
    /// see [`crate::RelaxedGreedy::run_on`].
    ///
    /// # Errors
    ///
    /// Returns [`PointCountMismatch`] if `points` does not have exactly one
    /// point per graph vertex.
    pub fn run_on<P: PointAccess + Sync + ?Sized>(
        &self,
        points: &P,
        graph: &WeightedGraph,
    ) -> Result<DistributedSpannerResult, PointCountMismatch> {
        let mut rules = self.rules();
        let result = self
            .sequential()
            .run_with_rules(points, graph, &mut rules, None)?;
        Ok(rules.finish(result))
    }

    /// [`Self::run`] with the phase loop on the nodes renumbered by
    /// `order` (see `RelaxedGreedy::run_in_order`).
    #[cfg(test)]
    pub(crate) fn run_in_order(
        &self,
        ubg: &UnitBallGraph,
        order: &NodeOrder,
    ) -> DistributedSpannerResult {
        let graph = self.weighting.weighted_graph(ubg);
        let mut rules = self.rules();
        let result = self
            .sequential()
            .run_in_order(ubg.points(), &graph, &mut rules, None, order)
            // Test seam. tc-lint: allow(panic-hygiene)
            .expect("the UBG's own points match its graph by construction");
        rules.finish(result)
    }

    /// The sequential construction whose phase loop this one runs on.
    fn sequential(&self) -> RelaxedGreedy {
        RelaxedGreedy::new(self.params).with_weighting(self.weighting)
    }

    fn rules(&self) -> DistributedRules {
        DistributedRules {
            params: self.params,
            protocol: self.mis_protocol,
            alpha_w: self
                .weighting
                .weight_of_distance(self.params.alpha)
                .max(f64::MIN_POSITIVE),
            ledger: RoundLedger::new(),
            cover_mis: None,
            conflict_mis: None,
        }
    }
}

/// Step (i) of a level rebuild, Section 3.2.1: the graph `J` joining the
/// nodes within spanner distance `radius` of each other, a
/// message-passing MIS of `J` as the centres, and every other node
/// attached to a reachable centre. Returns the level and the MIS
/// protocol's measured communication. `spanner` is numbered by the
/// positions of `order`; the nodes' identifiers in the protocol and the
/// cover are their original IDs.
fn mis_cover(
    spanner: &WeightedGraph,
    radius: f64,
    protocol: MisProtocol,
    order: &NodeOrder,
) -> (Level, CommStats) {
    let n = spanner.node_count();
    let config = BucketConfig::for_graph(spanner);
    // Each source's J-neighbours come from a radius-bounded visitor
    // sweep — O(nodes reached) per source, never O(n) — fanned over
    // TC_THREADS workers in fixed chunks. J is built once as a CSR,
    // which sorts every row, so it does not depend on the order the
    // pairs arrive in, whatever the thread count.
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(J_SWEEP_CHUNK)
        .map(|start| (start, (start + J_SWEEP_CHUNK).min(n)))
        .collect();
    let per_chunk: Vec<Vec<(u32, u32)>> = par::par_map_with(
        &chunks,
        0,
        BucketScratch::new,
        |scratch, _idx, &(start, end)| {
            let mut local: Vec<(u32, u32)> = Vec::new();
            for u in start..end {
                scratch.for_each_within(spanner, u, radius, &config, |v, _d| {
                    if v > u {
                        local.push((u as u32, v as u32));
                    }
                });
            }
            local
        },
    );
    let pairs = per_chunk.into_iter().flatten();
    let j_graph = CsrGraph::from_edges(
        n,
        pairs.map(|(u, v)| Edge::new(u as NodeId, v as NodeId, 1.0)),
    );
    let centers = protocol.run(&j_graph, Some(order.nodes()));
    // J is freed before the level's assignment and quotient are built.
    drop(j_graph);
    (
        Level::from_centers(spanner, &centers.mis, radius, order),
        centers.stats,
    )
}

/// The distributed phase rules: message-passing MIS covers and conflict
/// MIS, and the round ledger the finished phases are charged to.
struct DistributedRules {
    params: SpannerParams,
    protocol: MisProtocol,
    /// The weight of an edge of length `α`, the hop-bound unit.
    alpha_w: f64,
    ledger: RoundLedger,
    /// The current phase's cover MIS, if it rebuilt the level.
    cover_mis: Option<CommStats>,
    /// The current phase's conflict MIS, if its conflict graph was
    /// non-trivial.
    conflict_mis: Option<CommStats>,
}

impl DistributedRules {
    /// Packages the spanner with the ledger's totals.
    fn finish(self, result: SpannerResult) -> DistributedSpannerResult {
        let n = result.spanner.node_count();
        let total = self.ledger.total();
        DistributedSpannerResult {
            result,
            rounds: total.rounds,
            messages: total.messages,
            nodes: n,
            log_n: log2_ceil(n),
            log_star_n: log_star(n),
            ledger: self.ledger,
        }
    }
}

impl PhaseRules for DistributedRules {
    fn level_cover(
        &mut self,
        spanner: &WeightedGraph,
        radius: f64,
        _previous: &[bool],
        order: &NodeOrder,
    ) -> Level {
        let (level, stats) = mis_cover(spanner, radius, self.protocol, order);
        self.cover_mis = Some(stats);
        level
    }

    fn conflict_mis(&mut self, conflict_graph: &CsrGraph) -> Vec<NodeId> {
        let result = self.protocol.run(conflict_graph, None);
        self.conflict_mis = Some(result.stats);
        result.mis
    }

    /// Charges the phase's communication. Phase 0, Theorem 14: one round
    /// to learn the closed neighbourhood (with pairwise distances), one to
    /// announce the locally computed clique-spanner edges. Phase `i ≥ 1`,
    /// Sections 3.2.1–3.2.5: the level cover (rebuild phases only), then
    /// the constant-hop gathers and the conflict MIS of every phase.
    fn phase_done(&mut self, bins: &BinPartition, stats: &PhaseStats) {
        let bin_index = stats.bin;
        let ledger = &mut self.ledger;
        if bin_index == 0 {
            ledger.charge_rounds("phase0/gather-neighbourhood", 1);
            ledger.charge_rounds("phase0/announce-spanner-edges", 1);
            return;
        }
        let w_prev = bins.upper(bin_index - 1);
        let radius = self.params.delta * w_prev;
        let label = |step: &str| format!("phase{bin_index}/{step}");

        // Hop bounds the paper derives (Sections 2.2.4 and 3.2): nodes at
        // spanner distance D are at most 2D/α hops apart in G, because any
        // two nodes two hops apart on a shortest path are more than α apart.
        let alpha_w = self.alpha_w;
        let hops_for =
            |distance: f64| -> usize { ((2.0 * distance / alpha_w).ceil() as usize).max(1) };
        let cover_gather_hops = hops_for(radius);
        let query_select_hops = 1 + cover_gather_hops;
        let cluster_graph_hops = hops_for((2.0 * self.params.delta + 1.0) * w_prev);
        let query_answer_hops =
            ((2.0 * (2.0 * self.params.delta + 1.0) / self.params.alpha).ceil() as usize).max(1);

        // Step (i), rebuild phases only: J is gathered over
        // `cover_gather_hops` hops of G, and each MIS round over J is
        // simulated by relaying through that many hops.
        if let Some(mis) = self.cover_mis.take() {
            ledger.charge_rounds(label("cover/gather"), cover_gather_hops);
            ledger.charge(
                label("cover/mis"),
                CommStats {
                    rounds: mis.rounds * cover_gather_hops,
                    ..mis
                },
            );
            ledger.charge_rounds(label("cover/attach"), 1);
        }
        // Steps (ii)–(iv): cluster heads gather the bin edges between their
        // cluster and any other, the cluster graph, and the query answers.
        ledger.charge_rounds(label("query-selection/gather"), query_select_hops);
        ledger.charge_rounds(label("cluster-graph/gather"), cluster_graph_hops);
        ledger.charge_rounds(label("queries/answer"), query_answer_hops);
        // Step (v): the conflict MIS (when some pair was redundant) and the
        // removal announcement.
        if let Some(mis) = self.conflict_mis.take() {
            ledger.charge(
                label("redundant/mis"),
                CommStats {
                    rounds: mis.rounds * query_answer_hops,
                    ..mis
                },
            );
        }
        ledger.charge_rounds(label("redundant/announce"), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_spanner;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

    fn uniform_ubg(seed: u64, n: usize, side: f64, alpha: f64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, side);
        UbgBuilder::new(alpha).build(points).unwrap()
    }

    #[test]
    fn distributed_output_is_a_t_spanner() {
        let ubg = uniform_ubg(11, 70, 2.5, 1.0);
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let out = DistributedRelaxedGreedy::new(params).run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
        assert!(out.rounds > 0);
        assert!(out.normalized_rounds() > 0.0);
        assert_eq!(out.nodes, 70);
    }

    #[test]
    fn distributed_output_matches_guarantees_on_alpha_ubg() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let points = generators::uniform_points(&mut rng, 60, 2, 2.0);
        let ubg = UbgBuilder::new(0.7)
            .grey_zone(GreyZonePolicy::DistanceFalloff { seed: 4 })
            .build(points)
            .unwrap();
        let params = SpannerParams::for_epsilon(1.0, 0.7).unwrap();
        let out = DistributedRelaxedGreedy::new(params)
            .with_mis_protocol(MisProtocol::Luby { seed: 12 })
            .run(&ubg);
        let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
        assert!(stretch <= params.t + 1e-9, "stretch {stretch}");
    }

    /// Delegates to the distributed rules, recording the bins whose phase
    /// rebuilt the cover level and checking every rebuilt cover against
    /// the spanner it was built on.
    struct Audited {
        inner: DistributedRules,
        rebuilt: bool,
        rebuild_bins: Vec<usize>,
    }

    impl PhaseRules for Audited {
        fn level_cover(
            &mut self,
            spanner: &WeightedGraph,
            radius: f64,
            previous: &[bool],
            order: &NodeOrder,
        ) -> Level {
            let level = self.inner.level_cover(spanner, radius, previous, order);
            assert!(
                level.is_valid_cover(spanner, radius),
                "the MIS cover at radius {radius} is not a valid cover"
            );
            self.rebuilt = true;
            level
        }

        fn conflict_mis(&mut self, conflict_graph: &CsrGraph) -> Vec<NodeId> {
            self.inner.conflict_mis(conflict_graph)
        }

        fn phase_done(&mut self, bins: &BinPartition, stats: &PhaseStats) {
            if std::mem::take(&mut self.rebuilt) {
                self.rebuild_bins.push(stats.bin);
            }
            self.inner.phase_done(bins, stats);
        }
    }

    /// Runs `construction` on `ubg` under [`Audited`] rules; returns the
    /// result and the bins that rebuilt the cover level, in order.
    fn audited_run(
        construction: &DistributedRelaxedGreedy,
        ubg: &UnitBallGraph,
    ) -> (DistributedSpannerResult, Vec<usize>) {
        let graph = construction.weighting.weighted_graph(ubg);
        let mut rules = Audited {
            inner: construction.rules(),
            rebuilt: false,
            rebuild_bins: Vec::new(),
        };
        let result = construction
            .sequential()
            .run_with_rules(ubg.points(), &graph, &mut rules, None)
            .unwrap();
        let out = rules.inner.finish(result);
        (out, rules.rebuild_bins)
    }

    /// The bins whose ledger entries carry the step label `step`.
    fn bins_charged(out: &DistributedSpannerResult, step: &str) -> Vec<usize> {
        out.ledger
            .entries()
            .filter_map(|(label, _)| {
                let (phase, rest) = label.split_once('/')?;
                (rest == step).then(|| phase.trim_start_matches("phase").parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn cover_charges_appear_on_exactly_the_rebuild_phases() {
        let ubg = uniform_ubg(13, 300, 5.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let construction = DistributedRelaxedGreedy::new(params);
        let (out, rebuild_bins) = audited_run(&construction, &ubg);
        assert!(!rebuild_bins.is_empty(), "no level was ever built");
        let long_phases = out.result.phases.iter().filter(|p| p.bin > 0).count();
        assert!(
            rebuild_bins.len() < long_phases,
            "{} rebuilds over {long_phases} phases: covers are not reused",
            rebuild_bins.len()
        );
        for step in ["cover/gather", "cover/mis", "cover/attach"] {
            assert_eq!(bins_charged(&out, step), rebuild_bins, "{step}");
        }
        // The per-phase steps are charged on every long phase.
        let long_bins: Vec<usize> = out
            .result
            .phases
            .iter()
            .map(|p| p.bin)
            .filter(|&b| b > 0)
            .collect();
        for step in [
            "query-selection/gather",
            "queries/answer",
            "redundant/announce",
        ] {
            assert_eq!(bins_charged(&out, step), long_bins, "{step}");
        }
        let ledger_rounds: usize = out.ledger.entries().map(|(_, s)| s.rounds).sum();
        assert_eq!(ledger_rounds, out.rounds);
        // The audited run is the production run.
        let plain = construction.run(&ubg);
        assert_eq!(
            plain.result.spanner.sorted_edges(),
            out.result.spanner.sorted_edges()
        );
        assert_eq!(plain.rounds, out.rounds);
    }

    fn clustered_ubg(seed: u64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::clustered_points(&mut rng, 160, 2, 6.0, 5, 0.6);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    fn grey_3d_ubg(seed: u64) -> UnitBallGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, 160, 3, 2.5);
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
        let mut points = generators::uniform_points(&mut rng, 120, 2, 4.0);
        let copies: Vec<_> = points.iter().step_by(3).cloned().collect();
        points.extend(copies);
        UbgBuilder::unit_disk().build(points).unwrap()
    }

    #[test]
    fn mis_covers_are_valid_and_all_three_theorems_hold_on_hard_deployments() {
        let cases = [
            ("clustered", clustered_ubg(31), 1.0),
            ("grey-zone 3d", grey_3d_ubg(32), 0.6),
            ("duplicate points", duplicate_point_ubg(33), 1.0),
        ];
        for (name, ubg, alpha) in &cases {
            assert!(ubg.graph().edge_count() > 0, "{name}: empty input");
            let params = SpannerParams::for_epsilon(1.0, *alpha).unwrap();
            for protocol in [MisProtocol::Rank, MisProtocol::Luby { seed: 9 }] {
                let construction =
                    DistributedRelaxedGreedy::new(params).with_mis_protocol(protocol);
                // Audited: every rebuilt cover is valid on its spanner.
                let (out, rebuild_bins) = audited_run(&construction, ubg);
                assert!(!rebuild_bins.is_empty(), "{name}/{protocol:?}: no rebuild");
                let report = verify_spanner(ubg.graph(), &out.result.spanner, params.t);
                // Theorem 10: stretch.
                assert!(
                    report.stretch_ok,
                    "{name}/{protocol:?}: stretch {} > {}, {} disconnected",
                    report.stretch, params.t, report.disconnected_pairs
                );
                // Theorem 11: constant degree (the same constant the
                // end-to-end tests hold the sequential spanner to).
                assert!(
                    report.max_degree <= 16,
                    "{name}/{protocol:?}: max degree {}",
                    report.max_degree
                );
                // Theorem 13: weight O(w(MST)).
                assert!(
                    report.weight_ratio.is_finite() && report.weight_ratio < 12.0,
                    "{name}/{protocol:?}: weight ratio {}",
                    report.weight_ratio
                );
            }
        }
    }

    #[test]
    fn rank_and_luby_variants_both_terminate_and_agree_on_guarantees() {
        let ubg = uniform_ubg(19, 55, 2.0, 1.0);
        let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
        let rank = DistributedRelaxedGreedy::new(params).run(&ubg);
        let luby = DistributedRelaxedGreedy::new(params)
            .with_mis_protocol(MisProtocol::Luby { seed: 7 })
            .run(&ubg);
        for out in [&rank, &luby] {
            let stretch = stretch_factor(ubg.graph(), &out.result.spanner);
            assert!(stretch <= params.t + 1e-9);
        }
        assert!(rank.rounds > 0 && luby.rounds > 0);
    }

    #[test]
    fn empty_input_produces_zero_rounds() {
        let empty = UbgBuilder::unit_disk().build(vec![]).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let out = DistributedRelaxedGreedy::new(params).run(&empty);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.result.spanner.node_count(), 0);
    }

    #[test]
    fn default_mis_protocol_is_rank() {
        assert_eq!(MisProtocol::default(), MisProtocol::Rank);
    }
}
