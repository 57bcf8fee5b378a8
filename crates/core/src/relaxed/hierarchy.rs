//! The hierarchical phase engine: contracted covers and incremental
//! cluster graphs.
//!
//! The seed implementation recomputed steps (i) and (iii) of every phase —
//! the cluster cover and the Das–Narasimhan cluster graph `H_{i-1}` — from
//! scratch over the full `n`-node spanner. With ~625 weight bins at 10^6
//! nodes that made the phase loop Θ(phases · n): the entire 1M build was
//! the rescans (see docs/PERFORMANCE.md, "Phase engine").
//!
//! This engine exploits two structural facts of the paper's phase
//! schedule:
//!
//! 1. **Covers freeze.** Phase `i` needs a cover of radius
//!    `ρ_i = δ·W_{i-1}` with `δ < 1/2` (validated by
//!    [`SpannerParams`](crate::SpannerParams)), while every edge the
//!    phases *after* the cover's construction can add weighs more than
//!    `W_{i-1} > 2ρ_i`. Paths of length ≤ `ρ_i` therefore never change
//!    once the cover is built: both the coverage radii and the centre
//!    separation of a cover remain *exactly* valid for the rest of the
//!    run. A cover built at radius `ρ` can serve every later phase whose
//!    radius is in `[ρ, Λ·ρ]` — coverage only tightens (`ρ ≤ ρ_i` keeps
//!    every lemma that upper-bounds member distances), and separation
//!    degrades by at most the constant `Λ` (a `Λ^d` factor in the packing
//!    constants, not in any correctness argument). The engine thus keeps
//!    one cover per geometric *level* and rebuilds only when the phase
//!    radius outgrows `Λ·ρ` — `O(log_Λ(W_max/W_0))` rebuilds per run
//!    (≈ 9 at the scale-bench parameters) instead of one per phase.
//!
//! 2. **Cluster graphs contract.** In `H_{i-1}` every non-centre node has
//!    exactly one edge — to its centre, weighted by its recorded distance.
//!    So for any two nodes `u, v` in distinct clusters,
//!    `sp_H(u, v) = d(u) + sp_Q(a, b) + d(v)` where `Q` is the quotient
//!    graph on the *centres* alone. The engine maintains `Q` incrementally
//!    as a [`Contraction`]: a full (deterministic-order) edge scan seeds it
//!    at each level rebuild, and afterwards each phase folds in only the
//!    edges it actually added. Every quotient edge weight is a real walk
//!    through the centres (`d(u) + w + d(v)` for a crossing edge
//!    `{u, v}`), so quotient distances upper-bound true spanner distances
//!    — a "no" answer to `sp_H(u,v) ≤ t·w` can only over-add edges, never
//!    break the stretch argument. The seed path's Lemma-5 centre sweeps
//!    (direct centre–centre edges with exact distances, condition (i) of
//!    Section 2.2.3) are dropped: nearby centres without a crossing edge
//!    are still connected in `Q` through intermediate clusters, at a
//!    ≤ `2ρ`-per-hop overestimate that the `t − t1` margin absorbs. The
//!    effect is a slight shift in which query edges get added, not a
//!    weaker guarantee (EXPERIMENTS.md records the shift).
//!
//! Each phase queries the live `Q` in place. The paper's lazy updating
//! needs every query of phase `i` to see the same `H_{i-1}`, and `Q` is
//! only mutated by step (v)'s tail in [`PhaseEngine::run_phase`], *after*
//! the phase's queries and redundancy sweeps — so it is fixed for the
//! whole phase without a snapshot. The [`Contraction`] keeps the bucket-width statistics up to
//! date as it absorbs edges, so a phase starts its searches in O(1)
//! instead of copying or rescanning the whole quotient.

use super::cover::Level;
use super::query::{select_in, QuerySelection, SelectionSlots};
use super::redundant::{analyze_in, removals, RedundancySlots};
use super::{BinPartition, OrderedPoints, PhaseRules, PhaseStats, PhaseTiming};
use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use std::sync::OnceLock;
use std::time::Instant;
use tc_graph::bucket::{BucketConfig, BucketScratch};
use tc_graph::par::{self, ClaimQueue, Worker};
use tc_graph::{dijkstra, Contraction, Edge, GraphView, NodeId, NodeOrder, WeightedGraph};

/// Geometric growth factor `Λ` between cover levels: a level built at
/// radius `ρ` serves every phase with radius in `[ρ, Λ·ρ]`. Larger values
/// mean fewer rebuilds but a looser effective centre separation
/// (`≥ ρ_phase/Λ`), which costs a `Λ^d` factor in the packing constants
/// behind the degree bound. 2 keeps both within a small constant of the
/// per-phase-rebuild baseline.
const LEVEL_GROWTH: f64 = 2.0;

/// Bin edges below which a phase runs inline on the calling thread. A
/// phase this small costs about as much as spawning a worker for it
/// (tens of microseconds), and its selection fits in two
/// 1 024-edge chunks anyway. Fixed, so it is not a tuning knob: outputs
/// never depend on it, only where the time goes.
const PHASE_INLINE_ITEMS: usize = 2048;

/// What one phase's steps read: the frozen partial spanner `G'_{i-1}`,
/// the bin, and the run's settings.
pub(crate) struct PhaseInput<'a> {
    pub points: &'a OrderedPoints,
    pub params: &'a SpannerParams,
    pub spanner: &'a WeightedGraph,
    pub bin_edges: &'a [Edge],
    pub mechanisms: &'a AblationConfig,
}

/// The values the steps of one phase's region hand each other, declared
/// before the region (see [`tc_graph::par`]).
#[derive(Default)]
struct PhaseSlots {
    selection: OnceLock<QuerySelection>,
    added: OnceLock<Vec<Edge>>,
    selection_steps: SelectionSlots,
    verdicts: ClaimQueue<bool>,
    redundancy: RedundancySlots,
}

/// One worker's scratch, kept from phase to phase: its bucket-search
/// state, the target row step (iv)'s witness test reads (see
/// [`needs_edge`]) and, on the caller, the endpoint index of step (v)'s
/// analysis, which every phase hands back cleared (see
/// `RedundancySlots::into_index`).
#[derive(Default)]
struct WorkerScratch {
    search: BucketScratch,
    target_row: Vec<(NodeId, f64)>,
    endpoint_index: Vec<u32>,
}

/// Persistent state of the hierarchical phase engine across the phases of
/// one relaxed-greedy run: the run's points, parameters and mechanisms,
/// the current cover level and one scratch per worker, kept from phase to
/// phase. The points and the spanner it reads are numbered by the
/// positions of `order`, whose original IDs break every identifier tie.
pub(crate) struct PhaseEngine<'a> {
    order: &'a NodeOrder,
    points: &'a OrderedPoints,
    params: &'a SpannerParams,
    mechanisms: AblationConfig,
    level_radius: f64,
    level: Option<Level>,
    /// Worker `k` of every phase's region works with `scratch[k]`.
    scratch: Vec<WorkerScratch>,
}

impl<'a> PhaseEngine<'a> {
    /// A fresh engine with no cover level yet, whose phases run on up to
    /// `threads` workers over a spanner numbered by `order`, with the
    /// mechanisms `mechanisms` switched on.
    pub fn new(
        threads: usize,
        order: &'a NodeOrder,
        points: &'a OrderedPoints,
        params: &'a SpannerParams,
        mechanisms: AblationConfig,
    ) -> Self {
        Self {
            order,
            points,
            params,
            mechanisms,
            level_radius: 0.0,
            level: None,
            scratch: (0..threads.max(1))
                .map(|_| WorkerScratch::default())
                .collect(),
        }
    }

    /// Whether a phase of radius `radius` needs a new cover level: there
    /// is none yet, or the radius outgrew the current one.
    ///
    /// Any cover whose centres are more than `radius` apart and which
    /// reaches every node within `radius` serves the level.
    fn needs_rebuild(&self, radius: f64) -> bool {
        self.level.is_none() || radius > LEVEL_GROWTH * self.level_radius
    }

    /// Frees the current level and marks its centres by original ID
    /// (nothing marked, and the slice empty, before the first level): the
    /// next level's greedy cover offers them centre-hood first. Only the
    /// centres outlive the level: its quotient and node assignment are
    /// freed before the next level is built, so two levels are never alive
    /// at once.
    fn retire_level(&mut self) -> Vec<bool> {
        match self.level.take() {
            Some(level) => {
                let mut marked = vec![false; self.order.len()];
                for &c in &level.centers {
                    marked[self.order.node_at(c)] = true;
                }
                marked
            }
            None => Vec::new(),
        }
    }

    /// Step (i): ensures the engine holds a cover usable for a phase of
    /// radius `radius` over the current `spanner`, rebuilding the level
    /// with `rules.level_cover` if the radius outgrew it. Returns whether
    /// a rebuild happened.
    ///
    /// A rebuild frees the previous level first and passes its centres,
    /// marked by original ID (empty before the first level), and the
    /// engine's order to the cover.
    pub fn prepare<R: PhaseRules>(
        &mut self,
        spanner: &WeightedGraph,
        radius: f64,
        rules: &mut R,
    ) -> bool {
        if !self.needs_rebuild(radius) {
            return false;
        }
        let previous = self.retire_level();
        self.level = Some(rules.level_cover(spanner, radius, &previous, self.order));
        self.level_radius = radius;
        true
    }

    /// The current level: its centres and its contraction.
    #[cfg(test)]
    pub fn level(&self) -> &Level {
        // Test helper. tc-lint: allow(panic-hygiene)
        self.level.as_ref().expect("prepare() establishes a level")
    }

    /// Phase `bin ≥ 1` of the run (Section 2.2), steps (i)–(v) end to end
    /// on `spanner` (numbered by the engine's order); returns the phase's
    /// statistics and its step timings (`seconds`, the whole phase, is
    /// left to the phase loop).
    ///
    /// Step (i), the level rebuild when the phase's radius `δ·W_{i-1}`
    /// outgrew the level (see [`PhaseEngine::prepare`]), runs on the
    /// caller. Steps (ii)–(iv) and step (v)'s analysis run in one parallel
    /// region: the calling thread and the engine's other workers (spawned
    /// once for the phase, each searching with its own scratch) share the
    /// bin's edge classification, the queries, the redundancy balls and
    /// the candidate-pair tests, while the caller runs the sequential
    /// reductions in between. A phase under [`PHASE_INLINE_ITEMS`] bin
    /// edges runs inline on the caller. The spanner, the level and the
    /// quotient are only read in the region, so every query sees the same
    /// frozen `H_{i-1}` (lazy updating).
    ///
    /// Step (v)'s tail then runs on the caller: `rules.conflict_mis` picks
    /// an MIS of a non-trivial conflict graph, the additions with a
    /// conflict outside it are dropped, and only the kept additions join
    /// the spanner and then are folded into the quotient so the next
    /// phase's `H` sees them. Removals only ever withdraw this phase's own
    /// additions, so nothing is added and then deleted, and the
    /// contraction stays exact without any quotient-deletion machinery.
    /// Each step the engine's mechanisms switch off is skipped.
    pub fn run_phase<R: PhaseRules>(
        &mut self,
        spanner: &mut WeightedGraph,
        bins: &BinPartition,
        bin: usize,
        rules: &mut R,
    ) -> (PhaseStats, PhaseTiming) {
        let bin_edges = bins.bin(bin);
        let start = Instant::now();
        self.prepare(spanner, self.params.delta * bins.upper(bin - 1), rules);
        let timing = PhaseTiming {
            cover_seconds: start.elapsed().as_secs_f64(),
            ..PhaseTiming::for_bin(bin)
        };
        let workers = if bin_edges.len() < PHASE_INLINE_ITEMS {
            1
        } else {
            self.scratch.len()
        };
        let input = PhaseInput {
            points: self.points,
            params: self.params,
            spanner: &*spanner,
            bin_edges,
            mechanisms: &self.mechanisms,
        };
        let slots = PhaseSlots::default();
        // prepare() always leaves a level. tc-lint: allow(panic-hygiene)
        let level = self.level.as_mut().expect("step (i) builds the level");
        let frozen = &*level;
        let program = |w: &Worker<'_>, scratch: &mut WorkerScratch| {
            phase_program(w, scratch, &input, frozen, &slots, timing)
        };
        // The caller always returns its outcome; the fallback is never
        // taken.
        let (mut timing, pairs) =
            par::region(&mut self.scratch[..workers], program).unwrap_or((timing, Vec::new()));
        let clusters = frozen.contraction.supernode_count();
        if let Some(index) = slots.redundancy.into_index() {
            self.scratch[0].endpoint_index = index;
        }
        let selection = slots.selection.into_inner().unwrap_or_default();
        let added = slots.added.into_inner().unwrap_or_default();

        // Step (v)'s tail.
        let tail = Instant::now();
        let removed = removals(added.len(), &pairs, |j| rules.conflict_mis(j));
        let kept = || {
            added
                .iter()
                .enumerate()
                .filter(|(idx, _)| removed.binary_search(idx).is_err())
                .map(|(_, &e)| e)
        };
        // Every spanner row grows before any quotient row does, so the
        // heap keeps the spanner's row blocks together; interleaving the
        // two measured slower (docs/PERFORMANCE.md, "The phase region").
        for e in kept() {
            spanner.add(e);
        }
        for e in kept() {
            level.contraction.absorb(e);
        }
        timing.redundant_seconds += tail.elapsed().as_secs_f64();

        let stats = PhaseStats {
            bin,
            bin_upper: bins.upper(bin),
            edges_in_bin: bin_edges.len(),
            clusters,
            covered_edges: selection.covered,
            same_cluster_edges: selection.same_cluster,
            candidate_edges: selection.candidates,
            query_edges: selection.query_edges.len(),
            added_edges: added.len(),
            removed_redundant: removed.len(),
        };
        (stats, timing)
    }

    /// Folds `kept` edges into the quotient, as step (v)'s tail does.
    #[cfg(test)]
    pub fn absorb_kept(&mut self, kept: impl IntoIterator<Item = Edge>) {
        // Test helper. tc-lint: allow(panic-hygiene)
        let contraction = &mut self.level.as_mut().expect("a level").contraction;
        for e in kept {
            contraction.absorb(e);
        }
    }
}

/// One worker's program for steps (ii)–(iv) and step (v)'s analysis (see
/// [`PhaseEngine::run_phase`]). Every worker runs it; the caller's copy
/// also runs the sequential reductions and publishes their results in
/// `slots`, and alone returns `Some`: `timing` with the steps' seconds
/// filled in, and the mutually redundant pairs of the additions.
fn phase_program(
    w: &Worker<'_>,
    scratch: &mut WorkerScratch,
    input: &PhaseInput<'_>,
    level: &Level,
    slots: &PhaseSlots,
    mut timing: PhaseTiming,
) -> Option<(PhaseTiming, Vec<(u32, u32)>)> {
    let contraction = &level.contraction;
    let mut lap = Instant::now();
    let mut split = || {
        let now = Instant::now();
        let seconds = (now - lap).as_secs_f64();
        lap = now;
        seconds
    };

    // Step (ii): query-edge selection.
    let selection = select_in(w, &slots.selection_steps, input, level);
    w.serial(|| selection.map(|selection| slots.selection.set(selection)));
    let selection = slots.selection.get()?;
    timing.selection_seconds = split();

    // Step (iii): the cluster graph H_{i-1}, represented by the level's
    // incrementally maintained quotient. It is not touched again until
    // step (v)'s tail absorbs the kept edges, so it stays fixed for the
    // phase's queries without a snapshot; only the bucket configuration
    // is derived here, in O(1).
    let quotient = contraction.quotient();
    let config = contraction.bucket_config();
    timing.h_build_seconds = split();

    // Step (iv): the spanner-path queries, all asked on the same frozen H
    // (lazy updates), so they are independent. Without cluster-graph
    // queries each one is answered exactly on the frozen partial spanner
    // G'_{i-1} instead.
    let queries = &selection.query_edges;
    let t = input.params.t;
    let verdicts = w.map_claimed(&slots.verdicts, queries.len(), |k| {
        let edge = &queries[k];
        if input.mechanisms.cluster_graph_queries {
            needs_edge(scratch, contraction, quotient, &config, edge, t)
        } else {
            dijkstra::shortest_path_within(input.spanner, edge.u, edge.v, t * edge.weight).is_none()
        }
    });
    w.serial(|| {
        let added = queries
            .iter()
            .zip(verdicts)
            .filter(|&(_, needed)| needed)
            .map(|(&edge, _)| edge)
            .collect();
        slots.added.set(added)
    });
    let added = slots.added.get()?;
    timing.query_seconds = split();

    // Step (v), the analysis: mutually redundant pairs among the
    // additions, measured on the same frozen quotient.
    let pairs = if input.mechanisms.redundancy_removal {
        analyze_in(
            w,
            &mut scratch.search,
            &mut scratch.endpoint_index,
            &slots.redundancy,
            added,
            level,
            input.params.t1,
        )?
    } else {
        Vec::new()
    };
    timing.redundant_seconds = split();
    w.is_caller().then_some((timing, pairs))
}

/// Step (iv) for one query edge: `true` when `sp_H(u, v) > t·w(u, v)` on
/// the contracted `H` (`quotient` is the contraction's quotient or a copy
/// of it), i.e. when the edge must be added.
///
/// The verdict is the bucket search's, `shortest_path_within(su, sv,
/// remaining).is_none()`, but most queries are settled first from the
/// rows around the endpoints' supernodes `su` and `sv` (see
/// [`local_verdict`]), and only the rest run the search. The local
/// answers agree with the search bit for bit:
///
/// * the search labels `sv` with the minimum, over walks from `su`, of
///   the walk's weights summed left to right from `su`, relaxing only
///   labels `≤ remaining`. A walk `su – x – y – sv` whose sum
///   `(w1 + w2) + w3`, formed in that same order, is `≤ remaining`
///   therefore bounds the label: float addition is monotone and the
///   weights are non-negative, so each prefix label is at most the
///   prefix sum, which is at most `remaining`, and the search answers
///   "found" too. The same holds for one- and two-edge walks;
/// * a supernode with an empty quotient row is unreachable from any
///   other, so the search answers "not found" when `su ≠ sv`.
fn needs_edge<G: GraphView>(
    scratch: &mut WorkerScratch,
    contraction: &Contraction,
    quotient: &G,
    config: &BucketConfig,
    edge: &Edge,
    t: f64,
) -> bool {
    let (su, du) = contraction.project(edge.u);
    let (sv, dv) = contraction.project(edge.v);
    // Any H-path between distinct clusters starts and ends with the
    // endpoints' centre edges, so the quotient search only needs the
    // remaining budget.
    let remaining = t * edge.weight - du - dv;
    if remaining < 0.0 {
        return true;
    }
    local_verdict(quotient, su, sv, remaining, &mut scratch.target_row).unwrap_or_else(|| {
        scratch
            .search
            .shortest_path_within(quotient, su, sv, remaining, config)
            .is_none()
    })
}

/// Step (iv)'s answer from the quotient rows of `su`, of `su`'s
/// neighbours and of `sv` alone (`remaining ≥ 0`): `Some(false)` when
/// `su = sv` (the search's source is its target) or when a walk of at
/// most three edges `su – x – y – sv` weighs at most `remaining`, summed
/// left to right; `Some(true)` when either supernode is isolated; and
/// `None` when only a search can tell. `sv`'s row is read once into
/// `target_row`, a buffer kept across queries.
fn local_verdict<G: GraphView>(
    quotient: &G,
    su: NodeId,
    sv: NodeId,
    remaining: f64,
    target_row: &mut Vec<(NodeId, f64)>,
) -> Option<bool> {
    if su == sv {
        return Some(false);
    }
    if quotient.degree(su) == 0 || quotient.degree(sv) == 0 {
        return Some(true);
    }
    target_row.clear();
    quotient.for_each_neighbor(sv, |y, w3| target_row.push((y, w3)));
    let target_row = &*target_row;
    let mut found = false;
    quotient.for_each_neighbor(su, |x, w1| {
        if found {
            return;
        }
        if x == sv {
            found = w1 <= remaining;
        } else if w1 <= remaining {
            quotient.for_each_neighbor(x, |y, w2| {
                let partial = w1 + w2;
                if !found && partial <= remaining {
                    found = y == sv
                        || target_row
                            .iter()
                            .any(|&(z, w3)| z == y && partial + w3 <= remaining);
                }
            });
        }
    });
    found.then_some(false)
}

/// Step (iv) on one worker: entry `k` is `true` when query edge `k` must
/// be added (tests compare the live quotient with a CSR copy of it).
#[cfg(test)]
fn answer_queries<G: GraphView>(
    contraction: &Contraction,
    quotient: &G,
    config: &BucketConfig,
    query_edges: &[Edge],
    t: f64,
) -> Vec<bool> {
    let mut scratch = WorkerScratch::default();
    query_edges
        .iter()
        .map(|edge| needs_edge(&mut scratch, contraction, quotient, config, edge, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::redundant::ball_rows;
    use super::super::SequentialRules;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tc_geometry::Point;
    use tc_graph::CsrGraph;

    /// What a test engine over `n` nodes borrows: the identity order,
    /// `n` points and ε = 1 (the level steps read neither).
    struct Run {
        order: NodeOrder,
        points: OrderedPoints,
        params: SpannerParams,
    }

    impl Run {
        fn new(n: usize) -> Self {
            let order = NodeOrder::identity(n);
            let points = OrderedPoints::gather(&vec![Point::new2(0.0, 0.0); n], &order);
            let params = SpannerParams::for_epsilon(1.0, 1.0).unwrap();
            Self {
                order,
                points,
                params,
            }
        }

        /// A one-worker engine running every mechanism.
        fn engine(&self) -> PhaseEngine<'_> {
            let full = AblationConfig::full();
            PhaseEngine::new(1, &self.order, &self.points, &self.params, full)
        }
    }

    /// A random connected-ish weighted graph with weights in
    /// `[w_lo, w_hi)`.
    fn random_graph(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        p: f64,
        w_lo: f64,
        w_hi: f64,
    ) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, rng.gen_range(w_lo..w_hi));
                }
            }
        }
        g
    }

    #[test]
    fn first_prepare_matches_the_oracle_greedy_cover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = random_graph(&mut rng, 30, 0.2, 0.1, 1.0);
        let run = Run::new(30);
        let mut engine = run.engine();
        assert!(engine.prepare(&g, 0.3, &mut SequentialRules));
        let oracle = Level::greedy(&g, 0.3);
        assert_eq!(engine.level().centers, oracle.centers);
        for v in 0..30 {
            assert_eq!(
                engine.level().contraction.project(v),
                oracle.contraction.project(v)
            );
        }
    }

    #[test]
    fn radii_within_the_level_growth_reuse_the_cover() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let g = random_graph(&mut rng, 40, 0.15, 0.1, 1.0);
        let run = Run::new(40);
        let mut engine = run.engine();
        assert!(engine.prepare(&g, 0.2, &mut SequentialRules));
        assert!(!engine.prepare(&g, 0.3, &mut SequentialRules));
        assert!(!engine.prepare(&g, 0.2 * LEVEL_GROWTH, &mut SequentialRules));
        assert!(engine.prepare(&g, 0.2 * LEVEL_GROWTH + 1e-9, &mut SequentialRules));
    }

    #[test]
    fn quotient_matches_full_edge_scan_after_incremental_absorption() {
        // Seed a contraction from a partial graph, absorb the remaining
        // edges one by one, and compare against a bulk rebuild over the
        // final graph with the same cover.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut g = random_graph(&mut rng, 25, 0.2, 0.2, 1.0);
        let run = Run::new(25);
        let mut engine = run.engine();
        engine.prepare(&g, 0.25, &mut SequentialRules);
        let contraction = &engine.level().contraction;
        let n = g.node_count();
        let (assignment, offsets): (Vec<u32>, Vec<f64>) = (0..n)
            .map(|v| {
                let (cluster, dist) = contraction.project(v);
                (cluster as u32, dist)
            })
            .unzip();
        let clusters = contraction.supernode_count();
        // Edges heavier than twice the radius keep the cover frozen-valid.
        let extra: Vec<Edge> = (0..8)
            .filter_map(|_| {
                let (u, v) = (rng.gen_range(0..25), rng.gen_range(0..25));
                (u != v && !g.has_edge(u, v)).then(|| Edge::new(u, v, rng.gen_range(0.8..1.5)))
            })
            .collect();
        for &e in &extra {
            g.add(e);
        }
        engine.absorb_kept(extra.iter().copied());
        let bulk = Contraction::from_edges(assignment, offsets, clusters, g.edges());
        assert_eq!(
            engine.level().contraction.quotient().sorted_edges(),
            bulk.quotient().sorted_edges()
        );
    }

    /// Step (iv)'s verdict from the bucket search alone.
    fn searched(quotient: &WeightedGraph, su: NodeId, sv: NodeId, remaining: f64) -> bool {
        let config = BucketConfig::for_graph(quotient);
        BucketScratch::new()
            .shortest_path_within(quotient, su, sv, remaining, &config)
            .is_none()
    }

    /// `local_verdict` on `quotient`, checked against the search whenever
    /// it answers.
    fn local(quotient: &WeightedGraph, su: NodeId, sv: NodeId, remaining: f64) -> Option<bool> {
        let verdict = local_verdict(quotient, su, sv, remaining, &mut Vec::new());
        if let Some(needed) = verdict {
            assert_eq!(needed, searched(quotient, su, sv, remaining));
        }
        verdict
    }

    #[test]
    fn an_isolated_source_needs_the_edge_without_a_search() {
        let q = WeightedGraph::from_edges(3, [Edge::new(1, 2, 0.5)]);
        assert_eq!(local(&q, 0, 2, 10.0), Some(true));
    }

    #[test]
    fn an_isolated_target_needs_the_edge_without_a_search() {
        let q = WeightedGraph::from_edges(3, [Edge::new(0, 1, 0.5)]);
        assert_eq!(local(&q, 0, 2, 10.0), Some(true));
        assert_eq!(local(&q, 1, 1, 0.0), Some(false));
    }

    #[test]
    fn one_edge_within_the_budget_is_a_witness() {
        let q = WeightedGraph::from_edges(2, [Edge::new(0, 1, 0.5)]);
        assert_eq!(local(&q, 0, 1, 0.5), Some(false));
        assert_eq!(local(&q, 0, 1, 0.5_f64.next_down()), None);
        assert!(searched(&q, 0, 1, 0.5_f64.next_down()));
    }

    #[test]
    fn two_edges_within_the_budget_are_a_witness() {
        let q = WeightedGraph::from_edges(3, [Edge::new(0, 1, 0.1), Edge::new(1, 2, 0.2)]);
        // 0.1 + 0.2 rounds up to 0.30000000000000004.
        assert_eq!(local(&q, 0, 2, 0.1 + 0.2), Some(false));
        assert_eq!(local(&q, 0, 2, 0.3), None);
        assert!(searched(&q, 0, 2, 0.3));
    }

    #[test]
    fn three_edges_are_summed_from_the_source() {
        let q = WeightedGraph::from_edges(
            5,
            [
                Edge::new(0, 1, 0.1),
                Edge::new(1, 2, 0.2),
                Edge::new(2, 3, 0.3),
            ],
        );
        // (0.1 + 0.2) + 0.3 is one ulp above 0.6 = 0.1 + (0.2 + 0.3), so
        // only the search's own summation order keeps the verdicts equal.
        let from_source = (0.1 + 0.2) + 0.3;
        assert_eq!(from_source, 0.6_f64.next_up());
        assert_eq!(local(&q, 0, 3, from_source), Some(false));
        assert_eq!(local(&q, 0, 3, 0.6), None);
        assert!(searched(&q, 0, 3, 0.6));
        // Four edges are beyond the witness; the search finds them.
        let mut longer = q.clone();
        longer.add_edge(3, 4, 0.0);
        assert_eq!(local(&longer, 0, 4, 1.0), None);
        assert!(!searched(&longer, 0, 4, 1.0));
    }

    #[test]
    fn a_walk_back_through_the_source_is_no_shortcut() {
        // x's row lists su again: the walk su – x – su – sv (1.5) is the
        // only three-edge walk, and it is longer than the direct edge.
        let q = WeightedGraph::from_edges(3, [Edge::new(0, 1, 0.25), Edge::new(0, 2, 1.0)]);
        assert_eq!(local(&q, 0, 2, 1.0), Some(false));
        assert_eq!(local(&q, 0, 2, 0.9), None);
        assert!(searched(&q, 0, 2, 0.9));
        assert_eq!(local(&q, 1, 2, 1.25), Some(false));
        assert_eq!(local(&q, 1, 2, 1.25_f64.next_down()), None);
    }

    /// A random quotient on `n` supernodes whose weights are zero a fifth
    /// of the time, with supernode `isolated` (if any) left without edges.
    fn random_quotient(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        p: f64,
        isolated: Option<usize>,
    ) -> Vec<Edge> {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if isolated != Some(u) && isolated != Some(v) && rng.gen_bool(p) {
                    let w = if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    };
                    edges.push(Edge::new(u, v, w));
                }
            }
        }
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// `needs_edge` answers exactly what the bucket search alone
        /// answers, on random quotients with zero-weight edges and an
        /// isolated supernode, for budgets equal to the left-to-right sum
        /// of a random walk of one to three edges, one ulp below it, or
        /// random; and a walk's own sum is always answered locally.
        #[test]
        fn local_answers_match_the_bucket_search(
            seed in 0u64..2000,
            n in 2usize..24,
            p in 0.05f64..0.4,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let isolated = rng.gen_bool(0.5).then(|| rng.gen_range(0..n));
            let edges = random_quotient(&mut rng, n, p, isolated);
            // One node per supernode at offset 0, so the query budget
            // `1 · w − 0 − 0` is `w` exactly.
            let identity = (0..n as u32).collect();
            let contraction = Contraction::from_edges(identity, vec![0.0; n], n, edges);
            let quotient = contraction.quotient();
            let config = contraction.bucket_config();
            let mut scratch = WorkerScratch::default();
            for _ in 0..16 {
                let su = rng.gen_range(0..n);
                // A random walk of one to three edges from `su`, summed
                // left to right.
                let (mut sv, mut sum) = (su, 0.0);
                for _ in 0..rng.gen_range(1..=3) {
                    let row = quotient.neighbors(sv);
                    if row.is_empty() {
                        break;
                    }
                    let (next, w) = row[rng.gen_range(0..row.len())];
                    sv = next;
                    sum += w;
                }
                let walked = sv != su;
                if !walked {
                    sv = (su + rng.gen_range(1..n)) % n;
                    sum = rng.gen_range(0.0..2.0);
                }
                for budget in [sum, sum.next_down(), rng.gen_range(0.0..2.0)] {
                    // Built by hand to keep the orientation: sums run
                    // from `su`.
                    let edge = Edge { u: su, v: sv, weight: budget };
                    prop_assert_eq!(
                        needs_edge(&mut scratch, &contraction, quotient, &config, &edge, 1.0),
                        searched(quotient, su, sv, budget)
                    );
                    if budget >= 0.0 && (Some(su) == isolated || Some(sv) == isolated) {
                        prop_assert_eq!(local(quotient, su, sv, budget), Some(true));
                    }
                }
                if walked {
                    prop_assert_eq!(local(quotient, su, sv, sum), Some(false));
                }
            }
        }
    }

    /// Bit patterns of a ball row, so `-0.0`/`0.0` or a one-ulp drift
    /// would fail the comparison.
    fn row_bits(rows: &[Vec<(u32, f64)>]) -> Vec<Vec<(u32, u64)>> {
        rows.iter()
            .map(|row| row.iter().map(|&(j, d)| (j, d.to_bits())).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Querying the live quotient with the contraction's running
        /// bucket configuration answers exactly what the CSR copy of the
        /// same quotient with a freshly scanned configuration answers: the
        /// step-(iv) verdicts and the step-(v) ball rows bit for bit (the
        /// conflicts are a function of those rows). The absorbed edges include weight
        /// replacements, so the running statistics differ from a fresh
        /// scan's the way they do in a long run.
        #[test]
        fn live_quotient_answers_match_the_csr_oracle(
            seed in 0u64..400,
            n in 6usize..40,
            p in 0.08f64..0.35,
            extra in 0usize..40,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = random_graph(&mut rng, n, p, 0.05, 0.6);
            let run = Run::new(n);
            let mut engine = run.engine();
            engine.prepare(&g, 0.25, &mut SequentialRules);
            let mut kept = Vec::new();
            for _ in 0..extra {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && !g.has_edge(u, v) {
                    let e = Edge::new(u, v, rng.gen_range(0.6..1.2));
                    g.add(e);
                    kept.push(e);
                }
            }
            engine.absorb_kept(kept);

            let contraction = &engine.level().contraction;
            let live = contraction.quotient();
            let live_config = contraction.bucket_config();
            let csr = CsrGraph::from(live);
            let csr_config = BucketConfig::for_graph(&csr);

            let queries: Vec<Edge> = (0..12)
                .filter_map(|_| {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    (u != v).then(|| Edge::new(u, v, rng.gen_range(0.6..1.2)))
                })
                .collect();
            let t = 1.0 + rng.gen_range(0.1..2.0);
            prop_assert_eq!(
                answer_queries(contraction, live, &live_config, &queries, t),
                answer_queries(contraction, &csr, &csr_config, &queries, t)
            );

            let k = contraction.supernode_count();
            let supers: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.6)).collect();
            let mut super_index = vec![u32::MAX; k];
            for (i, &s) in supers.iter().enumerate() {
                super_index[s] = i as u32;
            }
            let budget = rng.gen_range(0.0..3.0);
            prop_assert_eq!(
                row_bits(&ball_rows(live, &live_config, &supers, &super_index, budget)),
                row_bits(&ball_rows(&csr, &csr_config, &supers, &super_index, budget))
            );

        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The tentpole's gating property (satellite: reuse
        /// `is_valid_cover`): across a phase schedule with geometrically
        /// growing radii and ever-heavier edge additions — the shape the
        /// relaxed-greedy loop guarantees — the engine's contracted cover
        /// remains a valid cover of the *current* spanner at every phase,
        /// including the phases that reuse a frozen level.
        #[test]
        fn contracted_cover_stays_valid_across_phases(
            seed in 0u64..300,
            n in 5usize..36,
            p in 0.08f64..0.4,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // All candidate edges, sorted ascending by weight like the bin
            // partition would.
            let mut edges: Vec<Edge> = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        edges.push(Edge::new(u, v, rng.gen_range(0.01..1.0)));
                    }
                }
            }
            edges.sort();
            let mut spanner = WeightedGraph::new(n);
            let run = Run::new(n);
            let mut engine = run.engine();
            let delta = 0.45; // < 1/2, like every validated parameter set
            let chunk = 4.max(edges.len() / 6);
            let mut processed = 0;
            let mut w_prev = 0.0_f64;
            while processed < edges.len() {
                // Phase radius from the heaviest edge already *in* the
                // spanner — the next chunk's edges are all heavier.
                let radius = delta * w_prev;
                engine.prepare(&spanner, radius, &mut SequentialRules);
                prop_assert!(
                    engine.level().is_valid_cover(&spanner, engine.level_radius),
                    "cover invalid at radius {radius} with {} spanner edges",
                    spanner.edge_count()
                );
                let next = (processed + chunk).min(edges.len());
                for e in &edges[processed..next] {
                    spanner.add(*e);
                    w_prev = w_prev.max(e.weight);
                }
                engine.absorb_kept(edges[processed..next].iter().copied());
                processed = next;
            }
            // Final check after all additions.
            engine.prepare(&spanner, delta * w_prev, &mut SequentialRules);
            prop_assert!(engine.level().is_valid_cover(&spanner, engine.level_radius));
        }
    }
}
