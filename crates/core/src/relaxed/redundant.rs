//! Removal of mutually redundant edges (Section 2.2.5 of the paper).
//!
//! Because all spanner-path queries of a phase are answered on the *frozen*
//! cluster graph `H_{i-1}`, two edges added in the same phase can each make
//! the other unnecessary. Edges `{u, v}` and `{u', v'}` are *mutually
//! redundant* when
//!
//! 1. `sp_H(u, u') + w(u', v') + sp_H(v', v) ≤ t1·w(u, v)`, and
//! 2. `sp_H(u', u) + w(u, v) + sp_H(v, v') ≤ t1·w(u', v')`,
//!
//! (or the same with the roles of `u'` and `v'` swapped). The proof of the
//! weight bound (Theorem 13) requires that no mutually redundant pair
//! survives, so the algorithm builds the conflict graph `J` over the
//! added edges, computes a maximal independent set of it, and deletes every
//! edge outside the MIS. Keeping an MIS (rather than deleting greedily)
//! guarantees each deleted edge retains at least one surviving partner,
//! which is what the stretch argument needs.

use std::sync::OnceLock;
use tc_graph::bucket::{BucketConfig, BucketScratch};
use tc_graph::par::{self, ClaimQueue, Worker};
#[cfg(test)]
use tc_graph::WeightedGraph;
use tc_graph::{Contraction, CsrGraph, Edge, GraphView, NodeId};

/// The conflict structure among the edges added in one phase.
#[derive(Debug, Clone)]
pub struct RedundancyAnalysis {
    /// Conflict graph `J`: one vertex per added edge (same indexing as the
    /// `added` slice passed to [`analyze_redundancy_contracted`]), one
    /// edge per mutually redundant pair, each of unit weight.
    pub conflict_graph: CsrGraph,
    /// Indices (into the added-edge slice) of edges involved in at least
    /// one mutually redundant pair.
    pub involved: Vec<usize>,
}

impl RedundancyAnalysis {
    /// Whether no redundant pair was found.
    pub fn is_trivial(&self) -> bool {
        self.conflict_graph.is_edgeless()
    }

    /// The analysis of `added` edges whose mutually redundant pairs are
    /// `pairs`, sorted and without repeats.
    fn from_pairs(added: usize, pairs: &[(u32, u32)]) -> Self {
        let mut involved = vec![false; added];
        for &(i, j) in pairs {
            involved[i as usize] = true;
            involved[j as usize] = true;
        }
        let edges = pairs
            .iter()
            .map(|&(i, j)| Edge::new(i as NodeId, j as NodeId, 1.0));
        Self {
            conflict_graph: CsrGraph::from_edges(added, edges),
            involved: (0..added).filter(|&i| involved[i]).collect(),
        }
    }
}

/// Finds all mutually redundant pairs among `added` (the edges added in the
/// current phase), measuring path lengths on the cluster graph `h`: the
/// dense all-pairs oracle of [`analyze_redundancy_contracted`].
#[cfg(test)]
pub fn analyze_redundancy(added: &[Edge], h: &WeightedGraph, t1: f64) -> RedundancyAnalysis {
    assert!(t1 > 1.0, "t1 must exceed 1");
    if added.len() < 2 {
        return RedundancyAnalysis::from_pairs(added.len(), &[]);
    }
    // Distances in H from every endpoint of an added edge, bounded by the
    // largest value any redundancy condition can need. Only
    // endpoint-to-endpoint distances are ever read, so each bounded sweep
    // writes into one row of a small dense k×k matrix (k = distinct
    // endpoints) instead of materialising an O(n) distance vector per
    // endpoint — the latter is quadratic over a whole run and was the
    // scale bottleneck (see docs/PERFORMANCE.md).
    let budget = leg_budget(added, t1);
    let mut endpoints: Vec<NodeId> = added.iter().flat_map(|e| [e.u, e.v]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    let mut endpoint_index: Vec<u32> = vec![u32::MAX; h.node_count()];
    for (i, &x) in endpoints.iter().enumerate() {
        endpoint_index[x] = i as u32;
    }
    let k = endpoints.len();
    let mut dmat = vec![f64::INFINITY; k * k];
    let config = BucketConfig::for_graph(h);
    let mut scratch = BucketScratch::new();
    for (i, &x) in endpoints.iter().enumerate() {
        // Each node is visited at most once per sweep with a distance that
        // is bitwise identical to the bounded Dijkstra's, so the matrix
        // row is independent of the (unspecified) visit order.
        scratch.for_each_within(h, x, budget, &config, |v, d| {
            let j = endpoint_index[v];
            if j != u32::MAX {
                dmat[i * k + j as usize] = d;
            }
        });
    }
    let sp = |x: NodeId, y: NodeId| -> f64 {
        dmat[endpoint_index[x] as usize * k + endpoint_index[y] as usize]
    };
    conflict_pairs(added, t1, sp)
}

/// The largest `H`-distance any single leg of a qualifying redundancy
/// condition can have. Both conditions require
/// `sp_H(x, x') + sp_H(y, y') + w(e2) ≤ t1·w(e1)`, so every leg is at
/// most `t1·max_w − min_w` over the phase's added edges — with the
/// geometric bins keeping `max_w/min_w ≤ r`, this is a small fraction of
/// `t1·max_w` and shrinks each sweep's ball by the square of that
/// fraction.
fn leg_budget(added: &[Edge], t1: f64) -> f64 {
    let max_w = added.iter().map(|e| e.weight).fold(0.0_f64, f64::max);
    let min_w = added.iter().map(|e| e.weight).fold(f64::INFINITY, f64::min);
    t1 * max_w - min_w
}

/// Added edges per claimed item of the parallel candidate-pair tests:
/// fixed, so the chunks never depend on the thread count.
const PAIR_CHUNK: usize = 64;

/// The endpoint supernodes of a phase's added edges, ascending, with the
/// inverse index and the leg budget. The index is a supernode-indexed
/// buffer kept across phases with every entry `u32::MAX`: a phase sets
/// only its endpoints' entries and [`Endpoints::into_index`] clears them
/// again, so the analysis costs O(endpoints) to set up, not
/// O(supernodes).
#[derive(Debug)]
pub(crate) struct Endpoints {
    supers: Vec<usize>,
    super_index: Vec<u32>,
    budget: f64,
}

impl Endpoints {
    /// The endpoints of `added`, indexed in `super_index` (all `u32::MAX`,
    /// grown to the supernode count if shorter).
    fn new(added: &[Edge], contraction: &Contraction, t1: f64, mut super_index: Vec<u32>) -> Self {
        let mut supers: Vec<usize> = added
            .iter()
            .flat_map(|e| [e.u, e.v])
            .map(|x| contraction.supernode_of(x))
            .collect();
        supers.sort_unstable();
        supers.dedup();
        if super_index.len() < contraction.supernode_count() {
            super_index.resize(contraction.supernode_count(), u32::MAX);
        }
        for (i, &s) in supers.iter().enumerate() {
            super_index[s] = i as u32;
        }
        Self {
            supers,
            super_index,
            budget: leg_budget(added, t1),
        }
    }

    fn index_of(&self, contraction: &Contraction, x: NodeId) -> usize {
        self.super_index[contraction.supernode_of(x)] as usize
    }

    /// The index buffer, every entry `u32::MAX` again.
    fn into_index(self) -> Vec<u32> {
        let mut index = self.super_index;
        for &s in &self.supers {
            index[s] = u32::MAX;
        }
        index
    }
}

/// The values the steps of a parallel redundancy analysis hand each
/// other; declare one per analysis, before its region.
#[derive(Default)]
pub(crate) struct RedundancySlots {
    endpoints: OnceLock<Endpoints>,
    rows: OnceLock<Vec<Vec<(u32, f64)>>>,
    edges_at: OnceLock<Vec<Vec<u32>>>,
    row_queue: ClaimQueue<Vec<(u32, f64)>>,
    pair_queue: ClaimQueue<Vec<(u32, u32)>>,
}

impl RedundancySlots {
    /// The endpoint index the analysis took from the caller's scratch,
    /// cleared for the next phase (`None` when no analysis took it).
    pub(crate) fn into_index(self) -> Option<Vec<u32>> {
        self.endpoints.into_inner().map(Endpoints::into_index)
    }
}

/// Finds all mutually redundant pairs among `added` (the edges added in
/// the current phase), measuring path lengths on the *contracted*
/// cluster graph instead of the full `n`-node `H`: `quotient` is
/// `contraction.quotient()` (one node per cluster) or any view with the
/// same edges, such as a CSR copy, and a non-centre endpoint `x` reaches
/// the quotient through its projection, so
/// `sp_H(x, y) = offset(x) + sp_Q(super(x), super(y)) + offset(y)`.
/// Every non-centre node of the full `H` has exactly one edge (to its
/// centre), so this equality is exact — the contracted analysis finds the
/// same conflicts `H` would, without ever materialising `H`.
///
/// Unlike the dense test oracle on the full `H`, this path never builds a
/// dense `k×k` distance
/// matrix or tests all `O(a²)` edge pairs: it keeps one sparse distance
/// row per endpoint supernode (only the ball the budgeted sweep settles)
/// and derives candidate pairs from ball membership — a pair with no
/// endpoint in any shared ball has every pairing sum infinite and cannot
/// conflict. At 10^6 nodes the dense form allocated gigabytes per phase
/// and its scattered lookups dominated the whole build (see
/// docs/PERFORMANCE.md, "Phase engine").
///
/// This is the one-worker form of the phase loop's step (v) analysis.
pub fn analyze_redundancy_contracted<G: GraphView + Sync>(
    added: &[Edge],
    contraction: &Contraction,
    quotient: &G,
    config: &BucketConfig,
    t1: f64,
) -> RedundancyAnalysis {
    let slots = RedundancySlots::default();
    let trivial = || RedundancyAnalysis::from_pairs(added.len(), &[]);
    par::region(
        &mut [(BucketScratch::new(), Vec::new())],
        |w, (search, index)| {
            analyze_in(
                w,
                search,
                index,
                &slots,
                added,
                contraction,
                quotient,
                config,
                t1,
            )
        },
    )
    .unwrap_or_else(trivial)
}

/// [`analyze_redundancy_contracted`] on every worker of a phase's region:
/// the ball rows are swept one endpoint supernode per claimed item, and
/// the candidate pairs are derived and tested in fixed chunks of
/// [`PAIR_CHUNK`] added edges, both merged in order, while the caller
/// indexes the edges by endpoint and builds the conflict graph. Returns the analysis on the caller, `None` on the
/// other workers; every worker must pass the same `added`. The caller's
/// `endpoint_index` (every entry `u32::MAX`, any length) moves into
/// `slots` for the analysis; [`RedundancySlots::into_index`] returns it.
///
/// # Panics
///
/// Panics if `t1 <= 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn analyze_in<G: GraphView + Sync>(
    w: &Worker<'_>,
    scratch: &mut BucketScratch,
    endpoint_index: &mut Vec<u32>,
    slots: &RedundancySlots,
    added: &[Edge],
    contraction: &Contraction,
    quotient: &G,
    config: &BucketConfig,
    t1: f64,
) -> Option<RedundancyAnalysis> {
    assert!(t1 > 1.0, "t1 must exceed 1");
    if added.len() < 2 {
        return w
            .is_caller()
            .then(|| RedundancyAnalysis::from_pairs(added.len(), &[]));
    }
    w.serial(|| {
        let index = std::mem::take(endpoint_index);
        slots
            .endpoints
            .set(Endpoints::new(added, contraction, t1, index))
    });
    let ends = slots.endpoints.get()?;
    let rows = w.map_claimed(&slots.row_queue, ends.supers.len(), |i| {
        ball_row(
            scratch,
            quotient,
            config,
            ends.supers[i],
            &ends.super_index,
            ends.budget,
        )
    });
    w.serial(|| {
        let edges_at = edges_at(added, contraction, ends);
        let _ = slots.rows.set(rows);
        slots.edges_at.set(edges_at)
    });
    let (rows, edges_at) = (slots.rows.get()?, slots.edges_at.get()?);

    let sp_quotient = |i: usize, j: usize| -> f64 {
        match rows[i].binary_search_by_key(&(j as u32), |&(x, _)| x) {
            Ok(pos) => rows[i][pos].1,
            Err(_) => f64::INFINITY,
        }
    };
    let sp = |x: NodeId, y: NodeId| -> f64 {
        if x == y {
            return 0.0;
        }
        let (sx, dx) = contraction.project(x);
        let (sy, dy) = contraction.project(y);
        let (si, sj) = (ends.super_index[sx] as usize, ends.super_index[sy] as usize);
        dx + sp_quotient(si, sj) + dy
    };
    // Candidate pairs by ball membership: for edges to conflict, each of
    // e1's endpoints must reach one of e2's within the leg budget, so in
    // particular some endpoint of e2 lies in a ball of e1's. Pairs never
    // generated here have an infinite leg in every pairing. A chunk owns
    // the pairs whose first edge it holds, so the chunks' sorted pairs
    // concatenate to the sorted candidate list, and its conflicts to the
    // conflicts in candidate order.
    let conflicts = w.map_claimed(&slots.pair_queue, added.len().div_ceil(PAIR_CHUNK), |c| {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let end = ((c + 1) * PAIR_CHUNK).min(added.len());
        for (idx, e) in added.iter().enumerate().take(end).skip(c * PAIR_CHUNK) {
            for x in [e.u, e.v] {
                for &(j, _) in &rows[ends.index_of(contraction, x)] {
                    for &other in &edges_at[j as usize] {
                        if (other as usize) > idx {
                            pairs.push((idx as u32, other));
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs.retain(|&(i, j)| mutually_redundant(added[i as usize], added[j as usize], t1, sp));
        pairs
    });
    if !w.is_caller() {
        return None;
    }
    let pairs: Vec<(u32, u32)> = conflicts.into_iter().flatten().collect();
    Some(RedundancyAnalysis::from_pairs(added.len(), &pairs))
}

/// The added edges (by index) at each endpoint supernode (by endpoint
/// index), in edge order.
fn edges_at(added: &[Edge], contraction: &Contraction, ends: &Endpoints) -> Vec<Vec<u32>> {
    let mut edges_at: Vec<Vec<u32>> = vec![Vec::new(); ends.supers.len()];
    for (idx, e) in added.iter().enumerate() {
        for x in [e.u, e.v] {
            edges_at[ends.index_of(contraction, x)].push(idx as u32);
        }
    }
    edges_at
}

/// Whether `e1` and `e2` are mutually redundant under `sp`, in either
/// pairing of their endpoints (A: u↔u', v↔v'; B: u↔v', v↔u').
fn mutually_redundant(e1: Edge, e2: Edge, t1: f64, sp: impl Fn(NodeId, NodeId) -> f64) -> bool {
    let pairings = [
        sp(e1.u, e2.u) + sp(e1.v, e2.v),
        sp(e1.u, e2.v) + sp(e1.v, e2.u),
    ];
    pairings.iter().any(|&s| {
        s + e2.weight <= t1 * e1.weight + 1e-12 && s + e1.weight <= t1 * e2.weight + 1e-12
    })
}

/// The sparse row of endpoint supernode `source`: the `(index, dist)`
/// pairs of the endpoint supernodes (indexed through `super_index`)
/// inside its `budget` ball on `quotient`, sorted by index for
/// binary-search lookup. Each node is settled at most once per sweep with
/// a distance bitwise identical to the bounded Dijkstra's, so sorting
/// makes the row independent of the (unspecified) visit order — and of
/// the quotient's representation and bucket width.
fn ball_row<G: GraphView>(
    scratch: &mut BucketScratch,
    quotient: &G,
    config: &BucketConfig,
    source: usize,
    super_index: &[u32],
    budget: f64,
) -> Vec<(u32, f64)> {
    let mut row: Vec<(u32, f64)> = Vec::new();
    scratch.for_each_within(quotient, source, budget, config, |v, d| {
        let j = super_index[v];
        if j != u32::MAX {
            row.push((j, d));
        }
    });
    row.sort_unstable_by_key(|&(j, _)| j);
    row
}

/// One [`ball_row`] per endpoint supernode `supers[i]`.
#[cfg(test)]
pub(super) fn ball_rows<G: GraphView>(
    quotient: &G,
    config: &BucketConfig,
    supers: &[usize],
    super_index: &[u32],
    budget: f64,
) -> Vec<Vec<(u32, f64)>> {
    let mut scratch = BucketScratch::new();
    supers
        .iter()
        .map(|&s| ball_row(&mut scratch, quotient, config, s, super_index, budget))
        .collect()
}

/// The oracle's pairing loop: tests both endpoint pairings of every edge
/// pair against the mutual-redundancy conditions and records conflicts.
#[cfg(test)]
fn conflict_pairs(
    added: &[Edge],
    t1: f64,
    sp: impl Fn(NodeId, NodeId) -> f64,
) -> RedundancyAnalysis {
    let mut pairs = Vec::new();
    for i in 0..added.len() {
        for j in (i + 1)..added.len() {
            if mutually_redundant(added[i], added[j], t1, &sp) {
                pairs.push((i as u32, j as u32));
            }
        }
    }
    RedundancyAnalysis::from_pairs(added.len(), &pairs)
}

/// Given a maximal independent set of the conflict graph (indices into the
/// added-edge slice), returns the indices of the edges to remove: those
/// involved in some redundant pair but not chosen by the MIS.
pub fn removals_from_mis(analysis: &RedundancyAnalysis, chosen: &[usize]) -> Vec<usize> {
    let in_mis: std::collections::HashSet<usize> = chosen.iter().copied().collect();
    analysis
        .involved
        .iter()
        .copied()
        .filter(|idx| !in_mis.contains(idx))
        .collect()
}

/// Step (v) on the full cluster graph `h`: analyses redundancy, computes a
/// greedy MIS of the conflict graph, and returns the indices of the edges
/// to remove — the oracle of the phase engine's step (v).
#[cfg(test)]
pub fn sequential_redundant_removals(added: &[Edge], h: &WeightedGraph, t1: f64) -> Vec<usize> {
    redundant_removals(&analyze_redundancy(added, h, t1), tc_graph::mis::greedy_mis)
}

/// Step (v)'s removal rule: lets `choose_mis` pick a maximal independent
/// set of `analysis`'s conflict graph (greedy in the sequential algorithm,
/// a message-passing protocol in the distributed one) and returns the
/// indices of the edges to remove. A trivial analysis removes nothing and
/// asks for no MIS.
pub fn redundant_removals(
    analysis: &RedundancyAnalysis,
    choose_mis: impl FnOnce(&CsrGraph) -> Vec<NodeId>,
) -> Vec<usize> {
    if analysis.is_trivial() {
        return Vec::new();
    }
    let chosen = choose_mis(&analysis.conflict_graph);
    removals_from_mis(analysis, &chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::mis;

    /// Two parallel edges between two tight clusters: the classic mutually
    /// redundant configuration.
    fn parallel_setup() -> (Vec<Edge>, WeightedGraph) {
        // Nodes 0,1 close together; nodes 2,3 close together; added edges
        // (0,2) and (1,3) of weight 1.0. H contains the intra edges (0,1)
        // and (2,3) of weight 0.01.
        let mut h = WeightedGraph::new(4);
        h.add_edge(0, 1, 0.01);
        h.add_edge(2, 3, 0.01);
        let added = vec![Edge::new(0, 2, 1.0), Edge::new(1, 3, 1.0)];
        (added, h)
    }

    #[test]
    fn parallel_edges_are_mutually_redundant() {
        let (added, h) = parallel_setup();
        let analysis = analyze_redundancy(&added, &h, 1.5);
        assert!(!analysis.is_trivial());
        assert_eq!(analysis.involved, vec![0, 1]);
        assert!(analysis.conflict_graph.has_edge(0, 1));
        let removals = sequential_redundant_removals(&added, &h, 1.5);
        assert_eq!(removals.len(), 1, "exactly one of the pair must be removed");
    }

    #[test]
    fn distant_edges_are_not_redundant() {
        // Same two added edges but no short connections between their
        // endpoints in H.
        let h = WeightedGraph::new(4);
        let added = vec![Edge::new(0, 2, 1.0), Edge::new(1, 3, 1.0)];
        let analysis = analyze_redundancy(&added, &h, 1.5);
        assert!(analysis.is_trivial());
        assert!(sequential_redundant_removals(&added, &h, 1.5).is_empty());
    }

    #[test]
    fn tight_t1_suppresses_redundancy() {
        let (added, h) = parallel_setup();
        // With t1 barely above 1, the detour 0-1-3 of weight 0.01 + 1.0
        // exceeds t1 * 1.0, so the pair is not redundant.
        let analysis = analyze_redundancy(&added, &h, 1.005);
        assert!(analysis.is_trivial());
    }

    #[test]
    fn crossed_pairing_is_detected() {
        // Added edges (0,2) and (3,1): the natural pairing matches 0-3 and
        // 2-1 which are far, but the crossed pairing 0-1, 2-3 is close.
        let mut h = WeightedGraph::new(4);
        h.add_edge(0, 1, 0.01);
        h.add_edge(2, 3, 0.01);
        let added = vec![Edge::new(0, 2, 1.0), Edge::new(3, 1, 1.0)];
        let analysis = analyze_redundancy(&added, &h, 1.5);
        assert!(!analysis.is_trivial());
    }

    #[test]
    fn single_edge_is_never_redundant() {
        let h = WeightedGraph::new(2);
        let added = vec![Edge::new(0, 1, 1.0)];
        let analysis = analyze_redundancy(&added, &h, 1.5);
        assert!(analysis.is_trivial());
        assert!(analysis.involved.is_empty());
    }

    #[test]
    fn triangle_of_redundant_edges_keeps_an_independent_set() {
        // Three mutually redundant edges: the MIS keeps at least one and
        // removals never orphan all of them.
        let mut h = WeightedGraph::new(6);
        // Endpoints pairwise close: 0~2~4 and 1~3~5.
        for (a, b) in [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)] {
            h.add_edge(a, b, 0.01);
        }
        let added = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(2, 3, 1.0),
            Edge::new(4, 5, 1.0),
        ];
        let removals = sequential_redundant_removals(&added, &h, 1.5);
        assert!(
            removals.len() < added.len(),
            "at least one edge must survive"
        );
        assert!(!removals.is_empty(), "some redundancy must be eliminated");
    }

    #[test]
    fn removals_from_mis_respects_membership() {
        let (added, h) = parallel_setup();
        let analysis = analyze_redundancy(&added, &h, 1.5);
        assert_eq!(removals_from_mis(&analysis, &[0]), vec![1]);
        assert_eq!(removals_from_mis(&analysis, &[1]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "t1 must exceed 1")]
    fn t1_must_exceed_one() {
        let h = WeightedGraph::new(2);
        let _ = analyze_redundancy(&[], &h, 1.0);
    }

    /// The identity contraction (every node its own supernode, zero
    /// offsets) makes the quotient equal to `H` itself, so the contracted
    /// analysis must reproduce the oracle exactly.
    fn identity_contraction(h: &WeightedGraph) -> Contraction {
        let n = h.node_count();
        Contraction::from_edges((0..n as u32).collect(), vec![0.0; n], n, h.edges())
    }

    fn assert_contracted_matches_oracle(added: &[Edge], h: &WeightedGraph, t1: f64) {
        let c = identity_contraction(h);
        let config = c.bucket_config();
        let oracle = analyze_redundancy(added, h, t1);
        let contracted = analyze_redundancy_contracted(added, &c, c.quotient(), &config, t1);
        assert_eq!(oracle.involved, contracted.involved);
        assert_eq!(oracle.conflict_graph, contracted.conflict_graph);
        assert_eq!(
            sequential_redundant_removals(added, h, t1),
            redundant_removals(&contracted, mis::greedy_mis)
        );
    }

    #[test]
    fn the_endpoint_index_comes_back_cleared() {
        let (added, h) = parallel_setup();
        let c = identity_contraction(&h);
        let ends = Endpoints::new(&added, &c, 1.5, vec![u32::MAX; 2]);
        assert_eq!(ends.index_of(&c, 3), 3);
        let index = ends.into_index();
        assert_eq!(index.len(), 4);
        assert!(index.iter().all(|&i| i == u32::MAX));
    }

    #[test]
    fn contracted_analysis_matches_the_oracle_on_fixed_cases() {
        let (added, h) = parallel_setup();
        assert_contracted_matches_oracle(&added, &h, 1.5);
        assert_contracted_matches_oracle(&added, &h, 1.005);
        let crossed = vec![Edge::new(0, 2, 1.0), Edge::new(3, 1, 1.0)];
        assert_contracted_matches_oracle(&crossed, &h, 1.5);
    }

    mod equivalence_prop {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Against random `H` graphs and random same-bin added edges,
            /// the sparse ball-candidate analysis finds exactly the
            /// conflicts the dense all-pairs oracle finds.
            #[test]
            fn contracted_analysis_matches_the_oracle(
                seed in 0u64..300,
                n in 4usize..28,
                p in 0.1f64..0.5,
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut h = WeightedGraph::new(n);
                for u in 0..n {
                    for v in (u + 1)..n {
                        if rng.gen_bool(p) {
                            h.add_edge(u, v, rng.gen_range(0.01..0.3));
                        }
                    }
                }
                // Same-bin shape: added weights within a narrow ratio.
                let mut added: Vec<Edge> = Vec::new();
                for _ in 0..rng.gen_range(2..10) {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        added.push(Edge::new(u, v, rng.gen_range(0.8..1.0)));
                    }
                }
                if added.len() >= 2 {
                    assert_contracted_matches_oracle(&added, &h, 1.5);
                }
            }
        }
    }
}
