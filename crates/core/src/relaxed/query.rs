//! Covered-edge filtering and query-edge selection (Section 2.2.2).
//!
//! An edge `{u, v}` of the current bin is *covered* when an already chosen
//! spanner edge `{u, z}` makes the Czumaj–Zhao lemma (Lemma 3) applicable:
//! `|vz| ≤ α`, `∠vuz ≤ θ` and `|uz| ≤ |uv|` — then a `t`-spanner path for
//! `{u, v}` is implied by the (shorter) edge `{v, z}`'s path and `{u, v}`
//! never needs to be queried. Among the remaining *candidate* edges, at
//! most one per pair of clusters is selected as a *query edge*: the one
//! minimising `t·|xy| − sp(a, x) − sp(b, y)`, which Theorem 10 shows makes
//! every other candidate of that cluster pair redundant.
//!
//! The geometric tests are in Euclidean terms whatever the weighting;
//! the `|uz| ≤ |uv|` comparison is made on the weights, which every
//! weighting keeps monotone in the Euclidean length.

use crate::ablation::AblationConfig;
use crate::params::SpannerParams;
use std::sync::OnceLock;
use tc_geometry::{angle_at_indices, PointAccess};
use tc_graph::par::{self, ClaimQueue, Worker};
use tc_graph::{Contraction, Edge, WeightedGraph};

/// The outcome of query-edge selection for one bin.
#[derive(Debug, Clone, Default)]
pub struct QuerySelection {
    /// The selected query edges (at most one per unordered cluster pair).
    pub query_edges: Vec<Edge>,
    /// Number of bin edges filtered out as covered.
    pub covered: usize,
    /// Number of bin edges whose endpoints share a cluster (these already
    /// have spanner paths through the cluster and are never queried).
    pub same_cluster: usize,
    /// Number of candidate (non-covered, cross-cluster) edges.
    pub candidates: usize,
}

/// Whether the bin edge `edge` is covered with respect to the current
/// partial spanner (Section 2.2.2's definition, both symmetric cases).
pub fn is_covered<P: PointAccess + ?Sized>(
    points: &P,
    params: &SpannerParams,
    spanner: &WeightedGraph,
    edge: &Edge,
) -> bool {
    let alpha = params.alpha;
    let theta = params.theta;
    let endpoints = [(edge.u, edge.v), (edge.v, edge.u)];
    for &(u, v) in &endpoints {
        for &(z, w_uz) in spanner.neighbors(u) {
            if z == v {
                continue;
            }
            // Lemma 3 needs |uz| <= |uv| (in the active weighting this is
            // the weight comparison), |vz| <= alpha so that {v, z} is
            // guaranteed to be an edge of the alpha-UBG, and the angle at u
            // to be at most theta.
            // Lemma 3's induction needs |vz| < |uv|, which holds only for
            // |uz| > 0: duplicates of u would cover each other's edges in
            // a circle that none of them ever joins.
            if w_uz > edge.weight || w_uz == 0.0 {
                continue;
            }
            if points.distance(v, z) > alpha {
                continue;
            }
            if angle_at_indices(points, u, v, z) <= theta {
                return true;
            }
        }
    }
    false
}

/// Bin edges per claimed item of the classification: fixed, so the
/// chunks never depend on the thread count.
const SELECTION_CHUNK: usize = 1024;

/// What step (ii) makes of one bin edge. The classification is a pure
/// function of the edge and the phase's frozen state, so the edges of a
/// bin are classified in parallel.
#[derive(Debug, Clone, Copy)]
enum EdgeClass {
    /// Both endpoints lie in one cluster.
    SameCluster,
    /// Filtered out by the covered-edge test.
    Covered,
    /// A candidate between the clusters `pair` (ascending) with the
    /// selection objective `t·w(x, y) − sp(a, x) − sp(b, y)`.
    Candidate { pair: (u32, u32), objective: f64 },
}

/// Classifies `edge` against the frozen partial spanner and the level's
/// clusters, read as `(cluster, distance to centre)` through `contraction`.
fn classify<P: PointAccess + ?Sized>(
    points: &P,
    params: &SpannerParams,
    spanner: &WeightedGraph,
    contraction: &Contraction,
    mechanisms: &AblationConfig,
    edge: &Edge,
) -> EdgeClass {
    let (ca, da) = contraction.project(edge.u);
    let (cb, db) = contraction.project(edge.v);
    if ca == cb {
        return EdgeClass::SameCluster;
    }
    if mechanisms.covered_filter && is_covered(points, params, spanner, edge) {
        return EdgeClass::Covered;
    }
    let pair = if ca < cb { (ca, cb) } else { (cb, ca) };
    EdgeClass::Candidate {
        pair: (pair.0 as u32, pair.1 as u32),
        objective: params.t * edge.weight - da - db,
    }
}

/// A candidate edge offered for its cluster pair: its bin position and
/// its selection objective.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Offer {
    pair: (u32, u32),
    position: u32,
    objective: f64,
}

/// Cluster-pair partitions of the per-pair reduction: a pair's offers
/// all land in one partition, so the partitions reduce independently.
const PAIR_PARTS: usize = 16;

fn part_of(pair: (u32, u32)) -> usize {
    (pair.0.wrapping_mul(0x9E37_79B9) ^ pair.1) as usize % PAIR_PARTS
}

/// One chunk of classified bin edges: the class counts, and the
/// candidates — as the bin positions of query edges when every candidate
/// is one, as offers by cluster-pair partition otherwise.
#[derive(Debug, Default)]
pub(crate) struct ChunkSelection {
    same_cluster: usize,
    covered: usize,
    candidates: Vec<u32>,
    offers: Vec<Vec<Offer>>,
}

/// The values the steps of a parallel selection hand each other;
/// declare one per phase, before its region.
#[derive(Default)]
pub(crate) struct SelectionSlots {
    chunks: OnceLock<Vec<ChunkSelection>>,
    chunk_queue: ClaimQueue<ChunkSelection>,
    winner_queue: ClaimQueue<Vec<u32>>,
}

/// Step (ii) on every worker of a phase's region. The bin edges are
/// classified in fixed chunks of [`SELECTION_CHUNK`], and each chunk
/// files its candidates' offers by cluster pair into [`PAIR_PARTS`]
/// partitions; then each partition keeps, per pair, the first offer (in
/// bin order) of strictly minimal objective. The caller gathers the
/// winners. Returns the selection on the caller, `None` on the other
/// workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_in<P: PointAccess + Sync + ?Sized>(
    w: &Worker<'_>,
    slots: &SelectionSlots,
    points: &P,
    params: &SpannerParams,
    spanner: &WeightedGraph,
    contraction: &Contraction,
    bin_edges: &[Edge],
    mechanisms: &AblationConfig,
) -> Option<QuerySelection> {
    let chunk_count = bin_edges.len().div_ceil(SELECTION_CHUNK);
    let chunks = w.map_claimed(&slots.chunk_queue, chunk_count, |c| {
        let start = c * SELECTION_CHUNK;
        let end = (start + SELECTION_CHUNK).min(bin_edges.len());
        let mut chunk = ChunkSelection::default();
        if mechanisms.per_cluster_pair {
            chunk.offers = vec![Vec::new(); PAIR_PARTS];
        }
        for (position, edge) in bin_edges.iter().enumerate().take(end).skip(start) {
            match classify(points, params, spanner, contraction, mechanisms, edge) {
                EdgeClass::SameCluster => chunk.same_cluster += 1,
                EdgeClass::Covered => chunk.covered += 1,
                EdgeClass::Candidate { pair, objective } => {
                    if mechanisms.per_cluster_pair {
                        chunk.offers[part_of(pair)].push(Offer {
                            pair,
                            position: position as u32,
                            objective,
                        });
                    } else {
                        chunk.candidates.push(position as u32);
                    }
                }
            }
        }
        chunk
    });
    w.serial(|| slots.chunks.set(chunks));
    let chunks = slots.chunks.get()?;
    let parts = if mechanisms.per_cluster_pair {
        PAIR_PARTS
    } else {
        0
    };
    let winners = w.map_claimed(&slots.winner_queue, parts, |part| {
        let mut offers: Vec<Offer> = chunks
            .iter()
            .flat_map(|chunk| chunk.offers[part].iter().copied())
            .collect();
        // By pair, then bin position: each pair's offers in bin order.
        offers.sort_unstable_by_key(|offer| (offer.pair, offer.position));
        let mut winners = Vec::new();
        for group in offers.chunk_by(|a, b| a.pair == b.pair) {
            let mut best = group[0];
            for offer in &group[1..] {
                if offer.objective < best.objective {
                    best = *offer;
                }
            }
            winners.push(best.position);
        }
        winners
    });
    if !w.is_caller() {
        return None;
    }
    let mut selection = QuerySelection::default();
    let mut positions: Vec<u32> = winners.into_iter().flatten().collect();
    for chunk in chunks {
        selection.same_cluster += chunk.same_cluster;
        selection.covered += chunk.covered;
        selection.candidates += chunk.candidates.len();
        selection.candidates += chunk.offers.iter().map(Vec::len).sum::<usize>();
        positions.extend_from_slice(&chunk.candidates);
    }
    // Bin order, which is the canonical processing order — by weight,
    // then endpoints (`Edge`'s Ord) on the original IDs — because every
    // bin is sorted before it is renumbered (`BinPartition::in_order`).
    positions.sort_unstable();
    selection.query_edges = positions
        .iter()
        .map(|&position| bin_edges[position as usize])
        .collect();
    Some(selection)
}

/// Selects the query edges of one bin: filters covered and same-cluster
/// edges, then keeps one edge per cluster pair minimising
/// `t·w(x, y) − sp(a, x) − sp(b, y)`, with each node's cluster and
/// distance to its centre read from the level's `contraction`. Without
/// [`AblationConfig::covered_filter`] no edge counts as covered; without
/// [`AblationConfig::per_cluster_pair`] every candidate is a query edge.
/// The query edges keep their order in `bin_edges`. This is the
/// one-worker form of the phase loop's step (ii).
pub fn select_query_edges<P: PointAccess + Sync + ?Sized>(
    points: &P,
    params: &SpannerParams,
    spanner: &WeightedGraph,
    contraction: &Contraction,
    bin_edges: &[Edge],
    mechanisms: &AblationConfig,
) -> QuerySelection {
    let slots = SelectionSlots::default();
    par::region(&mut [()], |w, _| {
        select_in(
            w,
            &slots,
            points,
            params,
            spanner,
            contraction,
            bin_edges,
            mechanisms,
        )
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::super::cover::Level;
    use super::*;
    use tc_geometry::Point;

    /// The contraction of the greedy cover of `spanner` at `radius`.
    fn greedy_level(spanner: &WeightedGraph, radius: f64) -> Contraction {
        Level::greedy(spanner, radius).contraction
    }

    fn params() -> SpannerParams {
        SpannerParams::for_epsilon(1.0, 1.0).unwrap()
    }

    #[test]
    fn edge_with_aligned_spanner_neighbour_is_covered() {
        // u at origin, z close to u on the x-axis already connected in the
        // spanner, v farther along the x-axis: angle(vuz) = 0 <= theta,
        // |vz| small, |uz| < |uv| -> covered.
        let points = vec![
            Point::new2(0.0, 0.0), // u
            Point::new2(0.9, 0.0), // v
            Point::new2(0.2, 0.0), // z
        ];
        let mut spanner = WeightedGraph::new(3);
        spanner.add_edge(0, 2, 0.2);
        let edge = Edge::new(0, 1, 0.9);
        assert!(is_covered(&points, &params(), &spanner, &edge));
    }

    #[test]
    fn edge_with_perpendicular_neighbour_is_not_covered() {
        let points = vec![
            Point::new2(0.0, 0.0), // u
            Point::new2(0.9, 0.0), // v
            Point::new2(0.0, 0.2), // z, angle(vuz) = 90 degrees
        ];
        let mut spanner = WeightedGraph::new(3);
        spanner.add_edge(0, 2, 0.2);
        let edge = Edge::new(0, 1, 0.9);
        assert!(!is_covered(&points, &params(), &spanner, &edge));
    }

    #[test]
    fn far_witness_does_not_cover() {
        // z is aligned but |vz| > alpha, so the witness edge {v,z} is not
        // guaranteed to exist and the edge must not be treated as covered.
        let mut p = params();
        p.alpha = 0.3;
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.9, 0.0),
            Point::new2(0.25, 0.0),
        ];
        let mut spanner = WeightedGraph::new(3);
        spanner.add_edge(0, 2, 0.25);
        let edge = Edge::new(0, 1, 0.9);
        assert!(!is_covered(&points, &p, &spanner, &edge));
    }

    #[test]
    fn longer_witness_does_not_cover() {
        // The witness edge must be no longer than the edge being covered.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.4, 0.0),
            Point::new2(0.5, 0.0),
        ];
        let mut spanner = WeightedGraph::new(3);
        spanner.add_edge(0, 2, 0.5);
        let edge = Edge::new(0, 1, 0.4);
        assert!(!is_covered(&points, &params(), &spanner, &edge));
    }

    #[test]
    fn symmetric_case_covers_from_the_other_endpoint() {
        // The witness sits next to v instead of u.
        let points = vec![
            Point::new2(0.0, 0.0), // u
            Point::new2(0.9, 0.0), // v
            Point::new2(0.7, 0.0), // z near v, edge {v,z} in spanner
        ];
        let mut spanner = WeightedGraph::new(3);
        spanner.add_edge(1, 2, 0.2);
        let edge = Edge::new(0, 1, 0.9);
        assert!(is_covered(&points, &params(), &spanner, &edge));
    }

    #[test]
    fn selection_keeps_one_edge_per_cluster_pair() {
        // Two clusters, several parallel candidate edges between them; the
        // one minimising the objective must win.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.0, 0.1),
            Point::new2(1.0, 0.0),
            Point::new2(1.0, 0.1),
        ];
        let spanner = {
            let mut g = WeightedGraph::new(4);
            g.add_edge(0, 1, 0.1);
            g.add_edge(2, 3, 0.1);
            g
        };
        let cover = greedy_level(&spanner, 0.15);
        assert_eq!(cover.supernode_count(), 2);
        let bin_edges = vec![
            Edge::new(0, 2, 1.0),
            Edge::new(1, 3, 1.0),
            Edge::new(0, 3, (1.0f64 + 0.01).sqrt()),
        ];
        let p = params();
        let sel = select_query_edges(
            &points,
            &p,
            &spanner,
            &cover,
            &bin_edges,
            &AblationConfig::full(),
        );
        assert_eq!(sel.query_edges.len(), 1);
        assert_eq!(sel.candidates, 3);
        assert_eq!(sel.covered, 0);
        // Edge (1,3): t*1.0 - 0.1 - 0.1 is the smallest objective.
        assert_eq!(sel.query_edges[0].key(), (1, 3));
    }

    #[test]
    fn switched_off_mechanisms_keep_more_query_edges() {
        // The aligned witness of `edge_with_aligned_spanner_neighbour_is_
        // covered`, plus two parallel candidates between one cluster pair.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.9, 0.0),
            Point::new2(0.2, 0.0),
            Point::new2(0.0, 0.1),
            Point::new2(0.9, 0.1),
        ];
        let mut spanner = WeightedGraph::new(5);
        spanner.add_edge(0, 2, 0.2);
        let cover = greedy_level(&spanner, 0.0);
        let bin_edges = vec![Edge::new(0, 1, 0.9), Edge::new(3, 4, 0.9)];
        let select = |mechanisms: AblationConfig| {
            select_query_edges(
                &points,
                &params(),
                &spanner,
                &cover,
                &bin_edges,
                &mechanisms,
            )
        };
        let full = select(AblationConfig::full());
        assert_eq!((full.covered, full.candidates), (1, 1));
        assert_eq!(full.query_edges, vec![Edge::new(3, 4, 0.9)]);
        let no_filter = select(AblationConfig {
            covered_filter: false,
            ..AblationConfig::full()
        });
        assert_eq!((no_filter.covered, no_filter.candidates), (0, 2));
        assert_eq!(no_filter.query_edges.len(), 2);

        // Both candidates join clusters {0, 3} and {1, 4}: one query edge
        // per pair, or both without the dedup.
        let mut joined = spanner.clone();
        joined.add_edge(0, 3, 0.1);
        joined.add_edge(1, 4, 0.1);
        let cover = greedy_level(&joined, 0.15);
        let pair = |mechanisms: AblationConfig| {
            select_query_edges(&points, &params(), &joined, &cover, &bin_edges, &mechanisms)
                .query_edges
                .len()
        };
        let no_filter = AblationConfig {
            covered_filter: false,
            ..AblationConfig::full()
        };
        assert_eq!(pair(no_filter), 1);
        assert_eq!(
            pair(AblationConfig {
                per_cluster_pair: false,
                ..no_filter
            }),
            2
        );
    }

    #[test]
    fn same_cluster_edges_are_skipped() {
        let points = vec![Point::new2(0.0, 0.0), Point::new2(0.05, 0.0)];
        let mut spanner = WeightedGraph::new(2);
        spanner.add_edge(0, 1, 0.05);
        let cover = greedy_level(&spanner, 0.1);
        assert_eq!(cover.supernode_count(), 1);
        let sel = select_query_edges(
            &points,
            &params(),
            &spanner,
            &cover,
            &[Edge::new(0, 1, 0.05)],
            &AblationConfig::full(),
        );
        assert_eq!(sel.same_cluster, 1);
        assert!(sel.query_edges.is_empty());
    }

    #[test]
    fn empty_bin_selects_nothing() {
        let points = vec![Point::new2(0.0, 0.0)];
        let spanner = WeightedGraph::new(1);
        let cover = greedy_level(&spanner, 0.1);
        let sel = select_query_edges(
            &points,
            &params(),
            &spanner,
            &cover,
            &[],
            &AblationConfig::full(),
        );
        assert!(sel.query_edges.is_empty());
        assert_eq!(sel.candidates, 0);
    }
}
