//! Measurement of the three spanner properties the paper guarantees.
//!
//! * **Stretch** (Theorem 10): for a spanning subgraph `G'` of `G`, the
//!   stretch factor is `max_{(u,v) ∈ E(G)} sp_{G'}(u, v) / w_G(u, v)`.
//!   Restricting the maximum to the *edges* of `G` is sufficient: any
//!   shortest path in `G` is a concatenation of edges of `G`, so if every
//!   edge is stretched by at most `t` then so is every path.
//! * **Degree** (Theorem 11): the maximum degree of `G'`.
//! * **Weight** (Theorem 13): `w(G') / w(MST(G))`.

use crate::bucket::{BucketConfig, BucketScratch};
use crate::{mst, par, Edge, GraphView};

/// The stretch of a single edge of the base graph with respect to the
/// subgraph, together with the edge itself. Infinite when the endpoints are
/// disconnected in the subgraph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeStretch {
    /// The base-graph edge being measured.
    pub edge: Edge,
    /// `sp_{G'}(u, v) / w_G(u, v)`.
    pub stretch: f64,
}

/// The stretch value of one base edge given the subgraph shortest-path
/// distance between its endpoints (`f64::INFINITY` when disconnected).
fn stretch_of(weight: f64, sp: f64) -> f64 {
    if weight == 0.0 {
        if sp == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        sp / weight
    }
}

/// Sources per work item of the stretch sweep. Fixed, independent of the
/// thread count, so the chunk boundaries — and with them the merge order
/// of the per-chunk results — never depend on how many workers run.
const SWEEP_CHUNK: usize = 1024;

/// The stretch sweep every measurement here runs: one target-directed
/// bucket search ([`crate::bucket`]) per source `u`, with targets the
/// neighbours `v > u` of `u`'s base row in row order — the edges
/// [`GraphView::for_each_edge`] reports for `u`, in its order.
///
/// The sources are cut into fixed chunks of `chunk` nodes that fan out
/// across worker threads ([`crate::par`], honoring `TC_THREADS`). Each
/// chunk folds its edges, in order, into an accumulator built by `init`,
/// and the accumulators come back in chunk order. Nothing per edge is
/// stored unless `fold` stores it, so a reduction runs in memory bounded
/// by the chunk count, not the edge count.
fn sweep<B, S, A, I, F>(
    base: &B,
    subgraph: &S,
    threads: usize,
    chunk: usize,
    init: I,
    fold: F,
) -> Vec<A>
where
    B: GraphView + Sync,
    S: GraphView + Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, EdgeStretch) + Sync,
{
    assert_eq!(
        base.node_count(),
        subgraph.node_count(),
        "base and subgraph must share a vertex set"
    );
    let starts: Vec<usize> = (0..base.node_count()).step_by(chunk).collect();
    let config = BucketConfig::for_graph(subgraph);
    par::par_map_with(
        &starts,
        threads,
        || (BucketScratch::new(), Vec::new(), Vec::new(), Vec::new()),
        |(scratch, row, targets, dists), _, &start| {
            let mut acc = init();
            for u in start..(start + chunk).min(base.node_count()) {
                row.clear();
                base.for_each_neighbor(u, |v, w| {
                    if v > u {
                        row.push((v, w));
                    }
                });
                if row.is_empty() {
                    continue;
                }
                targets.clear();
                targets.extend(row.iter().map(|&(v, _)| v));
                scratch.distances_to_targets(subgraph, u, targets, &config, dists);
                for (&(v, weight), &sp) in row.iter().zip(dists.iter()) {
                    fold(
                        &mut acc,
                        EdgeStretch {
                            edge: Edge { u, v, weight },
                            stretch: stretch_of(weight, sp),
                        },
                    );
                }
            }
            acc
        },
    )
}

/// Per-edge stretch of `subgraph` with respect to every edge of `base`.
///
/// This is the collecting fold of the stretch sweep: one bounded bucket
/// search per edge source, fanned out in fixed chunks of sources across
/// worker threads ([`crate::par`], honoring the `TC_THREADS` override).
/// It materialises one [`EdgeStretch`] per base edge; measurements that
/// only need the maximum, the disconnection count or the violations use
/// [`stretch_check`], which streams instead. Hand it
/// [`CsrGraph`](crate::CsrGraph) views (the `subgraph` especially — that is
/// what the searches traverse) when measuring anything beyond toy sizes.
///
/// The output does not depend on the thread count, and it equals one
/// sequential binary-heap Dijkstra per source — same order, bitwise-equal
/// stretch values; property tests below enforce both.
pub fn edge_stretches<B, S>(base: &B, subgraph: &S) -> Vec<EdgeStretch>
where
    B: GraphView + Sync,
    S: GraphView + Sync,
{
    collect_stretches(base, subgraph, 0, SWEEP_CHUNK)
}

fn collect_stretches<B, S>(base: &B, subgraph: &S, threads: usize, chunk: usize) -> Vec<EdgeStretch>
where
    B: GraphView + Sync,
    S: GraphView + Sync,
{
    let chunks = sweep(base, subgraph, threads, chunk, Vec::new, Vec::push);
    let mut out = Vec::with_capacity(base.edge_count());
    for part in chunks {
        out.extend(part);
    }
    out
}

/// The maximum stretch of `subgraph` over all edges of `base`
/// (1.0 for an edgeless base graph; `f64::INFINITY` when the subgraph
/// disconnects any base edge's endpoints — use [`stretch_check`] when the
/// value must stay finite, e.g. for serialization).
pub fn stretch_factor<B, S>(base: &B, subgraph: &S) -> f64
where
    B: GraphView + Sync,
    S: GraphView + Sync,
{
    let check = stretch_check(base, subgraph, f64::INFINITY);
    if check.disconnected_pairs == 0 {
        check.max_stretch
    } else {
        f64::INFINITY
    }
}

/// The streamed reduction of the stretch sweep: a finite maximum, an
/// explicit disconnection count (so reports stay representable in JSON —
/// the vendored `serde_json` writes non-finite floats as `null`), and the
/// base edges whose finite stretch exceeds a limit.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchCheck {
    /// Maximum stretch over the base edges whose endpoints the subgraph
    /// connects (1.0 when there are none). Always finite.
    pub max_stretch: f64,
    /// Number of base edges whose stretch is infinite: the subgraph
    /// disconnects the endpoints (or stretches a zero-weight edge by a
    /// positive amount).
    pub disconnected_pairs: usize,
    /// The base edges with a finite stretch above the limit, in the order
    /// of [`edge_stretches`]. Disconnected pairs are only counted, in
    /// [`Self::disconnected_pairs`].
    pub violations: Vec<EdgeStretch>,
}

impl StretchCheck {
    fn empty() -> Self {
        StretchCheck {
            max_stretch: 1.0,
            disconnected_pairs: 0,
            violations: Vec::new(),
        }
    }

    fn add(&mut self, s: EdgeStretch, limit: f64) {
        if s.stretch.is_finite() {
            self.max_stretch = self.max_stretch.max(s.stretch);
            if s.stretch > limit {
                self.violations.push(s);
            }
        } else {
            self.disconnected_pairs += 1;
        }
    }

    /// Appends a later chunk's result. Maxima of non-NaN stretches do not
    /// depend on the grouping, and violations keep chunk order, so merging
    /// in chunk order equals one fold over the whole edge sequence.
    fn merge(&mut self, later: StretchCheck) {
        self.max_stretch = self.max_stretch.max(later.max_stretch);
        self.disconnected_pairs += later.disconnected_pairs;
        self.violations.extend(later.violations);
    }
}

/// Checks the stretch of `subgraph` over every edge of `base` against
/// `limit`, streaming: each chunk of sources folds its edges into a
/// maximum, a disconnection count and the edges stretched beyond `limit`,
/// and only those reductions are kept (see [`edge_stretches`] for the
/// sweep itself). Memory stays bounded by the violations, not the edge
/// count, and the result equals folding [`edge_stretches`] — bit for bit,
/// for any thread count. Pass `f64::INFINITY` as `limit` when only the
/// maximum and the disconnection count matter.
pub fn stretch_check<B, S>(base: &B, subgraph: &S, limit: f64) -> StretchCheck
where
    B: GraphView + Sync,
    S: GraphView + Sync,
{
    check_chunked(base, subgraph, limit, 0, SWEEP_CHUNK)
}

fn check_chunked<B, S>(
    base: &B,
    subgraph: &S,
    limit: f64,
    threads: usize,
    chunk: usize,
) -> StretchCheck
where
    B: GraphView + Sync,
    S: GraphView + Sync,
{
    let chunks = sweep(
        base,
        subgraph,
        threads,
        chunk,
        StretchCheck::empty,
        |acc, s| acc.add(s, limit),
    );
    let mut check = StretchCheck::empty();
    for part in chunks {
        check.merge(part);
    }
    check
}

/// Ratio `w(subgraph) / w(MST(base))`; `f64::INFINITY` if the base MST has
/// zero weight while the subgraph does not.
pub fn weight_ratio<B: GraphView, S: GraphView>(base: &B, subgraph: &S) -> f64 {
    let mst_w = mst::mst_weight(base);
    let sub_w = subgraph.total_weight();
    if mst_w == 0.0 {
        if sub_w == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        sub_w / mst_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, CsrGraph, WeightedGraph};

    fn square_with_diagonals() -> WeightedGraph {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 1.0);
        g.add_edge(0, 2, 2.0_f64.sqrt());
        g.add_edge(1, 3, 2.0_f64.sqrt());
        g
    }

    #[test]
    fn identical_graphs_have_stretch_one() {
        let g = square_with_diagonals();
        assert!((stretch_factor(&g, &g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dropping_a_diagonal_raises_stretch_to_sqrt2() {
        let g = square_with_diagonals();
        let sub = g.filter_edges(|e| !(e.u == 0 && e.v == 2));
        let s = stretch_factor(&g, &sub);
        assert!((s - 2.0_f64.sqrt()).abs() < 1e-9, "stretch was {s}");
    }

    #[test]
    fn disconnected_subgraph_has_infinite_stretch() {
        let g = square_with_diagonals();
        let sub = g.filter_edges(|e| !e.touches(3));
        assert!(stretch_factor(&g, &sub).is_infinite());
    }

    #[test]
    fn weight_ratio_of_mst_is_one() {
        let g = square_with_diagonals();
        let tree = mst::kruskal(&g).to_graph(4);
        assert!((weight_ratio(&g, &tree) - 1.0).abs() < 1e-12);
        assert!(weight_ratio(&g, &g) > 1.0);
    }

    #[test]
    fn weight_ratio_handles_edgeless_base() {
        let base = WeightedGraph::new(3);
        let sub = WeightedGraph::new(3);
        assert_eq!(weight_ratio(&base, &sub), 1.0);
        let mut nonempty = WeightedGraph::new(3);
        nonempty.add_edge(0, 1, 1.0);
        assert!(weight_ratio(&base, &nonempty).is_infinite());
    }

    #[test]
    fn edge_stretches_cover_every_base_edge() {
        let g = square_with_diagonals();
        let stretches = edge_stretches(&g, &g);
        assert_eq!(stretches.len(), g.edge_count());
        assert!(stretches.iter().all(|s| (s.stretch - 1.0).abs() < 1e-12));
    }

    #[test]
    fn csr_views_measure_identically() {
        let g = square_with_diagonals();
        let sub = g.filter_edges(|e| e.weight <= 1.0);
        let (gc, subc) = (CsrGraph::from(&g), CsrGraph::from(&sub));
        assert_eq!(
            stretch_factor(&g, &sub).to_bits(),
            stretch_factor(&gc, &subc).to_bits()
        );
        assert_eq!(weight_ratio(&g, &sub), weight_ratio(&gc, &subc));
        assert_eq!(stretch_check(&g, &sub, 1.2), stretch_check(&gc, &subc, 1.2));
        // Mixed representations are allowed too.
        assert_eq!(stretch_factor(&g, &subc), stretch_factor(&gc, &sub));
    }

    #[test]
    #[should_panic(expected = "share a vertex set")]
    fn mismatched_vertex_sets_panic() {
        let g = square_with_diagonals();
        let h = WeightedGraph::new(3);
        let _ = stretch_factor(&g, &h);
    }

    #[test]
    fn check_splits_finite_and_disconnected() {
        let g = square_with_diagonals();
        let sub = g.filter_edges(|e| !e.touches(3));
        let check = stretch_check(&g, &sub, f64::INFINITY);
        assert!(check.max_stretch.is_finite());
        assert_eq!(check.disconnected_pairs, 3);
        assert!(stretch_factor(&g, &sub).is_infinite());
        let whole = stretch_check(&g, &g, f64::INFINITY);
        assert_eq!(whole.disconnected_pairs, 0);
        assert_eq!(
            stretch_factor(&g, &g).to_bits(),
            whole.max_stretch.to_bits()
        );
    }

    fn assert_stretches_bitwise_equal(a: &[EdgeStretch], b: &[EdgeStretch]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.edge, y.edge, "edge order must match");
            assert_eq!(
                x.stretch.to_bits(),
                y.stretch.to_bits(),
                "stretch of {:?}: {} vs {}",
                x.edge,
                x.stretch,
                y.stretch
            );
        }
    }

    fn random_graph(seed: u64, n: usize, p: f64) -> WeightedGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    let w = if rng.gen_bool(0.05) {
                        0.0
                    } else {
                        rng.gen_range(0.01..2.0)
                    };
                    g.add_edge(u, v, w);
                }
            }
        }
        g
    }

    /// The reference the sweep is tested against: one full binary-heap
    /// Dijkstra ([`crate::dijkstra`]) per distinct edge source, the edges
    /// in [`GraphView::for_each_edge`] order.
    fn edge_stretches_seq<B: GraphView, S: GraphView>(base: &B, subgraph: &S) -> Vec<EdgeStretch> {
        assert_eq!(base.node_count(), subgraph.node_count());
        let mut by_source: Vec<Vec<Edge>> = vec![Vec::new(); base.node_count()];
        base.for_each_edge(|e| by_source[e.u].push(e));
        let mut out = Vec::with_capacity(base.edge_count());
        for (source, edges) in by_source.iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            let dist = dijkstra::shortest_path_distances(subgraph, source);
            for &e in edges {
                let sp = dist[e.v].unwrap_or(f64::INFINITY);
                out.push(EdgeStretch {
                    edge: e,
                    stretch: stretch_of(e.weight, sp),
                });
            }
        }
        out
    }

    /// The per-edge reduction the streaming check replaces: one fold over
    /// the sequential oracle's stretches.
    fn folded_oracle<B: GraphView, S: GraphView>(
        base: &B,
        subgraph: &S,
        limit: f64,
    ) -> (u64, usize, Vec<(Edge, u64)>) {
        let mut worst = 1.0_f64;
        let mut disconnected = 0;
        let mut violations = Vec::new();
        for s in edge_stretches_seq(base, subgraph) {
            if !s.stretch.is_finite() {
                disconnected += 1;
                continue;
            }
            worst = worst.max(s.stretch);
            if s.stretch > limit {
                violations.push((s.edge, s.stretch.to_bits()));
            }
        }
        (worst.to_bits(), disconnected, violations)
    }

    fn check_bits(check: &StretchCheck) -> (u64, usize, Vec<(Edge, u64)>) {
        (
            check.max_stretch.to_bits(),
            check.disconnected_pairs,
            check
                .violations
                .iter()
                .map(|s| (s.edge, s.stretch.to_bits()))
                .collect(),
        )
    }

    /// Compares the streaming check, at several chunk sizes (none of which
    /// divides every node count used) and at one and two threads, with the
    /// folded oracle; and the collecting fold with the oracle's list.
    fn assert_streaming_matches_oracle(g: &WeightedGraph, sub: &WeightedGraph, limit: f64) {
        let (gc, subc) = (CsrGraph::from(g), CsrGraph::from(sub));
        let expected = folded_oracle(&gc, &subc, limit);
        let oracle = edge_stretches_seq(&gc, &subc);
        for chunk in [1, 3, 7, SWEEP_CHUNK] {
            for threads in [1, 2] {
                let check = check_chunked(&gc, &subc, limit, threads, chunk);
                assert_eq!(
                    check_bits(&check),
                    expected,
                    "chunk {chunk}, {threads} threads"
                );
                let collected = collect_stretches(&gc, &subc, threads, chunk);
                assert_stretches_bitwise_equal(&collected, &oracle);
            }
        }
        let factor = stretch_factor(&gc, &subc);
        if expected.1 == 0 {
            assert_eq!(factor.to_bits(), expected.0);
        } else {
            assert!(factor.is_infinite());
        }
        // The adjacency-list views stream the same edges in the same order.
        assert_eq!(check_bits(&stretch_check(g, sub, limit)), expected);
    }

    #[test]
    fn streaming_check_matches_the_folded_oracle_on_fixed_cases() {
        let g = square_with_diagonals();
        // A violation (the dropped diagonal, stretch √2 > 1.2).
        let sub = g.filter_edges(|e| !(e.u == 0 && e.v == 2));
        assert_streaming_matches_oracle(&g, &sub, 1.2);
        let check = stretch_check(&g, &sub, 1.2);
        assert_eq!(check.violations.len(), 1);
        assert_eq!(check.violations[0].edge.endpoints(), (0, 2));
        // Disconnected pairs: node 3 cut off.
        assert_streaming_matches_oracle(&g, &g.filter_edges(|e| !e.touches(3)), 1.2);
        // An edgeless subgraph: every base edge is disconnected.
        let edgeless = WeightedGraph::new(4);
        assert_streaming_matches_oracle(&g, &edgeless, 1.2);
        assert_eq!(
            stretch_check(&g, &edgeless, f64::INFINITY).disconnected_pairs,
            6
        );
        // An edgeless base graph.
        assert_streaming_matches_oracle(&edgeless, &edgeless, 1.2);
        assert_eq!(stretch_check(&edgeless, &g, 1.0), StretchCheck::empty());
    }

    #[test]
    fn zero_weight_edges_stream_like_the_oracle() {
        // Duplicate points: zero-weight edges, kept (stretch 1) or
        // detoured (infinite stretch) in the subgraph.
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        g.add_edge(0, 2, 0.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 0.0);
        g.add_edge(1, 4, 0.5);
        let sub = g.filter_edges(|e| !matches!(e.endpoints(), (0, 2) | (3, 4)));
        assert_streaming_matches_oracle(&g, &sub, 1.5);
        assert_streaming_matches_oracle(&g, &g, 1.0);
        assert_eq!(stretch_check(&g, &sub, 1.5).disconnected_pairs, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The streaming check equals the folded sequential oracle — the
        /// maximum's bits, the disconnection count and the violations in
        /// order — on random graphs with zero-weight edges, disconnected
        /// subgraphs and violations, at several chunk sizes and thread
        /// counts.
        #[test]
        fn streaming_check_matches_the_folded_oracle(
            seed in 0u64..500,
            n in 2usize..40,
            p in 0.05f64..0.5,
            keep in 0.0f64..1.0,
            limit in 1.0f64..3.0,
        ) {
            use rand::{Rng, SeedableRng};
            let g = random_graph(seed, n, p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc4ec);
            let sub = g.filter_edges(|_| rng.gen_bool(keep));
            assert_streaming_matches_oracle(&g, &sub, limit);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The parallel bucket sweep is byte-identical to the sequential
        /// heap oracle — same edge order, bitwise-equal stretches — for
        /// every thread count, on random graphs with zero-weight edges and
        /// disconnected subgraphs.
        #[test]
        fn parallel_bucket_matches_sequential_heap(
            seed in 0u64..500,
            n in 2usize..24,
            p in 0.05f64..0.5,
            keep in 0.3f64..1.0,
        ) {
            use rand::{Rng, SeedableRng};
            let g = random_graph(seed, n, p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
            let sub = g.filter_edges(|_| rng.gen_bool(keep));
            let (gc, subc) = (CsrGraph::from(&g), CsrGraph::from(&sub));
            let oracle = edge_stretches_seq(&gc, &subc);
            for threads in [1, 2, 4] {
                let fast = collect_stretches(&gc, &subc, threads, SWEEP_CHUNK);
                assert_stretches_bitwise_equal(&fast, &oracle);
            }
            let (max_bits, disconnected, _) = folded_oracle(&gc, &subc, f64::INFINITY);
            let expected = if disconnected == 0 {
                max_bits
            } else {
                f64::INFINITY.to_bits()
            };
            proptest::prelude::prop_assert_eq!(stretch_factor(&gc, &subc).to_bits(), expected);
        }
    }
}
