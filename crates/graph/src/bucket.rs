//! Bucket-queue (delta-stepping-style) shortest paths for the bounded and
//! many-source query shapes of the spanner pipeline.
//!
//! The binary-heap Dijkstra in [`crate::dijkstra`] is the *oracle*: simple,
//! obviously correct, and kept as the reference implementation. This module
//! is the fast path the hot loops actually run, tuned for the query shapes
//! the paper's phases issue:
//!
//! * **radius-bounded sweeps** — cluster covers grow to `δ·W_{i-1}`
//!   ([`BucketScratch::for_each_within`], which visits only the nodes it
//!   reaches);
//! * **budgeted point queries** — spanner-path tests `sp(u,v) ≤ t·|uv|`
//!   ([`BucketScratch::shortest_path_within`], which stops as soon as the
//!   target settles);
//! * **many-source target sweeps** — the stretch verifier needs distances
//!   from each edge source only to that source's base-graph neighbors
//!   ([`BucketScratch::distances_to_targets`], which stops once every
//!   target is settled instead of exhausting the component).
//!
//! Three mechanisms make this faster than the heap on these shapes:
//!
//! 1. **Monotone bucket queue** (Dial/delta-stepping): tentative distances
//!    are binned into buckets of width Δ kept in a circular ring; pushes
//!    and pops are O(1) with no comparison heap. Δ defaults to the mean
//!    edge weight ([`BucketConfig::for_graph`]).
//! 2. **Reusable scratch**: the distance array, the touched-list and the
//!    ring survive between calls, so a sweep of `n` sources pays the O(n)
//!    initialisation once instead of per source (resets are O(nodes
//!    actually visited)).
//! 3. **Early exit**: target-directed variants stop at the first drained
//!    bucket that settles every target.
//!
//! # Determinism contract
//!
//! Every routine returns distances **bitwise identical** to the heap
//! oracle. Both algorithms converge to the same fixpoint
//! `d(v) = min_u (d(u) + w(u, v))`, and because IEEE-754 addition is
//! monotone the fixpoint — evaluated as left-to-right sums along each
//! path — is unique regardless of relaxation order. Property tests in this
//! module and in `properties` enforce the bit equality (including
//! zero-weight edges and disconnected graphs).

use crate::{GraphView, NodeId};

/// Hard cap on the ring span, so a pathological weight distribution (one
/// huge edge among near-zero ones) cannot make the ring unboundedly large.
/// When the cap binds, Δ is widened instead; correctness never depends on Δ.
const MAX_SPAN: usize = 4096;

/// Bucket-width tuning derived once per graph and shared by every search
/// over that graph (cheap to copy; hold it next to the [`BucketScratch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketConfig {
    /// Bucket width Δ.
    delta: f64,
    /// Ring size: covers the window of in-flight labels,
    /// `ceil(max_weight/Δ) + 3` slots.
    slots: usize,
}

impl BucketConfig {
    /// Derives a configuration from the graph's weight distribution:
    /// Δ = mean edge weight (falling back to 1.0 for edgeless or all-zero
    /// graphs), ring sized to span the maximum edge weight.
    pub fn for_graph<G: GraphView>(graph: &G) -> Self {
        let mut max_w = 0.0_f64;
        let mut sum = 0.0_f64;
        let mut edges = 0_usize;
        graph.for_each_edge(|e| {
            max_w = max_w.max(e.weight);
            sum += e.weight;
            edges += 1;
        });
        let mean = if edges > 0 { sum / edges as f64 } else { 0.0 };
        Self::new(mean, max_w)
    }

    /// Builds a configuration from an explicit bucket width and the largest
    /// edge weight of the graphs it will be used with. Non-positive or
    /// non-finite widths fall back to 1.0; widths far below `max_weight`
    /// are widened so the ring stays within `MAX_SPAN` (4 096) slots.
    pub fn new(delta: f64, max_weight: f64) -> Self {
        let mut delta = if delta.is_finite() && delta > 0.0 {
            delta
        } else {
            1.0
        };
        let mut span = (max_weight / delta).ceil();
        if !(span.is_finite() && span <= MAX_SPAN as f64) {
            delta = max_weight / MAX_SPAN as f64;
            span = MAX_SPAN as f64;
        }
        BucketConfig {
            delta,
            slots: span as usize + 3,
        }
    }

    /// The bucket width Δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    #[inline]
    fn bucket_id(&self, dist: f64) -> u64 {
        // Monotone in `dist`; saturates (rather than wrapping) on the
        // astronomically large quotients a tiny Δ could produce.
        let q = dist / self.delta;
        if q >= u64::MAX as f64 {
            u64::MAX
        } else {
            q as u64
        }
    }
}

/// Reusable state for bucket-queue shortest-path searches.
///
/// Create one per thread (it is cheap when idle) and reuse it across
/// searches; the arrays grow to the largest graph seen and resets touch
/// only the nodes the previous search visited.
///
/// # Example
///
/// ```
/// use tc_graph::bucket::{BucketConfig, BucketScratch};
/// use tc_graph::{dijkstra, WeightedGraph};
///
/// let mut g = WeightedGraph::new(4);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// let cfg = BucketConfig::for_graph(&g);
/// let mut scratch = BucketScratch::new();
/// let mut fast = vec![None; 4];
/// scratch.for_each_within(&g, 0, f64::INFINITY, &cfg, |v, d| fast[v] = Some(d));
/// // Bitwise identical to the binary-heap oracle.
/// assert_eq!(fast, dijkstra::shortest_path_distances(&g, 0));
/// ```
#[derive(Debug, Default)]
pub struct BucketScratch {
    /// Tentative distances, `f64::INFINITY` when unvisited. May be longer
    /// than the current graph; only `0..node_count` is meaningful.
    dist: Vec<f64>,
    /// Nodes whose `dist` entry was written by the current search, so the
    /// next search can reset in O(|touched|).
    touched: Vec<u32>,
    /// Circular array of buckets; bucket `b` lives in slot `b % slots`.
    ring: Vec<Vec<u32>>,
}

impl BucketScratch {
    /// Creates an empty scratch; arrays are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distances from `source` to each node of `targets`, with
    /// `f64::INFINITY` for targets that are unreachable. The search stops
    /// as soon as every target is settled, and each returned finite value
    /// is bitwise identical to the full heap sweep's.
    ///
    /// `out` is cleared and refilled parallel to `targets` (pass a reused
    /// buffer to stay allocation-free across sources).
    ///
    /// # Panics
    ///
    /// Panics if `source` or any target is out of range.
    pub fn distances_to_targets<G: GraphView>(
        &mut self,
        graph: &G,
        source: NodeId,
        targets: &[NodeId],
        config: &BucketConfig,
        out: &mut Vec<f64>,
    ) {
        let n = graph.node_count();
        let mut pending: Vec<u32> = targets
            .iter()
            .map(|&t| {
                assert!(t < n, "target node out of range");
                t as u32
            })
            .collect();
        self.run(graph, source, f64::INFINITY, config, &mut pending);
        out.clear();
        out.extend(targets.iter().map(|&t| self.dist[t]));
        self.reset();
    }

    /// Radius-bounded single-source sweep that *visits* each reached node
    /// instead of materialising a length-`n` distance vector: `visit(v, d)`
    /// is called once for every node `v` with `sp(source, v) ≤ radius`,
    /// including the source itself (at distance `0.0`).
    ///
    /// The cost is `O(nodes actually reached)`, so a sweep over all `n`
    /// sources of a bounded-radius cover stays near-linear instead of
    /// `O(n²)`. Every visited distance is bitwise identical to
    /// [`crate::dijkstra::shortest_path_distances_bounded`]'s.
    ///
    /// The visit order is unspecified (it follows the internal touched
    /// list); callers that need a canonical order must collect and sort.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn for_each_within<G: GraphView>(
        &mut self,
        graph: &G,
        source: NodeId,
        radius: f64,
        config: &BucketConfig,
        mut visit: impl FnMut(NodeId, f64),
    ) {
        self.run(graph, source, radius, config, &mut []);
        for &u in &self.touched {
            let d = self.dist[u as usize];
            if d.is_finite() {
                visit(u as usize, d);
            }
        }
        self.reset();
    }

    /// Decides whether `sp(source, target) ≤ budget`, returning the
    /// distance if so — the bucket counterpart of
    /// [`crate::dijkstra::shortest_path_within`], with the same early exit
    /// (labels above `budget` are never expanded, and the search stops once
    /// the target settles).
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is out of range.
    pub fn shortest_path_within<G: GraphView>(
        &mut self,
        graph: &G,
        source: NodeId,
        target: NodeId,
        budget: f64,
        config: &BucketConfig,
    ) -> Option<f64> {
        assert!(target < graph.node_count(), "target node out of range");
        if source == target {
            assert!(source < graph.node_count(), "source node out of range");
            return Some(0.0);
        }
        let mut pending = [target as u32];
        self.run(graph, source, budget, config, &mut pending);
        let d = self.dist[target];
        self.reset();
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// The core monotone bucket loop. Relaxes every label at most `radius`;
    /// when `targets` is non-empty, stops at the first drained bucket after
    /// which every target is settled. Leaves distances in `self.dist`
    /// (callers read what they need, then [`Self::reset`]).
    fn run<G: GraphView>(
        &mut self,
        graph: &G,
        source: NodeId,
        radius: f64,
        config: &BucketConfig,
        targets: &mut [u32],
    ) {
        let n = graph.node_count();
        assert!(source < n, "source node out of range");
        debug_assert!(self.touched.is_empty(), "scratch was not reset");
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
        }
        let slots = config.slots;
        if self.ring.len() < slots {
            self.ring.resize_with(slots, Vec::new);
        }

        self.dist[source] = 0.0;
        self.touched.push(source as u32);
        self.ring[0].push(source as u32);
        let mut in_flight = 1_usize;
        // Number of targets not yet known to be settled; targets[..unsettled]
        // holds them (settled ones are swapped to the tail).
        let mut unsettled = targets.len();

        let mut bucket = 0_u64;
        while in_flight > 0 {
            let slot = (bucket % slots as u64) as usize;
            // Drain bucket `bucket` to a fixpoint: a relaxation within the
            // bucket (zero-weight or sub-Δ edges) re-pushes into this slot
            // and is processed in the same pass.
            while let Some(u) = self.ring[slot].pop() {
                in_flight -= 1;
                let du = self.dist[u as usize];
                // Stale entry: the node's distance dropped to an earlier
                // bucket after this entry was pushed, and it was (or will
                // be) processed via the entry pushed at that decrease.
                if config.bucket_id(du) != bucket {
                    continue;
                }
                graph.for_each_neighbor(u as usize, |v, w| {
                    let nd = du + w;
                    if nd <= radius && nd < self.dist[v] {
                        if !self.dist[v].is_finite() {
                            self.touched.push(v as u32);
                        }
                        self.dist[v] = nd;
                        let id = config.bucket_id(nd);
                        self.ring[(id % slots as u64) as usize].push(v as u32);
                        in_flight += 1;
                    }
                });
            }
            // Bucket fully drained: every node whose distance maps to a
            // bucket ≤ `bucket` is now settled (no cheaper path can appear,
            // since all remaining labels are strictly larger).
            if unsettled > 0 {
                let mut i = 0;
                while i < unsettled {
                    let d = self.dist[targets[i] as usize];
                    if d.is_finite() && config.bucket_id(d) <= bucket {
                        unsettled -= 1;
                        targets.swap(i, unsettled);
                    } else {
                        i += 1;
                    }
                }
                if unsettled == 0 {
                    self.clear_ring();
                    return;
                }
            }
            bucket += 1;
        }
    }

    /// Restores the invariant that `dist` is all-infinity and the ring is
    /// empty, in time proportional to what the last search touched.
    fn reset(&mut self) {
        for &u in &self.touched {
            self.dist[u as usize] = f64::INFINITY;
        }
        self.touched.clear();
    }

    /// Empties every ring slot after an early exit (a drained queue leaves
    /// the ring empty already; an early exit may not).
    fn clear_ring(&mut self) {
        for slot in &mut self.ring {
            slot.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, CsrGraph, WeightedGraph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1.0);
        }
        g
    }

    /// The sweep of [`BucketScratch::for_each_within`] as a dense vector:
    /// entry `v` is `Some(d)` when the sweep visited `v` at distance `d`.
    fn within<G: GraphView>(
        scratch: &mut BucketScratch,
        graph: &G,
        source: NodeId,
        radius: f64,
        cfg: &BucketConfig,
    ) -> Vec<Option<f64>> {
        let mut dense = vec![None; graph.node_count()];
        scratch.for_each_within(graph, source, radius, cfg, |v, d| {
            assert!(dense[v].is_none(), "node {v} visited twice");
            dense[v] = Some(d);
        });
        dense
    }

    fn assert_bitwise_equal(a: &[Option<f64>], b: &[Option<f64>]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "node {i}: {x} vs {y}")
                }
                (None, None) => {}
                _ => panic!("node {i}: reachability mismatch ({x:?} vs {y:?})"),
            }
        }
    }

    #[test]
    fn distances_on_a_path_match_the_oracle() {
        let g = path_graph(6);
        let cfg = BucketConfig::for_graph(&g);
        assert_bitwise_equal(
            &within(&mut BucketScratch::new(), &g, 0, f64::INFINITY, &cfg),
            &dijkstra::shortest_path_distances(&g, 0),
        );
    }

    #[test]
    fn bounded_search_cuts_off_at_radius() {
        let g = path_graph(6);
        let cfg = BucketConfig::for_graph(&g);
        let d = within(&mut BucketScratch::new(), &g, 0, 2.5, &cfg);
        assert_eq!(d[2], Some(2.0));
        assert_eq!(d[3], None);
    }

    #[test]
    fn budgeted_query_matches_the_oracle() {
        let g = path_graph(6);
        let cfg = BucketConfig::for_graph(&g);
        let mut scratch = BucketScratch::new();
        for (source, target, budget, expected) in [
            (0, 2, 2.0, Some(2.0)),
            (0, 3, 2.0, None),
            (4, 4, 0.0, Some(0.0)),
        ] {
            let fast = scratch.shortest_path_within(&g, source, target, budget, &cfg);
            assert_eq!(fast, expected);
            assert_eq!(
                fast,
                dijkstra::shortest_path_within(&g, source, target, budget)
            );
        }
    }

    #[test]
    fn scratch_reuse_across_sources_is_clean() {
        let g = path_graph(8);
        let cfg = BucketConfig::for_graph(&g);
        let mut scratch = BucketScratch::new();
        for source in 0..8 {
            let fast = within(&mut scratch, &g, source, f64::INFINITY, &cfg);
            assert_bitwise_equal(&fast, &dijkstra::shortest_path_distances(&g, source));
        }
    }

    #[test]
    fn scratch_survives_switching_graphs() {
        let small = path_graph(3);
        let big = path_graph(40);
        let mut scratch = BucketScratch::new();
        let cfg_small = BucketConfig::for_graph(&small);
        let cfg_big = BucketConfig::for_graph(&big);
        let a = within(&mut scratch, &big, 0, f64::INFINITY, &cfg_big);
        assert_eq!(a.len(), 40);
        let b = within(&mut scratch, &small, 2, f64::INFINITY, &cfg_small);
        assert_eq!(b, vec![Some(2.0), Some(1.0), Some(0.0)]);
        let c = within(&mut scratch, &big, 39, f64::INFINITY, &cfg_big);
        assert_bitwise_equal(&c, &dijkstra::shortest_path_distances(&big, 39));
    }

    #[test]
    fn visitor_sweep_matches_the_bounded_oracle() {
        let g = path_graph(10);
        let cfg = BucketConfig::for_graph(&g);
        let mut scratch = BucketScratch::new();
        for source in 0..10 {
            for radius in [0.0, 1.5, 3.0, f64::INFINITY] {
                assert_bitwise_equal(
                    &within(&mut scratch, &g, source, radius, &cfg),
                    &dijkstra::shortest_path_distances_bounded(&g, source, radius),
                );
            }
        }
    }

    #[test]
    fn visitor_sweep_leaves_scratch_clean_for_reuse() {
        let g = path_graph(6);
        let cfg = BucketConfig::for_graph(&g);
        let mut scratch = BucketScratch::new();
        let mut count = 0;
        scratch.for_each_within(&g, 0, 2.0, &cfg, |_, _| count += 1);
        assert_eq!(count, 3); // nodes 0, 1, 2
                              // A dense query on the same scratch still matches the oracle.
        let after = within(&mut scratch, &g, 3, f64::INFINITY, &cfg);
        assert_bitwise_equal(&after, &dijkstra::shortest_path_distances(&g, 3));
    }

    #[test]
    fn targets_early_exit_returns_final_distances() {
        let g = path_graph(100);
        let cfg = BucketConfig::for_graph(&g);
        let mut scratch = BucketScratch::new();
        let mut out = Vec::new();
        scratch.distances_to_targets(&g, 0, &[1, 3, 2], &cfg, &mut out);
        assert_eq!(out, vec![1.0, 3.0, 2.0]);
        // A second call on the same scratch still matches the oracle.
        scratch.distances_to_targets(&g, 50, &[49, 51, 0], &cfg, &mut out);
        assert_eq!(out, vec![1.0, 1.0, 50.0]);
    }

    #[test]
    fn unreachable_targets_are_infinite() {
        let mut g = path_graph(3);
        g.grow_to(5);
        let cfg = BucketConfig::for_graph(&g);
        let mut out = Vec::new();
        BucketScratch::new().distances_to_targets(&g, 0, &[2, 4], &cfg, &mut out);
        assert_eq!(out[0], 2.0);
        assert!(out[1].is_infinite());
    }

    #[test]
    fn zero_weight_edges_settle_in_the_same_bucket() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 0.0);
        let cfg = BucketConfig::for_graph(&g);
        assert_bitwise_equal(
            &within(&mut BucketScratch::new(), &g, 0, f64::INFINITY, &cfg),
            &dijkstra::shortest_path_distances(&g, 0),
        );
    }

    #[test]
    fn all_zero_weight_graph_terminates() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        g.add_edge(2, 0, 0.0);
        let cfg = BucketConfig::for_graph(&g);
        let d = within(&mut BucketScratch::new(), &g, 0, f64::INFINITY, &cfg);
        assert_eq!(d, vec![Some(0.0), Some(0.0), Some(0.0), None]);
    }

    #[test]
    fn extreme_weight_ratios_stay_within_the_ring_cap() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1e-9);
        g.add_edge(1, 2, 1e-9);
        g.add_edge(2, 3, 1.0);
        let cfg = BucketConfig::for_graph(&g);
        assert!(cfg.slots <= MAX_SPAN + 3);
        assert_bitwise_equal(
            &within(&mut BucketScratch::new(), &g, 0, f64::INFINITY, &cfg),
            &dijkstra::shortest_path_distances(&g, 0),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn source_out_of_range_panics() {
        let g = path_graph(2);
        let cfg = BucketConfig::for_graph(&g);
        let _ = within(&mut BucketScratch::new(), &g, 5, f64::INFINITY, &cfg);
    }

    fn random_graph(seed: u64, n: usize, p: f64, zero_weight_p: f64) -> WeightedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    let w = if rng.gen_bool(zero_weight_p) {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random sparse graphs — including zero-weight edges and
        /// disconnected pieces — give bitwise-identical distances from
        /// every source, on both representations.
        #[test]
        fn bucket_matches_heap_bitwise(
            seed in 0u64..1000,
            n in 2usize..30,
            p in 0.03f64..0.4,
            zp in 0.0f64..0.3,
        ) {
            let g = random_graph(seed, n, p, zp);
            let csr = CsrGraph::from(&g);
            let cfg = BucketConfig::for_graph(&csr);
            let mut scratch = BucketScratch::new();
            for s in 0..n {
                let fast = within(&mut scratch, &csr, s, f64::INFINITY, &cfg);
                let oracle = dijkstra::shortest_path_distances(&g, s);
                for (i, (a, b)) in fast.iter().zip(oracle.iter()).enumerate() {
                    match (a, b) {
                        (Some(x), Some(y)) => prop_assert_eq!(
                            x.to_bits(), y.to_bits(), "seed {} source {} node {}", seed, s, i
                        ),
                        (None, None) => {}
                        _ => prop_assert!(false, "reachability mismatch at node {}", i),
                    }
                }
            }
        }

        /// Radius-bounded and budgeted variants agree with their oracles.
        #[test]
        fn bounded_variants_match_heap_bitwise(
            seed in 0u64..500,
            n in 2usize..25,
            radius in 0.0f64..3.0,
        ) {
            let g = random_graph(seed, n, 0.25, 0.05);
            let cfg = BucketConfig::for_graph(&g);
            let mut scratch = BucketScratch::new();
            let fast = within(&mut scratch, &g, 0, radius, &cfg);
            let oracle = dijkstra::shortest_path_distances_bounded(&g, 0, radius);
            for (a, b) in fast.iter().zip(oracle.iter()) {
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
            }
            for t in 0..n {
                let budget = radius;
                let fast = scratch.shortest_path_within(&g, 0, t, budget, &cfg);
                let oracle = dijkstra::shortest_path_within(&g, 0, t, budget);
                prop_assert_eq!(fast.map(f64::to_bits), oracle.map(f64::to_bits));
            }
        }

        /// The target-directed early exit returns exactly the full-sweep
        /// distances for the requested targets.
        #[test]
        fn targeted_sweep_matches_full_sweep(
            seed in 0u64..500,
            n in 2usize..25,
            p in 0.05f64..0.4,
        ) {
            let g = random_graph(seed, n, p, 0.1);
            let cfg = BucketConfig::for_graph(&g);
            let mut scratch = BucketScratch::new();
            let mut out = Vec::new();
            let targets: Vec<usize> = (0..n).step_by(2).collect();
            for s in 0..n {
                scratch.distances_to_targets(&g, s, &targets, &cfg, &mut out);
                let oracle = dijkstra::shortest_path_distances(&g, s);
                for (&t, &d) in targets.iter().zip(out.iter()) {
                    let expect = oracle[t].unwrap_or(f64::INFINITY);
                    prop_assert_eq!(d.to_bits(), expect.to_bits(), "source {} target {}", s, t);
                }
            }
        }
    }
}
