//! Graph contraction: a quotient graph over a supernode assignment, with
//! incremental edge absorption.
//!
//! The spanner pipeline's hierarchical phase engine (`tc-spanner`'s
//! `relaxed::hierarchy`) collapses each cluster of a cover into one
//! *supernode* and keeps, between every pair of supernodes, the cheapest
//! known *through-representative* connection: for an original edge
//! `{u, v}` of weight `w`, the connection value is
//! `offset(u) + w + offset(v)`, where `offset(x)` is the recorded distance
//! from `x` to its supernode's representative. Every quotient edge weight
//! therefore corresponds to a real walk between the two representatives in
//! the underlying graph — quotient distances *upper-bound* true
//! representative distances, which is the soundness direction the spanner
//! queries need.
//!
//! The structure is deliberately generic: it knows nothing about covers or
//! phases, only about an assignment `node → supernode`, per-node offsets,
//! and a stream of absorbed edges.
//!
//! The quotient is searched in place between absorptions, so the
//! contraction also keeps the weight statistics a bucket search needs
//! ([`Contraction::bucket_config`]) up to date in O(1) per absorbed edge
//! instead of rescanning every quotient edge before each batch of queries.

use crate::bucket::BucketConfig;
use crate::{Edge, NodeId, WeightedGraph};

/// A quotient graph over a supernode assignment, maintained incrementally.
///
/// # Example
///
/// ```
/// use tc_graph::{Contraction, Edge};
///
/// // Two supernodes: {0, 1} with representative 0, {2, 3} with
/// // representative 2; node 1 is 0.5 from its representative, node 3 is
/// // 0.25 from its.
/// let mut c = Contraction::new(vec![0, 0, 1, 1], vec![0.0, 0.5, 0.25, 0.0], 2);
/// c.absorb(Edge::new(1, 2, 1.0));
/// assert_eq!(c.quotient().edge_weight(0, 1), Some(0.5 + 1.0 + 0.25));
/// // A cheaper crossing connection replaces the recorded one.
/// c.absorb(Edge::new(0, 3, 1.0));
/// assert_eq!(c.quotient().edge_weight(0, 1), Some(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Contraction {
    supernode_of: Vec<u32>,
    offset: Vec<f64>,
    quotient: WeightedGraph,
    /// Running sum of the quotient's edge weights.
    weight_sum: f64,
    /// Upper bound on the quotient's largest edge weight: the largest
    /// weight ever recorded (a replacement only ever lowers a weight).
    max_weight: f64,
}

impl Contraction {
    /// Creates an edgeless contraction from an assignment and per-node
    /// offsets. `supernode_of[v]` is the supernode of node `v`,
    /// `offset[v]` its connection cost to that supernode's representative
    /// (0 for the representative itself).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length, if an assignment is out
    /// of range, or if an offset is negative or non-finite.
    pub fn new(supernode_of: Vec<u32>, offset: Vec<f64>, supernodes: usize) -> Self {
        assert_eq!(
            supernode_of.len(),
            offset.len(),
            "one offset per assigned node is required"
        );
        for &s in &supernode_of {
            assert!((s as usize) < supernodes, "supernode {s} is out of range");
        }
        for &d in &offset {
            assert!(
                d >= 0.0 && d.is_finite(),
                "offsets must be finite and non-negative"
            );
        }
        Self {
            supernode_of,
            offset,
            quotient: WeightedGraph::new(supernodes),
            weight_sum: 0.0,
            max_weight: 0.0,
        }
    }

    /// Creates a contraction and absorbs `edges` in order (the bulk form
    /// of [`Self::absorb`]).
    pub fn from_edges(
        supernode_of: Vec<u32>,
        offset: Vec<f64>,
        supernodes: usize,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Self {
        let mut contraction = Self::new(supernode_of, offset, supernodes);
        for e in edges {
            contraction.absorb(e);
        }
        contraction
    }

    /// Number of nodes of the underlying graph.
    pub fn node_count(&self) -> usize {
        self.supernode_of.len()
    }

    /// Number of supernodes.
    pub fn supernode_count(&self) -> usize {
        self.quotient.node_count()
    }

    /// The supernode of node `v`.
    pub fn supernode_of(&self, v: NodeId) -> usize {
        self.supernode_of[v] as usize
    }

    /// The offset (connection cost to the supernode representative) of
    /// node `v`.
    pub fn offset(&self, v: NodeId) -> f64 {
        self.offset[v]
    }

    /// Both projections of `v` at once: `(supernode, offset)`.
    pub fn project(&self, v: NodeId) -> (usize, f64) {
        (self.supernode_of[v] as usize, self.offset[v])
    }

    /// The quotient graph: one node per supernode, one edge per supernode
    /// pair with at least one absorbed crossing edge, weighted by the
    /// cheapest known through-representative connection.
    pub fn quotient(&self) -> &WeightedGraph {
        &self.quotient
    }

    /// The bucket configuration for searches on [`Self::quotient`], from
    /// running statistics: Δ is the mean quotient edge weight (equal to a
    /// fresh scan's up to rounding) and the ring spans the largest weight
    /// any quotient edge ever had, an upper bound on the current maximum.
    /// Distances are exact minima whatever Δ is, so this differs from
    /// [`BucketConfig::for_graph`] only in speed, never in results — and
    /// costs O(1) instead of a scan of every quotient edge.
    pub fn bucket_config(&self) -> BucketConfig {
        let mean = match self.quotient.edge_count() {
            0 => 0.0,
            edges => self.weight_sum / edges as f64,
        };
        BucketConfig::new(mean, self.max_weight)
    }

    /// Absorbs one edge of the underlying graph. A crossing edge adds (or
    /// cheapens) the quotient edge between its endpoints' supernodes; an
    /// intra-supernode edge is a no-op. Returns whether the quotient
    /// changed.
    pub fn absorb(&mut self, e: Edge) -> bool {
        let su = self.supernode_of[e.u] as usize;
        let sv = self.supernode_of[e.v] as usize;
        if su == sv {
            return false;
        }
        let value = self.offset[e.u] + e.weight + self.offset[e.v];
        match self.quotient.edge_weight(su, sv) {
            Some(current) if current <= value => false,
            previous => {
                self.quotient.add_edge(su, sv, value);
                self.weight_sum += value - previous.unwrap_or(0.0);
                self.max_weight = self.max_weight.max(value);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path_to;
    use crate::GraphView;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn intra_edges_are_ignored() {
        let mut c = Contraction::new(vec![0, 0, 1], vec![0.0, 0.1, 0.0], 2);
        assert!(!c.absorb(Edge::new(0, 1, 0.5)));
        assert!(c.quotient().is_edgeless());
    }

    #[test]
    fn crossing_edges_keep_the_minimum_connection() {
        let mut c = Contraction::new(vec![0, 0, 1, 1], vec![0.0, 0.5, 0.25, 0.0], 2);
        assert!(c.absorb(Edge::new(1, 2, 1.0)));
        assert_eq!(c.quotient().edge_weight(0, 1), Some(1.75));
        // Worse connection: no change.
        assert!(!c.absorb(Edge::new(1, 3, 2.0)));
        assert_eq!(c.quotient().edge_weight(0, 1), Some(1.75));
        // Better connection: replaced.
        assert!(c.absorb(Edge::new(0, 3, 1.0)));
        assert_eq!(c.quotient().edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn from_edges_matches_edge_by_edge_absorption() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 0.3);
        g.add_edge(1, 2, 0.7);
        g.add_edge(2, 3, 0.2);
        g.add_edge(0, 3, 2.0);
        let assign = vec![0u32, 0, 1, 1];
        let offs = vec![0.0, 0.3, 0.0, 0.2];
        let bulk = Contraction::from_edges(assign.clone(), offs.clone(), 2, g.edges());
        let mut incremental = Contraction::new(assign, offs, 2);
        for e in g.edges() {
            incremental.absorb(e);
        }
        assert_eq!(
            bulk.quotient().sorted_edges(),
            incremental.quotient().sorted_edges()
        );
    }

    #[test]
    fn weight_stats_track_additions_and_replacements() {
        let mut c = Contraction::new(vec![0, 0, 1, 1, 2], vec![0.0, 0.5, 0.25, 0.0, 0.0], 3);
        assert_eq!((c.weight_sum, c.max_weight), (0.0, 0.0));
        c.absorb(Edge::new(1, 2, 1.0)); // 0-1 at 1.75
        c.absorb(Edge::new(3, 4, 0.5)); // 1-2 at 0.5
        assert_eq!((c.weight_sum, c.max_weight), (1.75 + 0.5, 1.75));
        assert_eq!(c.bucket_config().delta(), (1.75 + 0.5) / 2.0);
        // Replacing the heaviest edge lowers the mean; the max bound keeps
        // the old, now loose, value.
        c.absorb(Edge::new(0, 3, 1.0)); // 0-1 at 1.0
        assert_eq!((c.weight_sum, c.max_weight), (1.0 + 0.5, 1.75));
        assert_eq!(c.bucket_config().delta(), (1.0 + 0.5) / 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_assignment_is_rejected() {
        let _ = Contraction::new(vec![0, 2], vec![0.0, 0.0], 2);
    }

    #[test]
    #[should_panic(expected = "one offset per assigned node")]
    fn mismatched_lengths_are_rejected() {
        let _ = Contraction::new(vec![0, 1], vec![0.0], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Under a stream of absorptions full of weight replacements, the
        /// running statistics agree with a fresh scan of the quotient: the
        /// max bound is at least the true max, and the mean (Δ) equals
        /// [`BucketConfig::for_graph`]'s up to rounding.
        #[test]
        fn running_weight_stats_match_a_fresh_scan(
            seed in 0u64..500,
            n in 2usize..30,
            supernodes in 1usize..8,
            absorbed in 0usize..120,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let assignment: Vec<u32> =
                (0..n).map(|_| rng.gen_range(0..supernodes) as u32).collect();
            let offsets: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.5)).collect();
            let mut c = Contraction::new(assignment, offsets, supernodes);
            for _ in 0..absorbed {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    c.absorb(Edge::new(u, v, rng.gen_range(0.01..2.0)));
                }
            }
            let mut true_max = 0.0_f64;
            c.quotient().for_each_edge(|e| true_max = true_max.max(e.weight));
            prop_assert!(c.max_weight >= true_max);
            // Both Δs are the mean (the weights here keep the ring far
            // below its slot cap, which would widen Δ).
            let running = c.bucket_config().delta();
            let scanned = BucketConfig::for_graph(c.quotient()).delta();
            prop_assert!(
                (running - scanned).abs() <= 1e-12 * scanned,
                "running mean {running} vs scanned {scanned}"
            );
        }

        /// Quotient distances between representatives never underestimate
        /// the true distances in the underlying graph — every quotient
        /// edge corresponds to a real walk through the representatives.
        #[test]
        fn quotient_distances_upper_bound_true_distances(
            seed in 0u64..200,
            n in 2usize..24,
            p in 0.1f64..0.6,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        g.add_edge(u, v, rng.gen_range(0.05..1.0));
                    }
                }
            }
            // Representatives: a random subset of nodes. Every node joins
            // the reachable representative of lowest id (offset = true
            // distance); unreached nodes become singleton supernodes.
            let mut reps: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            let mut assignment = vec![u32::MAX; n];
            let mut offset = vec![0.0_f64; n];
            for (s, &r) in reps.iter().enumerate() {
                assignment[r] = s as u32;
            }
            for v in 0..n {
                if assignment[v] != u32::MAX {
                    continue;
                }
                let joined = reps
                    .iter()
                    .enumerate()
                    .find_map(|(s, &r)| shortest_path_to(&g, r, v).map(|d| (s, d)));
                match joined {
                    Some((s, d)) => {
                        assignment[v] = s as u32;
                        offset[v] = d;
                    }
                    None => {
                        assignment[v] = reps.len() as u32;
                        reps.push(v);
                    }
                }
            }
            let c = Contraction::from_edges(assignment, offset, reps.len(), g.edges());
            for a in 0..reps.len() {
                for b in (a + 1)..reps.len() {
                    if let Some(w) = c.quotient().edge_weight(a, b) {
                        let true_d = shortest_path_to(&g, reps[a], reps[b]);
                        prop_assert!(true_d.is_some(), "quotient edge without a real path");
                        prop_assert!(
                            w >= true_d.unwrap() - 1e-9,
                            "quotient weight {w} underestimates true distance {:?}",
                            true_d
                        );
                    }
                }
            }
        }
    }
}
