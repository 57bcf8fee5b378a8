//! Cluster covers (Section 2.2.1 of the paper).
//!
//! A *cluster cover* of a graph `J` with radius `ρ` is a set of clusters
//! `{C_{u_1}, C_{u_2}, …}` such that every cluster `C_u` consists of nodes
//! at shortest-path distance at most `ρ` from its centre `u`, every node
//! belongs to at least one cluster, and distinct centres are at
//! shortest-path distance more than `ρ` from each other. Phase `i` of the
//! relaxed greedy algorithm computes a cover of the partial spanner
//! `G'_{i-1}` with radius `δ·W_{i-1}`.

use tc_graph::bucket::{BucketConfig, BucketScratch};
use tc_graph::{Contraction, NodeId, NodeOrder, WeightedGraph};

/// A cluster cover with a unique cluster assignment per node.
///
/// The paper's cover may cover a node by several clusters; for the
/// query-edge selection each node needs one *home* cluster, so the
/// constructors also fix an assignment (and record the shortest-path
/// distance from each node to its assigned centre, which is exactly the
/// `sp_{G'_{i-1}}(a, x)` term of the selection objective).
#[derive(Debug, Clone)]
pub struct ClusterCover {
    radius: f64,
    centers: Vec<NodeId>,
    cluster_of: Vec<usize>,
    dist_to_center: Vec<f64>,
}

impl ClusterCover {
    /// The sequential greedy construction from the paper: repeatedly pick
    /// an uncovered node, make it a centre, and claim every still-uncovered
    /// node within shortest-path distance `radius` in `graph`. Test code
    /// only: the phase engine rebuilds its levels with
    /// [`ClusterCover::greedy_with_candidates`].
    ///
    /// # Panics
    ///
    /// Panics if `radius < 0`.
    #[cfg(test)]
    pub fn greedy(graph: &WeightedGraph, radius: f64) -> Self {
        let order = NodeOrder::identity(graph.node_count());
        Self::greedy_with_candidates(graph, radius, &[], &order)
    }

    /// The paper's greedy cover construction — repeatedly pick an uncovered
    /// node, make it a centre, and claim every still-uncovered node within
    /// shortest-path distance `radius` in `graph` — with an explicit
    /// candidate priority: the nodes marked in `priority` are offered
    /// centre-hood first, then every remaining uncovered node, each group
    /// in ascending original ID, so the result is always a complete greedy
    /// cover. `graph` is numbered by the positions of `order`, and
    /// `priority` is indexed by original ID (empty: no priority). With
    /// an empty priority this *is* the paper's construction; the
    /// hierarchical phase engine marks the
    /// previous level's centres, which makes each new cluster a coarsening
    /// of the contracted (previous-level) clusters wherever possible while
    /// the claiming sweeps still run on the real graph — coverage radii
    /// and centre separation are exact, never quotient approximations.
    ///
    /// # Panics
    ///
    /// Panics if `radius < 0`, or if `priority` is neither empty nor one
    /// entry per node.
    pub fn greedy_with_candidates(
        graph: &WeightedGraph,
        radius: f64,
        priority: &[bool],
        order: &NodeOrder,
    ) -> Self {
        assert!(radius >= 0.0, "the cluster radius must be non-negative");
        let n = graph.node_count();
        assert!(
            priority.is_empty() || priority.len() == n,
            "the priority marks every node or none"
        );
        let mut center_of = vec![usize::MAX; n];
        let mut dist_to_center = vec![f64::INFINITY; n];
        // A node whose every edge is longer than `radius` is reached by no
        // other sweep, and its own sweep reaches no other node: it is a
        // singleton centre whatever the candidate order. Claiming those
        // first, in position order, leaves the greedy outcome unchanged and
        // keeps the ordered loop below to the nodes whose balls can meet.
        let mut linked = vec![false; n];
        for u in 0..n {
            if graph.neighbors(u).iter().all(|&(_, w)| w > radius) {
                center_of[u] = u;
                dist_to_center[u] = 0.0;
            } else {
                linked[order.node_at(u)] = true;
            }
        }
        let prioritised = |v: NodeId| priority.get(v).copied().unwrap_or(false);
        let first = (0..n).filter(|&v| linked[v] && prioritised(v));
        let then = (0..n).filter(|&v| linked[v] && !prioritised(v));
        // One bucket config and scratch for the whole construction: the
        // per-centre searches are radius-bounded visitor sweeps, so each
        // one costs O(nodes actually reached) — never O(n) — which is what
        // keeps the cover construction near-linear at 10^6 nodes.
        let config = BucketConfig::for_graph(graph);
        let mut scratch = BucketScratch::new();
        for u in first.chain(then).map(|v| order.position(v)) {
            if center_of[u] != usize::MAX {
                continue;
            }
            // A node is claimed at most once per sweep, so the (unspecified)
            // visit order cannot change the resulting assignment. The
            // centre claims itself first, at distance 0.
            scratch.for_each_within(graph, u, radius, &config, |v, d| {
                if center_of[v] == usize::MAX {
                    center_of[v] = u;
                    dist_to_center[v] = d;
                }
            });
        }
        let centers = (0..n).filter(|&v| center_of[v] == v).collect();
        Self::numbered(radius, centers, center_of, dist_to_center)
    }

    /// Builds a cover from an externally supplied set of distinct centres
    /// (the distributed algorithm obtains them as an MIS of the "within
    /// radius" graph). Every node attaches to the reachable centre with
    /// the *highest identifier*, mirroring the paper's tie-breaking rule;
    /// nodes no centre reaches become singleton clusters of their own
    /// (this can only happen if `centers` was not maximal). `graph` is
    /// numbered by the positions of `order`, and identifiers are the
    /// original nodes.
    pub fn from_centers(
        graph: &WeightedGraph,
        centers: &[NodeId],
        radius: f64,
        order: &NodeOrder,
    ) -> Self {
        assert!(radius >= 0.0, "the cluster radius must be non-negative");
        let n = graph.node_count();
        let mut center_of = vec![usize::MAX; n];
        let mut dist_to_center = vec![f64::INFINITY; n];
        let mut is_center = vec![false; n];
        let config = BucketConfig::for_graph(graph);
        let mut scratch = BucketScratch::new();
        for &c in centers {
            assert!(c < n, "cluster centre {c} is out of range");
            is_center[c] = true;
            // Highest-identifier-wins is independent of the visit order
            // within a sweep, so the bounded visitor keeps the assignment
            // identical to the dense-vector formulation.
            scratch.for_each_within(graph, c, radius, &config, |v, d| {
                let current = center_of[v];
                if current == usize::MAX || order.node_at(c) > order.node_at(current) {
                    center_of[v] = c;
                    dist_to_center[v] = d;
                }
            });
        }
        for v in 0..n {
            if center_of[v] == usize::MAX {
                center_of[v] = v;
                dist_to_center[v] = 0.0;
                is_center[v] = true;
            }
        }
        let all_centers = (0..n).filter(|&v| is_center[v]).collect();
        Self::numbered(radius, all_centers, center_of, dist_to_center)
    }

    /// The cover in which node `v` belongs to the cluster centred at
    /// `center_of[v]`, the clusters numbered in ascending centre position
    /// (`centers`, ascending), so the quotient over them is laid out like
    /// the nodes. The numbering never decides anything: every consumer
    /// reads a cluster's members, centre and distances, not its number.
    fn numbered(
        radius: f64,
        centers: Vec<NodeId>,
        mut center_of: Vec<usize>,
        dist_to_center: Vec<f64>,
    ) -> Self {
        let mut index = vec![u32::MAX; center_of.len()];
        for (i, &c) in centers.iter().enumerate() {
            index[c] = i as u32;
        }
        for c in &mut center_of {
            *c = index[*c] as usize;
        }
        Self {
            radius,
            centers,
            cluster_of: center_of,
            dist_to_center,
        }
    }

    /// Turns the cover into its contraction of `graph` — one supernode per
    /// cluster, each node at its distance to its centre, every edge of
    /// `graph` absorbed — and returns the centres beside it. The cover is
    /// consumed, so its per-node assignment lives on only in the
    /// contraction's `supernode_of`/`offset`. `graph` is numbered by the
    /// positions of `order`; each edge is absorbed from its endpoint with
    /// the lower original ID, as the original graph lists it, so every
    /// quotient weight `offset + w + offset` is the same sum bit for bit.
    pub fn into_contraction(
        self,
        graph: &WeightedGraph,
        order: &NodeOrder,
    ) -> (Vec<NodeId>, Contraction) {
        let assignment: Vec<u32> = self.cluster_of.iter().map(|&c| c as u32).collect();
        let clusters = self.centers.len();
        let edges = graph.edges().map(|e| order.orient(e));
        let contraction = Contraction::from_edges(assignment, self.dist_to_center, clusters, edges);
        (self.centers, contraction)
    }

    /// A cover from its parts (test code rebuilds the engine's level
    /// cover from the contraction it keeps).
    #[cfg(test)]
    pub(crate) fn from_parts(
        radius: f64,
        centers: Vec<NodeId>,
        cluster_of: Vec<usize>,
        dist_to_center: Vec<f64>,
    ) -> Self {
        Self {
            radius,
            centers,
            cluster_of,
            dist_to_center,
        }
    }

    /// The cover radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The cluster centres, indexed by cluster id.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.centers.len()
    }

    /// The cluster id of node `v`.
    pub fn cluster_of(&self, v: NodeId) -> usize {
        self.cluster_of[v]
    }

    /// The centre node of `v`'s cluster.
    pub fn center_of(&self, v: NodeId) -> NodeId {
        self.centers[self.cluster_of[v]]
    }

    /// Shortest-path distance (in the cover's graph) from `v` to its
    /// assigned centre.
    pub fn dist_to_center(&self, v: NodeId) -> f64 {
        self.dist_to_center[v]
    }

    /// Members of each cluster, indexed by cluster id.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.centers.len()];
        for (v, &c) in self.cluster_of.iter().enumerate() {
            members[c].push(v);
        }
        members
    }

    /// Validates the cover against the defining properties: every node is
    /// assigned, assigned distances are within the radius, and distinct
    /// centres are more than `radius` apart in `graph`. Used by tests and
    /// by the verification layer.
    pub fn is_valid_cover(&self, graph: &WeightedGraph) -> bool {
        let n = graph.node_count();
        if self.cluster_of.len() != n {
            return false;
        }
        for v in 0..n {
            if self.cluster_of[v] >= self.centers.len() {
                return false;
            }
            if self.dist_to_center[v] > self.radius + 1e-9 {
                return false;
            }
        }
        let mut center_pos = vec![usize::MAX; n];
        for (i, &a) in self.centers.iter().enumerate() {
            if a < n {
                center_pos[a] = i;
            }
        }
        let config = BucketConfig::for_graph(graph);
        let mut scratch = BucketScratch::new();
        for (i, &a) in self.centers.iter().enumerate() {
            let mut separated = true;
            scratch.for_each_within(graph, a, self.radius, &config, |v, d| {
                let j = center_pos[v];
                if j != usize::MAX && j > i && d <= self.radius {
                    separated = false;
                }
            });
            if !separated {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: usize, w: f64) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, w);
        }
        g
    }

    #[test]
    fn greedy_cover_of_a_path() {
        let g = path_graph(10, 1.0);
        let cover = ClusterCover::greedy(&g, 2.0);
        assert!(cover.is_valid_cover(&g));
        // Growing radius-2 clusters from the left end of a 10-node
        // unit-weight path claims nodes {0,1,2}, {3,4,5}, {6,7,8}, {9}.
        assert_eq!(cover.cluster_count(), 4);
        assert_eq!(cover.center_of(0), 0);
        assert_eq!(cover.cluster_of(2), 0);
        assert!((cover.dist_to_center(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_cover_makes_singletons() {
        let g = path_graph(4, 1.0);
        let cover = ClusterCover::greedy(&g, 0.0);
        assert_eq!(cover.cluster_count(), 4);
        assert!(cover.is_valid_cover(&g));
        for v in 0..4 {
            assert_eq!(cover.center_of(v), v);
            assert_eq!(cover.dist_to_center(v), 0.0);
        }
    }

    #[test]
    fn members_partition_the_nodes() {
        let g = path_graph(9, 0.5);
        let cover = ClusterCover::greedy(&g, 1.0);
        let members = cover.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
        for (c, ms) in members.iter().enumerate() {
            for &v in ms {
                assert_eq!(cover.cluster_of(v), c);
            }
        }
    }

    #[test]
    fn cover_on_disconnected_graph_covers_isolated_nodes() {
        let mut g = path_graph(3, 1.0);
        g.grow_to(5);
        let cover = ClusterCover::greedy(&g, 1.0);
        assert!(cover.is_valid_cover(&g));
        assert!(cover.cluster_count() >= 3);
        assert_eq!(cover.dist_to_center(4), 0.0);
    }

    #[test]
    fn from_centers_attaches_to_highest_identifier() {
        let g = path_graph(5, 1.0);
        // Centres 0 and 4, radius 2: node 2 can reach both; it must attach
        // to centre 4 (the higher identifier).
        let cover = ClusterCover::from_centers(&g, &[0, 4], 2.0, &NodeOrder::identity(5));
        assert_eq!(cover.center_of(2), 4);
        assert_eq!(cover.center_of(1), 0);
        assert_eq!(cover.cluster_count(), 2);
    }

    #[test]
    fn from_centers_adds_singletons_for_unreached_nodes() {
        let g = path_graph(5, 1.0);
        let cover = ClusterCover::from_centers(&g, &[0], 1.0, &NodeOrder::identity(5));
        // Nodes 2, 3, 4 are unreachable within radius 1 from centre 0.
        assert!(cover.cluster_count() >= 4);
        assert_eq!(cover.center_of(3), 3);
        // Every node still has an assignment within the radius.
        for v in 0..5 {
            assert!(cover.dist_to_center(v) <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_rejected() {
        let g = path_graph(3, 1.0);
        let _ = ClusterCover::greedy(&g, -1.0);
    }

    /// The quotient edges of a level as `(centre, centre, weight bits)`,
    /// centres by original ID, sorted.
    fn quotient_by_original_centres(
        graph: &WeightedGraph,
        radius: f64,
        order: &NodeOrder,
    ) -> Vec<(usize, usize, u64)> {
        let cover = ClusterCover::greedy_with_candidates(graph, radius, &[], order);
        let (centers, contraction) = cover.into_contraction(graph, order);
        let mut edges: Vec<(usize, usize, u64)> = contraction
            .quotient()
            .edges()
            .map(|e| {
                let (a, b) = (order.node_at(centers[e.u]), order.node_at(centers[e.v]));
                (a.min(b), a.max(b), e.weight.to_bits())
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// A level's cover and quotient do not depend on the node order:
        /// the same centres, and every quotient weight `offset + w +
        /// offset` the same bit for bit, because each edge is absorbed from
        /// its endpoint with the lower original ID.
        #[test]
        fn levels_do_not_depend_on_the_node_order(
            seed in 0u64..500,
            n in 2usize..40,
            p in 0.05f64..0.5,
            radius in 0.0f64..1.5,
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
            let mut nodes: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                nodes.swap(i, rng.gen_range(0..=i));
            }
            let order = NodeOrder::from_nodes(nodes);
            let relabelled = WeightedGraph::from_edges(n, g.edges().map(|e| order.edge_to_positions(e)));
            prop_assert_eq!(
                quotient_by_original_centres(&g, radius, &NodeOrder::identity(n)),
                quotient_by_original_centres(&relabelled, radius, &order)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn greedy_cover_is_always_valid(
            seed in 0u64..500,
            n in 1usize..40,
            p in 0.05f64..0.5,
            radius in 0.0f64..2.0,
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
            let cover = ClusterCover::greedy(&g, radius);
            prop_assert!(cover.is_valid_cover(&g));
            // Centres are exactly the nodes assigned to themselves at distance 0.
            for (c, &center) in cover.centers().iter().enumerate() {
                prop_assert_eq!(cover.cluster_of(center), c);
                prop_assert_eq!(cover.dist_to_center(center), 0.0);
            }
        }
    }
}
