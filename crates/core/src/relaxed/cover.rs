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

/// One cover level: the cluster centres, by cluster id, and the
/// contraction of the spanner over the clusters.
///
/// The paper's cover may cover a node by several clusters; for the
/// query-edge selection each node needs one *home* cluster, so the
/// constructors also fix an assignment. Every later step reads a cluster
/// only through that assignment and each node's shortest-path distance to
/// its centre (the `sp_{G'_{i-1}}(a, x)` term of the selection
/// objective), which are exactly the contraction's `supernode_of` and
/// `offset`: the cover fills them in directly.
#[derive(Debug)]
pub(crate) struct Level {
    /// The cluster centres, ascending by position.
    pub centers: Vec<NodeId>,
    /// The quotient over the clusters; node `v`'s cluster and distance to
    /// its centre are `contraction.project(v)`.
    pub contraction: Contraction,
}

impl Level {
    /// The sequential greedy construction from the paper: repeatedly pick
    /// an uncovered node, make it a centre, and claim every still-uncovered
    /// node within shortest-path distance `radius` in `graph`. Test code
    /// only: the phase engine rebuilds its levels with
    /// [`Level::greedy_with_candidates`].
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
        let mut center_of = vec![u32::MAX; n];
        let mut dist_to_center = vec![f64::INFINITY; n];
        // A node whose every edge is longer than `radius` is reached by no
        // other sweep, and its own sweep reaches no other node: it is a
        // singleton centre whatever the candidate order. Claiming those
        // first, in position order, leaves the greedy outcome unchanged and
        // keeps the ordered loop below to the nodes whose balls can meet.
        let mut linked = vec![false; n];
        for u in 0..n {
            if graph.neighbors(u).iter().all(|&(_, w)| w > radius) {
                center_of[u] = u as u32;
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
            if center_of[u] != u32::MAX {
                continue;
            }
            // A node is claimed at most once per sweep, so the (unspecified)
            // visit order cannot change the resulting assignment. The
            // centre claims itself first, at distance 0.
            scratch.for_each_within(graph, u, radius, &config, |v, d| {
                if center_of[v] == u32::MAX {
                    center_of[v] = u as u32;
                    dist_to_center[v] = d;
                }
            });
        }
        let centers = (0..n).filter(|&v| center_of[v] as usize == v).collect();
        Self::numbered(graph, order, centers, center_of, dist_to_center)
    }

    /// Builds a level from an externally supplied set of distinct centres
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
        let mut center_of = vec![u32::MAX; n];
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
                if current == u32::MAX || order.node_at(c) > order.node_at(current as usize) {
                    center_of[v] = c as u32;
                    dist_to_center[v] = d;
                }
            });
        }
        for v in 0..n {
            if center_of[v] == u32::MAX {
                center_of[v] = v as u32;
                dist_to_center[v] = 0.0;
                is_center[v] = true;
            }
        }
        let all_centers = (0..n).filter(|&v| is_center[v]).collect();
        Self::numbered(graph, order, all_centers, center_of, dist_to_center)
    }

    /// The level in which node `v` belongs to the cluster centred at
    /// position `center_of[v]`: the clusters are numbered in place in
    /// ascending centre position (`centers`, ascending), so the quotient
    /// over them is laid out like the nodes, and every edge of `graph` is
    /// absorbed. The numbering never decides anything: every consumer
    /// reads a cluster's centre and distances, not its number. `graph` is
    /// numbered by the positions of `order`; each edge is absorbed from its
    /// endpoint with the lower original ID, as the original graph lists it,
    /// so every quotient weight `offset + w + offset` is the same sum bit
    /// for bit.
    fn numbered(
        graph: &WeightedGraph,
        order: &NodeOrder,
        centers: Vec<NodeId>,
        mut center_of: Vec<u32>,
        dist_to_center: Vec<f64>,
    ) -> Self {
        let mut index = vec![u32::MAX; center_of.len()];
        for (i, &c) in centers.iter().enumerate() {
            index[c] = i as u32;
        }
        for c in &mut center_of {
            *c = index[*c as usize];
        }
        let edges = graph.edges().map(|e| order.orient(e));
        let contraction = Contraction::from_edges(center_of, dist_to_center, centers.len(), edges);
        Self {
            centers,
            contraction,
        }
    }

    /// Validates the level as a cover of `graph` with radius `radius`:
    /// every node is assigned, assigned distances are within the radius,
    /// and distinct centres are more than `radius` apart in `graph`.
    #[cfg(test)]
    pub fn is_valid_cover(&self, graph: &WeightedGraph, radius: f64) -> bool {
        let n = graph.node_count();
        if self.contraction.node_count() != n {
            return false;
        }
        for v in 0..n {
            let (cluster, dist) = self.contraction.project(v);
            if cluster >= self.centers.len() {
                return false;
            }
            if dist > radius + 1e-9 {
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
            scratch.for_each_within(graph, a, radius, &config, |v, d| {
                let j = center_pos[v];
                if j != usize::MAX && j > i && d <= radius {
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

    /// The centre of `v`'s cluster.
    fn center_of(level: &Level, v: NodeId) -> NodeId {
        level.centers[level.contraction.supernode_of(v)]
    }

    #[test]
    fn greedy_cover_of_a_path() {
        let g = path_graph(10, 1.0);
        let level = Level::greedy(&g, 2.0);
        assert!(level.is_valid_cover(&g, 2.0));
        // Growing radius-2 clusters from the left end of a 10-node
        // unit-weight path claims nodes {0,1,2}, {3,4,5}, {6,7,8}, {9}.
        assert_eq!(level.centers.len(), 4);
        assert_eq!(center_of(&level, 0), 0);
        assert_eq!(level.contraction.supernode_of(2), 0);
        assert!((level.contraction.offset(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_radius_cover_makes_singletons() {
        let g = path_graph(4, 1.0);
        let level = Level::greedy(&g, 0.0);
        assert_eq!(level.centers.len(), 4);
        assert!(level.is_valid_cover(&g, 0.0));
        for v in 0..4 {
            assert_eq!(center_of(&level, v), v);
            assert_eq!(level.contraction.offset(v), 0.0);
        }
    }

    #[test]
    fn members_partition_the_nodes() {
        let g = path_graph(9, 0.5);
        let level = Level::greedy(&g, 1.0);
        let mut members = vec![0; level.centers.len()];
        for v in 0..9 {
            members[level.contraction.supernode_of(v)] += 1;
        }
        assert_eq!(members.iter().sum::<usize>(), 9);
        for (c, &center) in level.centers.iter().enumerate() {
            assert!(members[c] > 0);
            assert_eq!(level.contraction.supernode_of(center), c);
        }
    }

    #[test]
    fn cover_on_disconnected_graph_covers_isolated_nodes() {
        let mut g = path_graph(3, 1.0);
        g.grow_to(5);
        let level = Level::greedy(&g, 1.0);
        assert!(level.is_valid_cover(&g, 1.0));
        assert!(level.centers.len() >= 3);
        assert_eq!(level.contraction.offset(4), 0.0);
    }

    #[test]
    fn from_centers_attaches_to_highest_identifier() {
        let g = path_graph(5, 1.0);
        // Centres 0 and 4, radius 2: node 2 can reach both; it must attach
        // to centre 4 (the higher identifier).
        let level = Level::from_centers(&g, &[0, 4], 2.0, &NodeOrder::identity(5));
        assert_eq!(center_of(&level, 2), 4);
        assert_eq!(center_of(&level, 1), 0);
        assert_eq!(level.centers.len(), 2);
    }

    #[test]
    fn from_centers_adds_singletons_for_unreached_nodes() {
        let g = path_graph(5, 1.0);
        let level = Level::from_centers(&g, &[0], 1.0, &NodeOrder::identity(5));
        // Nodes 2, 3, 4 are unreachable within radius 1 from centre 0.
        assert!(level.centers.len() >= 4);
        assert_eq!(center_of(&level, 3), 3);
        // Every node still has an assignment within the radius.
        for v in 0..5 {
            assert!(level.contraction.offset(v) <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_rejected() {
        let g = path_graph(3, 1.0);
        let _ = Level::greedy(&g, -1.0);
    }

    /// The quotient edges of a level as `(centre, centre, weight bits)`,
    /// centres by original ID, sorted.
    fn quotient_by_original_centres(
        graph: &WeightedGraph,
        radius: f64,
        order: &NodeOrder,
    ) -> Vec<(usize, usize, u64)> {
        let Level {
            centers,
            contraction,
        } = Level::greedy_with_candidates(graph, radius, &[], order);
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
            let level = Level::greedy(&g, radius);
            prop_assert!(level.is_valid_cover(&g, radius));
            // Centres are exactly the nodes assigned to themselves at distance 0.
            for (c, &center) in level.centers.iter().enumerate() {
                prop_assert_eq!(level.contraction.project(center), (c, 0.0));
            }
        }
    }
}
