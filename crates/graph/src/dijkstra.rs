//! Single-source shortest paths (Dijkstra) and the bounded variants the
//! spanner construction relies on.
//!
//! Three query shapes appear in the paper:
//!
//! * **Cluster covers** (Section 2.2.1): from a centre `u`, find every node
//!   `v` with `sp_{G'_{i-1}}(u, v) ≤ δ·W_{i-1}` — a radius-bounded search.
//! * **Spanner-path queries** (Sections 2.2.4, and `SEQ-GREEDY` step 3):
//!   decide whether `sp(u, v) ≤ t·|uv|` — a target query with an early
//!   exit once the budget is exceeded.
//! * **Cluster-graph weights** (Section 2.2.3): exact `sp(a, b)` between
//!   nearby nodes.
//!
//! Every function is generic over [`GraphView`], so the same code serves
//! the mutable [`WeightedGraph`](crate::WeightedGraph) used during
//! construction and the flat [`CsrGraph`](crate::CsrGraph) used by the
//! measurement-heavy paths (all-pairs stretch runs one Dijkstra per edge
//! source — the layout matters; see `docs/PERFORMANCE.md`). Distances are
//! tracked internally as plain `f64` with an infinity sentinel, so the
//! relaxation loop touches half the memory of an `Option<f64>` array.

use crate::{cmp_f64, GraphView, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, node)` entry for the min-heap; ordered by distance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the smallest distance;
        // distances are finite, so the total order agrees with `<`.
        cmp_f64(&other.dist, &self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

fn finite_or_none(dist: Vec<f64>) -> Vec<Option<f64>> {
    dist.into_iter()
        .map(|d| if d.is_finite() { Some(d) } else { None })
        .collect()
}

/// Shortest-path distances from `source` to every node.
///
/// `None` marks unreachable nodes.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use tc_graph::{dijkstra, CsrGraph, Edge, WeightedGraph};
///
/// let mut g = WeightedGraph::new(4);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// let d = dijkstra::shortest_path_distances(&g, 0);
/// assert_eq!(d[2], Some(3.0));
/// assert_eq!(d[3], None);
///
/// // The same call works on the flat CSR representation.
/// let csr = CsrGraph::from(&g);
/// assert_eq!(dijkstra::shortest_path_distances(&csr, 0), d);
/// ```
pub fn shortest_path_distances<G: GraphView>(graph: &G, source: NodeId) -> Vec<Option<f64>> {
    shortest_path_distances_bounded(graph, source, f64::INFINITY)
}

/// Shortest-path distances from `source`, restricted to nodes within
/// distance `radius`; nodes farther away (or unreachable) are `None`.
///
/// This is the primitive behind cluster-cover construction: the paper
/// grows clusters `C_u = {v : sp_{G'_{i-1}}(u, v) ≤ δ·W_{i-1}}`.
pub fn shortest_path_distances_bounded<G: GraphView>(
    graph: &G,
    source: NodeId,
    radius: f64,
) -> Vec<Option<f64>> {
    assert!(source < graph.node_count(), "source node out of range");
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        graph.for_each_neighbor(u, |v, w| {
            let nd = d + w;
            if nd <= radius && nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    finite_or_none(dist)
}

/// Shortest-path distance from `source` to `target`, or `None` if the
/// target is unreachable.
pub fn shortest_path_to<G: GraphView>(graph: &G, source: NodeId, target: NodeId) -> Option<f64> {
    shortest_path_within(graph, source, target, f64::INFINITY)
}

/// Decides whether `sp(source, target) ≤ budget`, returning the distance if
/// so. The search never expands labels above `budget`, which is the early
/// exit used for the spanner-path queries `sp(u, v) ≤ t·|uv|`.
pub fn shortest_path_within<G: GraphView>(
    graph: &G,
    source: NodeId,
    target: NodeId,
    budget: f64,
) -> Option<f64> {
    assert!(source < graph.node_count(), "source node out of range");
    assert!(target < graph.node_count(), "target node out of range");
    if source == target {
        return Some(0.0);
    }
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if u == target {
            return Some(d);
        }
        if d > dist[u] {
            continue;
        }
        graph.for_each_neighbor(u, |v, w| {
            let nd = d + w;
            if nd <= budget && nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    None
}

/// The result of a shortest-path-tree computation: distances and
/// predecessors, enough to reconstruct actual paths.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// Distance from the source to each node (`None` if unreachable).
    pub dist: Vec<Option<f64>>,
    /// Predecessor of each node on a shortest path from the source.
    pub prev: Vec<Option<NodeId>>,
    /// The source node.
    pub source: NodeId,
}

impl ShortestPathTree {
    /// Reconstructs the node sequence of a shortest path from the source to
    /// `target`, inclusive of both endpoints; `None` if unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        self.dist[target]?;
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.prev[cur] {
            path.push(p);
            cur = p;
        }
        if cur != self.source {
            return None;
        }
        path.reverse();
        Some(path)
    }
}

/// Full Dijkstra with predecessor tracking.
pub fn shortest_path_tree<G: GraphView>(graph: &G, source: NodeId) -> ShortestPathTree {
    assert!(source < graph.node_count(), "source node out of range");
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        graph.for_each_neighbor(u, |v, w| {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        });
    }
    ShortestPathTree {
        dist: finite_or_none(dist),
        prev,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, Edge, WeightedGraph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1.0);
        }
        g
    }

    #[test]
    fn distances_on_a_path() {
        let g = path_graph(5);
        let d = shortest_path_distances(&g, 0);
        assert_eq!(
            d,
            vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0), Some(4.0)]
        );
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g = path_graph(3);
        g.grow_to(4);
        let d = shortest_path_distances(&g, 0);
        assert_eq!(d[3], None);
        assert_eq!(shortest_path_to(&g, 0, 3), None);
    }

    #[test]
    fn takes_the_lighter_route() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 0.5);
        g.add_edge(2, 3, 0.5);
        assert_eq!(shortest_path_to(&g, 0, 3), Some(1.0));
    }

    #[test]
    fn bounded_search_cuts_off_at_radius() {
        let g = path_graph(6);
        let d = shortest_path_distances_bounded(&g, 0, 2.5);
        assert_eq!(d[2], Some(2.0));
        assert_eq!(d[3], None);
        assert_eq!(d[5], None);
    }

    #[test]
    fn budgeted_query_reports_within_budget_only() {
        let g = path_graph(6);
        assert_eq!(shortest_path_within(&g, 0, 2, 2.0), Some(2.0));
        assert_eq!(shortest_path_within(&g, 0, 3, 2.0), None);
        assert_eq!(shortest_path_within(&g, 4, 4, 0.0), Some(0.0));
    }

    #[test]
    fn bounded_variants_agree_across_representations() {
        let g = path_graph(7);
        let csr = CsrGraph::from(&g);
        assert_eq!(
            shortest_path_distances_bounded(&g, 0, 3.5),
            shortest_path_distances_bounded(&csr, 0, 3.5)
        );
        assert_eq!(
            shortest_path_within(&g, 0, 4, 10.0),
            shortest_path_within(&csr, 0, 4, 10.0)
        );
        assert_eq!(
            shortest_path_within(&g, 0, 4, 2.0),
            shortest_path_within(&csr, 0, 4, 2.0)
        );
    }

    #[test]
    fn tree_reconstructs_paths() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 3, 0.5);
        g.add_edge(3, 4, 0.5);
        g.add_edge(4, 2, 0.5);
        let tree = shortest_path_tree(&g, 0);
        assert_eq!(tree.path_to(2), Some(vec![0, 3, 4, 2]));
        assert_eq!(tree.dist[2], Some(1.5));
        assert_eq!(tree.path_to(0), Some(vec![0]));
    }

    #[test]
    fn tree_path_to_unreachable_is_none() {
        let mut g = path_graph(2);
        g.grow_to(3);
        let tree = shortest_path_tree(&g, 0);
        assert_eq!(tree.path_to(2), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn source_out_of_range_panics() {
        let g = path_graph(2);
        let _ = shortest_path_distances(&g, 5);
    }

    fn random_graph(seed: u64, n: usize, p: f64) -> WeightedGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(u, v, rng.gen_range(0.1..2.0));
                }
            }
        }
        g
    }

    /// Bellman–Ford as an independent oracle.
    fn bellman_ford(g: &WeightedGraph, source: NodeId) -> Vec<Option<f64>> {
        let n = g.node_count();
        let mut dist = vec![None; n];
        dist[source] = Some(0.0);
        let edges: Vec<Edge> = g.edges().collect();
        for _ in 0..n {
            let mut changed = false;
            for e in &edges {
                for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                    if let Some(da) = dist[a] {
                        let nd = da + e.weight;
                        if dist[b].is_none_or(|db| nd < db - 1e-15) {
                            dist[b] = Some(nd);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn dijkstra_matches_bellman_ford(seed in 0u64..500, n in 2usize..25, p in 0.05f64..0.6) {
            let g = random_graph(seed, n, p);
            let d1 = shortest_path_distances(&g, 0);
            let d2 = bellman_ford(&g, 0);
            for (a, b) in d1.iter().zip(d2.iter()) {
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability mismatch"),
                }
            }
        }

        #[test]
        fn tree_distance_equals_path_weight(seed in 0u64..200, n in 2usize..20) {
            let g = random_graph(seed, n, 0.4);
            let tree = shortest_path_tree(&g, 0);
            for v in 0..n {
                if let Some(path) = tree.path_to(v) {
                    let mut w = 0.0;
                    for pair in path.windows(2) {
                        w += g.edge_weight(pair[0], pair[1]).unwrap();
                    }
                    prop_assert!((w - tree.dist[v].unwrap()).abs() < 1e-9);
                }
            }
        }
    }
}
