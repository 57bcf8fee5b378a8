//! Hop-distance (unweighted) searches.
//!
//! The distributed algorithm repeatedly lets a node "gather information
//! from nodes that are at most k hops away" (Sections 2.2.4 and 3.2): the
//! paper bounds k by constants such as `⌈2(2δ+1)/α⌉`. These helpers model
//! that primitive on the simulator side and support the verification code.

use crate::{GraphView, NodeId, WeightedGraph};
use std::collections::VecDeque;

/// Hop distances (number of edges) from `source`, truncated at
/// `max_hops`; `None` for nodes farther away or unreachable.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn hop_distances_bounded<G: GraphView>(
    graph: &G,
    source: NodeId,
    max_hops: usize,
) -> Vec<Option<usize>> {
    assert!(source < graph.node_count(), "source node out of range");
    let mut dist = vec![None; graph.node_count()];
    dist[source] = Some(0);
    let mut queue = VecDeque::from([(source, 0usize)]);
    while let Some((u, du)) = queue.pop_front() {
        if du == max_hops {
            continue;
        }
        graph.for_each_neighbor(u, |v, _| {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back((v, du + 1));
            }
        });
    }
    dist
}

/// The set of nodes within `k` hops of `source` (including `source`), in
/// ascending order. This is the "local view" a node can assemble after `k`
/// communication rounds.
pub fn k_hop_neighborhood<G: GraphView>(graph: &G, source: NodeId, k: usize) -> Vec<NodeId> {
    hop_distances_bounded(graph, source, k)
        .iter()
        .enumerate()
        .filter_map(|(v, d)| d.map(|_| v))
        .collect()
}

/// The subgraph induced on the `k`-hop neighbourhood of `source`, returned
/// together with the mapping from new indices to original node ids.
///
/// The subgraph keeps the original edge weights; this is exactly the local
/// view of `G'_{i-1}` a node constructs before running a sequential
/// single-source shortest-path computation in the distributed algorithm.
/// The input may be either representation; the (small, local) output is a
/// mutable [`WeightedGraph`].
pub fn k_hop_subgraph<G: GraphView>(
    graph: &G,
    source: NodeId,
    k: usize,
) -> (WeightedGraph, Vec<NodeId>) {
    let members = k_hop_neighborhood(graph, source, k);
    let mut index_of = vec![usize::MAX; graph.node_count()];
    for (new, &old) in members.iter().enumerate() {
        index_of[old] = new;
    }
    let mut sub = WeightedGraph::new(members.len());
    for &u in &members {
        graph.for_each_neighbor(u, |v, w| {
            if u < v && index_of[v] != usize::MAX {
                sub.add_edge(index_of[u], index_of[v], w);
            }
        });
    }
    (sub, members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 0.5);
        }
        g
    }

    #[test]
    fn hop_distances_on_a_path() {
        let g = path_graph(4);
        assert_eq!(
            hop_distances_bounded(&g, 0, usize::MAX),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn bounded_hops_truncate() {
        let g = path_graph(5);
        let d = hop_distances_bounded(&g, 0, 2);
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], None);
    }

    #[test]
    fn k_hop_neighborhood_includes_source() {
        let g = path_graph(5);
        assert_eq!(k_hop_neighborhood(&g, 2, 1), vec![1, 2, 3]);
        assert_eq!(k_hop_neighborhood(&g, 0, 0), vec![0]);
    }

    #[test]
    fn k_hop_subgraph_preserves_weights_and_mapping() {
        let g = path_graph(5);
        let (sub, members) = k_hop_subgraph(&g, 2, 1);
        assert_eq!(members, vec![1, 2, 3]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        // edges (1,2) and (2,3) both of weight 0.5 map to local indices
        let local_of = |orig: usize| members.iter().position(|&m| m == orig).unwrap();
        assert_eq!(sub.edge_weight(local_of(1), local_of(2)), Some(0.5));
        assert_eq!(sub.edge_weight(local_of(2), local_of(3)), Some(0.5));
    }

    #[test]
    fn k_hop_subgraph_excludes_edges_leaving_the_ball() {
        let mut g = path_graph(3);
        g.grow_to(4);
        g.add_edge(2, 3, 1.0);
        let (sub, members) = k_hop_subgraph(&g, 0, 2);
        assert_eq!(members, vec![0, 1, 2]);
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn isolated_node_sees_only_itself() {
        let g = WeightedGraph::new(3);
        assert_eq!(k_hop_neighborhood(&g, 1, 5), vec![1]);
    }
}
