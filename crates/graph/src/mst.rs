//! Minimum spanning trees (Kruskal).
//!
//! Theorem 13 bounds the spanner weight by `O(w(MST(G)))`; every experiment
//! that reports a weight ratio needs `w(MST(G))` as the denominator. For a
//! disconnected input the functions return a minimum spanning *forest*.

use crate::{Edge, GraphView, OrdF64, UnionFind, WeightedGraph};

/// A minimum spanning forest: the chosen edges and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningForest {
    /// Edges of the forest, in the order they were selected.
    pub edges: Vec<Edge>,
    /// Sum of the selected edge weights.
    pub total_weight: f64,
}

impl SpanningForest {
    /// The forest as a [`WeightedGraph`] on `nodes` vertices.
    pub fn to_graph(&self, nodes: usize) -> WeightedGraph {
        WeightedGraph::from_edges(nodes, self.edges.iter().copied())
    }
}

/// Kruskal's algorithm. Returns a minimum spanning forest (a tree when the
/// graph is connected).
pub fn kruskal<G: GraphView>(graph: &G) -> SpanningForest {
    let mut chosen = Vec::with_capacity(graph.node_count().saturating_sub(1));
    let total_weight = kruskal_scan(graph, |e| chosen.push(e));
    SpanningForest {
        edges: chosen,
        total_weight,
    }
}

/// Total weight of a minimum spanning forest of the graph: [`kruskal`]'s
/// `total_weight`, without collecting the forest.
pub fn mst_weight<G: GraphView>(graph: &G) -> f64 {
    kruskal_scan(graph, |_| {})
}

/// Kruskal's scan: hands every forest edge to `accept` in selection order
/// and returns their weight, summed in that order.
///
/// # Panics
///
/// Panics if the node count does not fit in `u32`.
fn kruskal_scan<G: GraphView>(graph: &G, mut accept: impl FnMut(Edge)) -> f64 {
    // Documented contract (see `# Panics` above): every graph here indexes
    // nodes with u32, as `CsrGraph` does. tc-lint: allow(panic-hygiene)
    assert!(
        u32::try_from(graph.node_count()).is_ok(),
        "Kruskal's scan indexes nodes with u32"
    );
    // `Edge`'s order (weight, then endpoints) on 16-byte entries: the sort
    // moves two thirds of the bytes a `Vec<Edge>` would.
    let mut edges: Vec<(OrdF64, u32, u32)> = Vec::with_capacity(graph.edge_count());
    graph.for_each_edge(|e| edges.push((OrdF64(e.weight), e.u as u32, e.v as u32)));
    edges.sort_unstable();
    let mut uf = UnionFind::new(graph.node_count());
    let mut total = 0.0;
    for (OrdF64(weight), u, v) in edges {
        let (u, v) = (u as usize, v as usize);
        if uf.union(u, v) {
            total += weight;
            accept(Edge { u, v, weight });
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cmp_f64, NodeId};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct PrimEntry {
        weight: f64,
        from: NodeId,
        to: NodeId,
    }

    impl Eq for PrimEntry {}

    impl PartialOrd for PrimEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for PrimEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed for the min-heap; weights are finite by construction.
            cmp_f64(&other.weight, &self.weight).then_with(|| other.to.cmp(&self.to))
        }
    }

    /// Prim's algorithm, an independent oracle for Kruskal; handles
    /// disconnected graphs by restarting from every unreached vertex.
    fn prim<G: GraphView>(graph: &G) -> SpanningForest {
        let n = graph.node_count();
        let mut in_tree = vec![false; n];
        let mut chosen = Vec::new();
        let mut total = 0.0;
        for start in 0..n {
            if in_tree[start] {
                continue;
            }
            in_tree[start] = true;
            let mut heap = BinaryHeap::new();
            graph.for_each_neighbor(start, |v, w| {
                heap.push(PrimEntry {
                    weight: w,
                    from: start,
                    to: v,
                });
            });
            while let Some(PrimEntry { weight, from, to }) = heap.pop() {
                if in_tree[to] {
                    continue;
                }
                in_tree[to] = true;
                chosen.push(Edge::new(from, to, weight));
                total += weight;
                graph.for_each_neighbor(to, |v, w| {
                    if !in_tree[v] {
                        heap.push(PrimEntry {
                            weight: w,
                            from: to,
                            to: v,
                        });
                    }
                });
            }
        }
        SpanningForest {
            edges: chosen,
            total_weight: total,
        }
    }

    #[test]
    fn kruskal_on_a_square_with_diagonal() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 2.0);
        g.add_edge(0, 2, 1.5);
        let mst = kruskal(&g);
        assert_eq!(mst.edges.len(), 3);
        assert!((mst.total_weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 2.0);
        let mst = kruskal(&g);
        assert_eq!(mst.edges.len(), 2);
        assert!((mst.total_weight - 3.0).abs() < 1e-12);
        let forest_graph = mst.to_graph(5);
        assert_eq!(forest_graph.node_count(), 5);
        assert_eq!(forest_graph.edge_count(), 2);
    }

    #[test]
    fn empty_and_single_node_graphs() {
        assert_eq!(kruskal(&WeightedGraph::new(0)).edges.len(), 0);
        assert_eq!(kruskal(&WeightedGraph::new(1)).total_weight, 0.0);
        assert_eq!(prim(&WeightedGraph::new(1)).total_weight, 0.0);
    }

    #[test]
    fn prim_matches_kruskal_on_small_example() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 4.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 1, 2.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(2, 3, 5.0);
        assert!((kruskal(&g).total_weight - prim(&g).total_weight).abs() < 1e-12);
        assert!((mst_weight(&g) - 4.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prim_and_kruskal_agree(seed in 0u64..1000, n in 1usize..30, p in 0.05f64..0.7) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        g.add_edge(u, v, rng.gen_range(0.01..5.0));
                    }
                }
            }
            let k = kruskal(&g);
            let pr = prim(&g);
            prop_assert!((k.total_weight - pr.total_weight).abs() < 1e-9);
            prop_assert_eq!(k.edges.len(), pr.edges.len());
        }

        #[test]
        fn mst_has_n_minus_c_edges(seed in 0u64..500, n in 1usize..25) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = WeightedGraph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.3) {
                        g.add_edge(u, v, rng.gen_range(0.01..5.0));
                    }
                }
            }
            let comps = crate::components::component_count(&g);
            let mst = kruskal(&g);
            prop_assert_eq!(mst.edges.len(), n - comps);
        }
    }
}
