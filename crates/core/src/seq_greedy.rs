//! `SEQ-GREEDY`: the classical sequential path-greedy spanner algorithm
//! (Section 1.4 of the paper).
//!
//! Edges are considered in non-decreasing order of weight; an edge
//! `{u, v}` is added to the output exactly when the graph built so far has
//! no `uv`-path of length at most `t·w(u, v)`. On complete Euclidean
//! graphs (and, as Section 2 of the paper shows, on α-UBGs) the output is
//! a `t`-spanner with constant maximum degree and weight `O(w(MST))`.
//!
//! This implementation is both the paper's baseline comparator and the
//! subroutine phase 0 of the relaxed greedy algorithm uses on each clique
//! component of the short-edge graph `G_0`.

use tc_graph::{dijkstra, WeightedGraph};

/// Runs `SEQ-GREEDY` with stretch `t` on `graph`, returning the selected
/// spanning subgraph.
///
/// # Panics
///
/// Panics if `t < 1`.
pub fn seq_greedy(graph: &WeightedGraph, t: f64) -> WeightedGraph {
    assert!(t >= 1.0, "the stretch target must be at least 1");
    let mut spanner = WeightedGraph::new(graph.node_count());
    for edge in graph.sorted_edges() {
        let budget = t * edge.weight;
        let reachable = dijkstra::shortest_path_within(&spanner, edge.u, edge.v, budget);
        if reachable.is_none() {
            spanner.add(edge);
        }
    }
    spanner
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use tc_graph::properties::stretch_factor;

    fn complete_euclidean(points: &[(f64, f64)]) -> WeightedGraph {
        let mut g = WeightedGraph::new(points.len());
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let d = ((points[i].0 - points[j].0).powi(2) + (points[i].1 - points[j].1).powi(2))
                    .sqrt();
                g.add_edge(i, j, d);
            }
        }
        g
    }

    #[test]
    fn output_is_a_t_spanner_of_a_complete_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let points: Vec<(f64, f64)> = (0..40)
            .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let g = complete_euclidean(&points);
        for &t in &[1.1, 1.5, 2.0] {
            let spanner = seq_greedy(&g, t);
            let measured = stretch_factor(&g, &spanner);
            assert!(measured <= t + 1e-9, "t={t}, measured {measured}");
            assert!(spanner.edge_count() < g.edge_count());
        }
    }

    #[test]
    fn larger_t_keeps_fewer_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let points: Vec<(f64, f64)> = (0..35)
            .map(|_| (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)))
            .collect();
        let g = complete_euclidean(&points);
        let tight = seq_greedy(&g, 1.05);
        let loose = seq_greedy(&g, 3.0);
        assert!(loose.edge_count() <= tight.edge_count());
        // With t close to 1 nearly everything is kept; with t large the
        // output approaches a tree.
        assert!(loose.edge_count() >= g.node_count() - 1);
    }

    #[test]
    fn stretch_one_keeps_all_shortest_path_critical_edges() {
        // With t = 1 every edge that is the unique shortest path between
        // its endpoints must be kept.
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.5);
        let spanner = seq_greedy(&g, 1.0);
        assert!(spanner.has_edge(0, 1));
        assert!(spanner.has_edge(1, 2));
        assert!(
            spanner.has_edge(0, 2),
            "1.5 < 2.0 so the direct edge is required"
        );
    }

    #[test]
    fn redundant_edge_is_dropped() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 2.0);
        // The two unit edges give a path of length 2 = w(0,2), so with any
        // t >= 1 the long edge is redundant.
        let spanner = seq_greedy(&g, 1.0);
        assert_eq!(spanner.edge_count(), 2);
        assert!(!spanner.has_edge(0, 2));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = WeightedGraph::new(0);
        assert_eq!(seq_greedy(&empty, 1.5).node_count(), 0);
        let single = WeightedGraph::new(1);
        assert_eq!(seq_greedy(&single, 1.5).edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn stretch_below_one_rejected() {
        let g = WeightedGraph::new(2);
        let _ = seq_greedy(&g, 0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn greedy_output_always_meets_its_stretch_target(
            seed in 0u64..200,
            n in 2usize..25,
            t in 1.05f64..3.0,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
                .collect();
            let g = complete_euclidean(&points);
            let spanner = seq_greedy(&g, t);
            prop_assert!(stretch_factor(&g, &spanner) <= t + 1e-9);
        }

        #[test]
        fn greedy_degree_stays_small_on_euclidean_inputs(
            seed in 0u64..100,
            n in 5usize..40,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let points: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)))
                .collect();
            let g = complete_euclidean(&points);
            let spanner = seq_greedy(&g, 1.5);
            // The theoretical constant for t = 1.5 in the plane is well
            // below 20; this guards against gross regressions.
            prop_assert!(spanner.max_degree() <= 20);
        }
    }
}
