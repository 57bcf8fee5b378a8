//! Sequential maximal independent sets.
//!
//! The paper uses MIS computations in two places (Sections 3.2.1 and
//! 3.2.5): to prune cluster centres and to remove mutually redundant
//! edges. The distributed MIS lives in `tc-simnet`; this module provides
//! the sequential reference implementations that the distributed versions
//! and the sequential relaxed-greedy algorithm use, plus a validity
//! checker shared by tests. Every graph an MIS runs on is built once and
//! only read, so all of them take a [`CsrGraph`] and read its rows in
//! place.

use crate::{CsrGraph, NodeId};

/// Greedy MIS scanning nodes in the given priority order (first-come,
/// first-served). With the natural order `0..n` this is the classical
/// lexicographic MIS; with identifiers as priorities it matches the
/// "highest identifier wins" tie-breaking the paper uses when nodes attach
/// to cluster centres.
///
/// Returns the chosen nodes in ascending order.
pub fn greedy_mis_with_order(graph: &CsrGraph, order: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(
        order.len(),
        graph.node_count(),
        "order must list every node exactly once"
    );
    let mut state = vec![0u8; graph.node_count()]; // 0 = undecided, 1 = in MIS, 2 = blocked
    for &u in order {
        if state[u] != 0 {
            continue;
        }
        state[u] = 1;
        for &v in graph.neighbor_ids(u) {
            if state[v as usize] == 0 {
                state[v as usize] = 2;
            }
        }
    }
    (0..graph.node_count()).filter(|&v| state[v] == 1).collect()
}

/// Greedy MIS in natural node order.
pub fn greedy_mis(graph: &CsrGraph) -> Vec<NodeId> {
    let order: Vec<NodeId> = (0..graph.node_count()).collect();
    greedy_mis_with_order(graph, &order)
}

/// Checks that `set` is an independent set of `graph`.
pub fn is_independent_set(graph: &CsrGraph, set: &[NodeId]) -> bool {
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            if graph.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// Checks that `set` is a *maximal* independent set of `graph`: independent
/// and such that every node outside the set has a neighbour inside it.
pub fn is_maximal_independent_set(graph: &CsrGraph, set: &[NodeId]) -> bool {
    let mut in_set = vec![false; graph.node_count()];
    for &u in set {
        if u >= graph.node_count() {
            return false;
        }
        in_set[u] = true;
    }
    if !is_independent_set(graph, set) {
        return false;
    }
    (0..graph.node_count())
        .all(|v| in_set[v] || graph.neighbor_ids(v).iter().any(|&u| in_set[u as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The unit-weight graph on `n` nodes with the given edges.
    fn graph(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        CsrGraph::from_edges(n, edges.iter().map(|&(u, v)| Edge::new(u, v, 1.0)))
    }

    #[test]
    fn mis_of_a_path_alternates() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mis = greedy_mis(&g);
        assert_eq!(mis, vec![0, 2, 4]);
        assert!(is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn mis_of_a_clique_is_a_single_node() {
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mis = greedy_mis(&g);
        assert_eq!(mis.len(), 1);
        assert!(is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn order_changes_the_chosen_set() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let natural = greedy_mis(&g);
        let reversed = greedy_mis_with_order(&g, &[2, 1, 0]);
        assert_eq!(natural, vec![0, 2]);
        assert_eq!(reversed, vec![0, 2]);
        let middle_first = greedy_mis_with_order(&g, &[1, 0, 2]);
        assert_eq!(middle_first, vec![1]);
        assert!(is_maximal_independent_set(&g, &middle_first));
    }

    #[test]
    fn validity_checkers_reject_bad_sets() {
        let g = graph(3, &[(0, 1)]);
        assert!(!is_independent_set(&g, &[0, 1]));
        // {0} is independent but not maximal because 2 has no neighbour in it.
        assert!(is_independent_set(&g, &[0]));
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        // Out-of-range member is rejected rather than panicking.
        assert!(!is_maximal_independent_set(&g, &[7]));
        assert!(!is_maximal_independent_set(&g, &[7, 0]));
    }

    #[test]
    fn empty_graph_mis_is_all_nodes() {
        let g = CsrGraph::new(4);
        assert_eq!(greedy_mis(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn order_must_cover_all_nodes() {
        let g = CsrGraph::new(3);
        let _ = greedy_mis_with_order(&g, &[0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn greedy_mis_is_always_maximal_independent(seed in 0u64..1000, n in 1usize..40, p in 0.0f64..0.8) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(p) {
                        edges.push((u, v));
                    }
                }
            }
            let g = graph(n, &edges);
            let mis = greedy_mis(&g);
            prop_assert!(is_maximal_independent_set(&g, &mis));
        }
    }
}
