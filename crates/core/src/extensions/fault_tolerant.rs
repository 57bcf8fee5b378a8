//! k-fault-tolerant spanners (Section 1.6, extension 1).
//!
//! A *k-vertex (k-edge) fault-tolerant t-spanner* of `G` is a spanning
//! subgraph `G'` such that for every set `S` of at most `k` vertices
//! (edges), `G' − S` is a t-spanner of `G − S`. The paper notes that the
//! relaxed greedy algorithm extends to fault tolerance "using ideas from
//! [Czumaj–Zhao 2004]".
//!
//! The construction here follows the Czumaj–Zhao greedy idea in the form
//! that is practical to run: edges are processed in non-decreasing weight
//! order, and an edge `{u, v}` is *skipped* only when the partial spanner
//! already contains `k + 1` pairwise edge-disjoint `uv`-paths of length at
//! most `t·w(u, v)` (found by repeated bounded shortest-path extraction).
//! Repeated shortest-path extraction is a heuristic witness for
//! disjointness — it can under-count the true number of disjoint short
//! paths, which only makes the construction *more* conservative (more
//! edges kept, fault tolerance preserved). The companion
//! [`fault_tolerance_report`] check removes random fault sets and measures
//! the residual stretch, which is how experiment E8 validates the claim.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;
use tc_graph::{dijkstra, properties, NodeId, WeightedGraph};

/// Builds a k-fault-tolerant `t`-spanner by the greedy rule described in
/// the module documentation. `k = 0` reduces to plain `SEQ-GREEDY`.
///
/// # Panics
///
/// Panics if `t < 1`.
pub fn fault_tolerant_greedy(graph: &WeightedGraph, t: f64, k: usize) -> WeightedGraph {
    assert!(t >= 1.0, "the stretch target must be at least 1");
    let mut spanner = WeightedGraph::new(graph.node_count());
    for edge in graph.sorted_edges() {
        let budget = t * edge.weight;
        if disjoint_short_paths(&spanner, edge.u, edge.v, budget, k + 1) < k + 1 {
            spanner.add(edge);
        }
    }
    spanner
}

/// Counts (up to `needed`) pairwise edge-disjoint `uv`-paths of length at
/// most `budget`, by repeatedly extracting a shortest path and deleting its
/// edges.
fn disjoint_short_paths(
    graph: &WeightedGraph,
    u: NodeId,
    v: NodeId,
    budget: f64,
    needed: usize,
) -> usize {
    let mut work = graph.clone();
    let mut found = 0;
    while found < needed {
        let tree = dijkstra::shortest_path_tree(&work, u);
        match tree.dist[v] {
            Some(d) if d <= budget + 1e-12 => {
                // A finite distance implies a path; bail out rather than
                // panic if the tree ever disagrees.
                let Some(path) = tree.path_to(v) else { break };
                found += 1;
                for pair in path.windows(2) {
                    let _ = work.remove_edge(pair[0], pair[1]);
                }
            }
            _ => break,
        }
    }
    found
}

/// The kind of faults injected by [`fault_tolerance_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// Remove vertices (and their incident edges).
    Vertex,
    /// Remove edges.
    Edge,
}

/// The outcome of randomized fault-injection trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultToleranceReport {
    /// Number of trials run.
    pub trials: usize,
    /// Number of faults injected per trial.
    pub faults_per_trial: usize,
    /// Worst residual stretch of `spanner − S` with respect to `base − S`
    /// over all trials.
    pub worst_stretch: f64,
    /// Number of trials whose residual stretch exceeded the target.
    pub violations: usize,
}

/// Injects `trials` random fault sets of size `k` and measures the stretch
/// of the surviving spanner against the surviving base graph.
pub fn fault_tolerance_report<R: Rng + ?Sized>(
    rng: &mut R,
    base: &WeightedGraph,
    spanner: &WeightedGraph,
    t: f64,
    k: usize,
    kind: FaultKind,
    trials: usize,
) -> FaultToleranceReport {
    let mut worst: f64 = 1.0;
    let mut violations = 0;
    for _ in 0..trials {
        let (faulty_base, faulty_spanner) = match kind {
            FaultKind::Vertex => {
                let mut nodes: Vec<NodeId> = (0..base.node_count()).collect();
                nodes.shuffle(rng);
                let removed: Vec<NodeId> = nodes.into_iter().take(k).collect();
                (
                    remove_vertices(base, &removed),
                    remove_vertices(spanner, &removed),
                )
            }
            FaultKind::Edge => {
                let mut edges: Vec<(NodeId, NodeId)> = spanner.edges().map(|e| e.key()).collect();
                // Sort into the canonical endpoint order so the shuffle is
                // a pure function of the caller's seed, independent of the
                // spanner's construction history.
                edges.sort_unstable();
                edges.shuffle(rng);
                let removed: Vec<(NodeId, NodeId)> = edges.into_iter().take(k).collect();
                (
                    remove_edges(base, &removed),
                    remove_edges(spanner, &removed),
                )
            }
        };
        let stretch = properties::stretch_factor(&faulty_base, &faulty_spanner);
        worst = worst.max(stretch);
        if stretch > t + 1e-9 {
            violations += 1;
        }
    }
    FaultToleranceReport {
        trials,
        faults_per_trial: k,
        worst_stretch: worst,
        violations,
    }
}

/// Removes the given vertices' incident edges (the vertex set itself is
/// kept so indices remain stable; an isolated vertex does not affect
/// stretch measurements over surviving edges).
fn remove_vertices(graph: &WeightedGraph, removed: &[NodeId]) -> WeightedGraph {
    let mut dead = vec![false; graph.node_count()];
    for &v in removed {
        dead[v] = true;
    }
    graph.filter_edges(|e| !dead[e.u] && !dead[e.v])
}

/// Removes the given edges (if present) from the graph.
fn remove_edges(graph: &WeightedGraph, removed: &[(NodeId, NodeId)]) -> WeightedGraph {
    let kill: std::collections::HashSet<(NodeId, NodeId)> = removed.iter().copied().collect();
    graph.filter_edges(|e| !kill.contains(&e.key()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_graph::properties::stretch_factor;
    use tc_ubg::{generators, UbgBuilder};

    fn dense_ubg(seed: u64, n: usize) -> WeightedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, 2, 1.8);
        UbgBuilder::unit_disk()
            .build(points)
            .unwrap()
            .graph()
            .clone()
    }

    #[test]
    fn k_zero_matches_plain_greedy() {
        let g = dense_ubg(41, 50);
        let ft0 = fault_tolerant_greedy(&g, 1.5, 0);
        let plain = crate::seq_greedy::seq_greedy(&g, 1.5);
        assert_eq!(ft0.edge_count(), plain.edge_count());
        assert!(stretch_factor(&g, &ft0) <= 1.5 + 1e-9);
    }

    #[test]
    fn higher_k_keeps_more_edges() {
        let g = dense_ubg(42, 60);
        let f0 = fault_tolerant_greedy(&g, 1.5, 0);
        let f1 = fault_tolerant_greedy(&g, 1.5, 1);
        let f2 = fault_tolerant_greedy(&g, 1.5, 2);
        assert!(f1.edge_count() >= f0.edge_count());
        assert!(f2.edge_count() >= f1.edge_count());
        assert!(f2.edge_count() <= g.edge_count());
    }

    #[test]
    fn one_fault_tolerant_spanner_survives_single_edge_faults() {
        let g = dense_ubg(43, 50);
        let t = 2.0;
        let spanner = fault_tolerant_greedy(&g, t, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let report = fault_tolerance_report(&mut rng, &g, &spanner, t, 1, FaultKind::Edge, 20);
        assert_eq!(
            report.violations, 0,
            "worst residual stretch {}",
            report.worst_stretch
        );
        assert_eq!(report.trials, 20);
        assert_eq!(report.faults_per_trial, 1);
    }

    #[test]
    fn zero_fault_spanner_often_breaks_under_edge_faults() {
        // Not a guarantee (some removals are harmless) but the dense
        // instance below has at least one critical edge; we assert the
        // *comparison*: the fault-tolerant spanner does at least as well.
        let g = dense_ubg(44, 50);
        let t = 1.5;
        let plain = fault_tolerant_greedy(&g, t, 0);
        let robust = fault_tolerant_greedy(&g, t, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plain_report = fault_tolerance_report(&mut rng, &g, &plain, t, 1, FaultKind::Edge, 30);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let robust_report =
            fault_tolerance_report(&mut rng, &g, &robust, t, 1, FaultKind::Edge, 30);
        assert!(robust_report.worst_stretch <= plain_report.worst_stretch + 1e-9);
        assert_eq!(robust_report.violations, 0);
    }

    #[test]
    fn vertex_fault_injection_runs() {
        let g = dense_ubg(45, 40);
        let spanner = fault_tolerant_greedy(&g, 2.0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = fault_tolerance_report(&mut rng, &g, &spanner, 2.0, 1, FaultKind::Vertex, 10);
        assert_eq!(report.trials, 10);
        assert!(report.worst_stretch >= 1.0);
        // Vertex faults can disconnect the *base* graph too, in which case
        // both sides are infinite; violations counts only finite excesses
        // over t, so it should be rare. We only assert the report is sane.
        assert!(report.violations <= 10);
    }

    #[test]
    fn disjoint_path_counter_counts_correctly() {
        // Two disjoint paths of length 2 between 0 and 3, plus one long
        // detour that exceeds the budget.
        let mut g = WeightedGraph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(0, 4, 3.0);
        g.add_edge(4, 3, 3.0);
        assert_eq!(disjoint_short_paths(&g, 0, 3, 2.0, 5), 2);
        assert_eq!(disjoint_short_paths(&g, 0, 3, 10.0, 5), 3);
        assert_eq!(disjoint_short_paths(&g, 0, 3, 1.0, 5), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn stretch_below_one_rejected() {
        let g = WeightedGraph::new(2);
        let _ = fault_tolerant_greedy(&g, 0.9, 1);
    }
}
