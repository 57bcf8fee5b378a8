//! Verification of the three guaranteed spanner properties and of the
//! leapfrog property underlying the weight proof.
//!
//! * Theorem 10 — stretch: `sp_{G'}(u, v) ≤ t·w(u, v)` for every edge of
//!   the input graph (checking edges suffices, since shortest paths
//!   decompose into edges).
//! * Theorem 11 — degree: `Δ(G') = O(1)`; the verifier reports the
//!   measured maximum degree so experiments can confirm it does not grow
//!   with `n`.
//! * Theorem 13 — weight: `w(G') = O(w(MST(G)))`; the verifier reports the
//!   measured ratio.
//! * Lemma 12 / the `(t2, t)`-leapfrog property: checking all subsets is
//!   exponential, so [`leapfrog_violations`] samples pairs and small
//!   subsets of spanner edges — the cases the paper's own case analysis
//!   (|S ∩ E_i| ∈ {1, 2, >2}) distinguishes.

use serde::Serialize;
use tc_graph::{mst, properties, CsrGraph, Edge, NodeOrder, WeightedGraph};

/// The outcome of verifying a spanner against its base graph.
#[derive(Debug, Clone, Serialize)]
pub struct VerificationReport {
    /// The stretch target that was verified against.
    pub t: f64,
    /// Measured stretch factor over the base edges whose endpoints the
    /// spanner connects. Always finite — the vendored `serde_json` writes
    /// non-finite floats as `null`, so an infinite stretch would silently
    /// degrade experiment output; disconnection is reported separately in
    /// [`Self::disconnected_pairs`].
    pub stretch: f64,
    /// Number of base edges whose endpoints the spanner disconnects
    /// (each is an unconditional stretch violation; 0 for any spanner).
    pub disconnected_pairs: usize,
    /// Whether every input edge meets the stretch target: no finite
    /// violation and no disconnected pair.
    pub stretch_ok: bool,
    /// Edges of the base graph with a *finite* stretch above the target,
    /// with their measured stretch. Disconnected pairs are counted in
    /// [`Self::disconnected_pairs`] instead of listed here.
    pub violations: Vec<(usize, usize, f64)>,
    /// Maximum degree of the spanner.
    pub max_degree: usize,
    /// `w(G') / w(MST(G))`.
    pub weight_ratio: f64,
    /// Number of spanner edges.
    pub spanner_edges: usize,
    /// Number of base edges.
    pub base_edges: usize,
}

/// Verifies the stretch/degree/weight properties of `spanner` with respect
/// to `base` and stretch target `t`.
///
/// The stretch check is one streaming sweep ([`properties::stretch_check`]):
/// a bounded bucket search per edge source of `base`, in fixed chunks of
/// sources fanned out across worker threads (`TC_THREADS` override; the
/// report is byte-identical for every thread count). Each chunk keeps only
/// its worst stretch, its disconnection count and its violations, so the
/// check's memory does not grow with the edge count. Both graphs are
/// snapshotted once into [`CsrGraph`] so that hot loop runs on the flat
/// representation (see `docs/PERFORMANCE.md`), with the nodes of a large
/// graph renumbered in the breadth-first [`NodeOrder`] of `base` so each
/// search reads nearby memory. Every reported value, and the order of the
/// violations, is the one the snapshots in the caller's numbering give.
pub fn verify_spanner(base: &WeightedGraph, spanner: &WeightedGraph, t: f64) -> VerificationReport {
    let n = base.node_count();
    let order = if n < RENUMBER_MIN_NODES {
        NodeOrder::identity(n)
    } else {
        NodeOrder::breadth_first(base)
    };
    verify_in_order(base, spanner, t, &order)
}

/// Nodes below which [`verify_spanner`] keeps the caller's numbering: a
/// graph that small stays in cache whatever its order, so renumbering it
/// costs more than the searches save. Measured on 2D unit disk graphs of
/// expected degree 8 at one worker, the breadth-first order costs 10 % at
/// 20 000 nodes, breaks even at 50 000 and saves 10 % at 100 000 and 20 %
/// at 200 000. Fixed, so it is not a tuning knob: the report never
/// depends on it, only the time.
const RENUMBER_MIN_NODES: usize = 65_536;

/// [`verify_spanner`] on snapshots renumbered by `order`, which may be any
/// permutation of the nodes: the report does not depend on it.
pub(crate) fn verify_in_order(
    base: &WeightedGraph,
    spanner: &WeightedGraph,
    t: f64,
    order: &NodeOrder,
) -> VerificationReport {
    assert!(t >= 1.0, "the stretch target must be at least 1");
    let base_csr = CsrGraph::relabelled(base, order);
    let tolerance = 1e-9;
    let check = {
        let spanner_csr = CsrGraph::relabelled(spanner, order);
        properties::stretch_check_in_order(&base_csr, &spanner_csr, t + tolerance, order)
    };
    let disconnected_pairs = check.disconnected_pairs;
    let violations: Vec<(usize, usize, f64)> = check
        .violations
        .iter()
        .map(|es| (es.edge.u, es.edge.v, es.stretch))
        .collect();
    // Kruskal accepts the same number of edges of every weight whatever
    // the numbering, in ascending weight, so the MST weight is the same
    // sum in the same order on any snapshot.
    let mst_w = mst::mst_weight(&base_csr);
    VerificationReport {
        t,
        stretch: check.max_stretch,
        disconnected_pairs,
        stretch_ok: violations.is_empty() && disconnected_pairs == 0,
        violations,
        max_degree: spanner.max_degree(),
        weight_ratio: properties::ratio_to_mst(weight_in_id_order(spanner), mst_w),
        spanner_edges: spanner.edge_count(),
        base_edges: base.edge_count(),
    }
}

/// `w(graph)` summed in ascending `(u, v)` order of the caller's IDs, the
/// order a [`CsrGraph`] snapshot in that numbering sums it in (float
/// addition is not associative).
fn weight_in_id_order(graph: &WeightedGraph) -> f64 {
    let mut total = 0.0;
    let mut row: Vec<(usize, f64)> = Vec::new();
    for u in 0..graph.node_count() {
        row.clear();
        row.extend(graph.neighbors(u).iter().filter(|&&(v, _)| v > u));
        row.sort_unstable_by_key(|&(v, _)| v);
        for &(_, w) in &row {
            total += w;
        }
    }
    total
}

/// Checks the pairwise (`|S| = 2`) instances of the `(t2, t)`-leapfrog
/// inequality over the spanner's edges, returning the violating pairs.
///
/// For `S = {{u1, v1}, {u2, v2}}` with `w(u1, v1)` maximal the inequality
/// reads `t2·w(u1,v1) < w(u2,v2) + t·(w(v1,u2) + w(v2,u1))`, where the
/// connecting weights are Euclidean segment lengths between endpoints. The
/// full property quantifies over all subsets; pairs are both the dominant
/// case in the paper's proof and the only case checkable at scale, so this
/// is a spot check, not a proof.
pub fn leapfrog_violations<P: tc_geometry::PointAccess + ?Sized>(
    points: &P,
    spanner: &WeightedGraph,
    t2: f64,
    t: f64,
) -> Vec<(Edge, Edge)> {
    assert!(t >= t2 && t2 > 1.0, "need t >= t2 > 1");
    let edges: Vec<Edge> = spanner.edges().collect();
    let mut violations = Vec::new();
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let (mut e1, mut e2) = (edges[i], edges[j]);
            if e2.weight > e1.weight {
                std::mem::swap(&mut e1, &mut e2);
            }
            if e1.shares_endpoint(&e2) {
                // Sharing an endpoint makes one connecting segment empty;
                // the inequality is then implied by the triangle
                // inequality, so skip.
                continue;
            }
            // The property must hold for every ordering/orientation of S,
            // so a violation exists as soon as the *cheapest* pairing of
            // the connecting segments already fails the inequality.
            let d = |a: usize, b: usize| points.distance(a, b);
            let rhs1 = e2.weight + t * (d(e1.v, e2.u) + d(e2.v, e1.u));
            let rhs2 = e2.weight + t * (d(e1.v, e2.v) + d(e2.u, e1.u));
            let rhs = rhs1.min(rhs2);
            if t2 * e1.weight >= rhs + 1e-9 {
                violations.push((e1, e2));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SpannerParams;
    use crate::relaxed::RelaxedGreedy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tc_geometry::Point;
    use tc_ubg::{generators, UbgBuilder};

    fn sample_instance() -> (
        tc_ubg::UnitBallGraph,
        crate::relaxed::SpannerResult,
        SpannerParams,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let points = generators::uniform_points(&mut rng, 70, 2, 2.5);
        let ubg = UbgBuilder::unit_disk().build(points).unwrap();
        let params = SpannerParams::for_epsilon(0.5, 1.0).unwrap();
        let result = RelaxedGreedy::new(params).run(&ubg);
        (ubg, result, params)
    }

    #[test]
    fn verification_accepts_a_correct_spanner() {
        let (ubg, result, params) = sample_instance();
        let report = verify_spanner(ubg.graph(), &result.spanner, params.t);
        assert!(report.stretch_ok, "violations: {:?}", report.violations);
        assert!(report.stretch <= params.t + 1e-9);
        assert!(report.weight_ratio >= 1.0 - 1e-9);
        assert_eq!(report.spanner_edges, result.spanner.edge_count());
        assert_eq!(report.base_edges, ubg.graph().edge_count());
    }

    #[test]
    fn verification_flags_a_broken_spanner() {
        let (ubg, result, params) = sample_instance();
        // Sabotage: drop a third of the spanner's edges.
        let mut count = 0;
        let broken = result.spanner.filter_edges(|_| {
            count += 1;
            count % 3 != 0
        });
        let report = verify_spanner(ubg.graph(), &broken, params.t);
        assert!(!report.stretch_ok);
        // Every failure is either a finite violation or a disconnection —
        // both must be visible in the report.
        assert!(
            !report.violations.is_empty() || report.disconnected_pairs > 0,
            "a broken spanner must surface its failures"
        );
        assert!(report.stretch > params.t || report.disconnected_pairs > 0);
        assert!(report.stretch.is_finite());
    }

    #[test]
    fn disconnection_is_reported_explicitly_and_serializes_finite() {
        let (ubg, result, params) = sample_instance();
        // Sabotage: isolate node 0 entirely — every base edge at node 0
        // becomes a disconnected pair.
        let broken = result.spanner.filter_edges(|e| !e.touches(0));
        let report = verify_spanner(ubg.graph(), &broken, params.t);
        assert!(!report.stretch_ok);
        assert!(report.disconnected_pairs > 0);
        assert_eq!(report.disconnected_pairs, ubg.graph().degree(0));
        // The finite stretch plus the explicit count round-trip through
        // JSON; before this field existed the report serialized stretch as
        // `null` (the vendored serde_json cannot represent infinities).
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(
            !json.contains("null"),
            "verification output degraded to null: {json}"
        );
        assert!(json.contains("\"disconnected_pairs\""));
    }

    #[test]
    fn identity_spanner_has_stretch_one() {
        let (ubg, _, _) = sample_instance();
        let report = verify_spanner(ubg.graph(), ubg.graph(), 1.0);
        assert!(report.stretch_ok);
        assert!((report.stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leapfrog_spot_check_passes_on_greedy_output() {
        let (ubg, result, params) = sample_instance();
        // Theorem 13 only proves the property for t2 barely above 1 (the
        // bound involves (t_delta + 1)/r - 1); spot-check at that scale.
        let violations = leapfrog_violations(ubg.points(), &result.spanner, 1.0005, params.t);
        assert!(
            violations.is_empty(),
            "unexpected leapfrog violations: {violations:?}"
        );
    }

    #[test]
    fn leapfrog_detects_a_planted_violation() {
        // Two long parallel edges between two tight point pairs violate the
        // pairwise leapfrog inequality for t2 close to t when both are kept.
        let points = vec![
            Point::new2(0.0, 0.0),
            Point::new2(0.0, 0.001),
            Point::new2(1.0, 0.0),
            Point::new2(1.0, 0.001),
        ];
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 3, 1.0);
        let violations = leapfrog_violations(&points, &g, 1.5, 1.5);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn verify_rejects_stretch_below_one() {
        let g = WeightedGraph::new(2);
        let _ = verify_spanner(&g, &g, 0.9);
    }

    #[test]
    #[should_panic(expected = "t >= t2 > 1")]
    fn leapfrog_rejects_bad_parameters() {
        let _ = leapfrog_violations(&[], &WeightedGraph::new(0), 2.0, 1.5);
    }
}
