//! `verify_spanner`, `stretch_summary` and `spanner_report` stream the
//! stretch sweep: each chunk of edge sources keeps only its worst stretch,
//! its disconnection count and its violations. This file checks them
//! field by field against the per-edge reduction they replace — a fold of
//! the sequential heap oracle `edge_stretches_seq` below, one full Dijkstra
//! per edge source — on UBG instances with violations, disconnected pairs,
//! zero-weight edges between duplicate points, an edgeless spanner, and
//! node counts that are not a multiple of the sweep's chunk size, at
//! `TC_THREADS` 1 and 2. This file is its own test process and serialises
//! its environment changes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use tc_geometry::Point;
use tc_graph::par::THREADS_ENV;
use tc_graph::properties::{self, EdgeStretch, SpannerReport};
use tc_graph::{dijkstra, CsrGraph, Edge, GraphView, WeightedGraph};
use tc_spanner::verify::{verify_spanner, VerificationReport};
use tc_spanner::{RelaxedGreedy, SpannerParams};
use tc_ubg::{generators, UbgBuilder, UnitBallGraph};

/// Serialises the tests that pin `TC_THREADS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    std::env::remove_var(THREADS_ENV);
    out
}

/// The fields of a verification report as bits, violations in order.
#[derive(Debug, PartialEq)]
struct ReportBits {
    stretch: u64,
    disconnected_pairs: usize,
    stretch_ok: bool,
    violations: Vec<(usize, usize, u64)>,
    max_degree: usize,
    weight_ratio: u64,
    spanner_edges: usize,
    base_edges: usize,
}

fn bits(report: &VerificationReport) -> ReportBits {
    ReportBits {
        stretch: report.stretch.to_bits(),
        disconnected_pairs: report.disconnected_pairs,
        stretch_ok: report.stretch_ok,
        violations: report
            .violations
            .iter()
            .map(|&(u, v, s)| (u, v, s.to_bits()))
            .collect(),
        max_degree: report.max_degree,
        weight_ratio: report.weight_ratio.to_bits(),
        spanner_edges: report.spanner_edges,
        base_edges: report.base_edges,
    }
}

/// The sequential heap oracle: one full binary-heap Dijkstra per distinct
/// edge source, the stretches in `for_each_edge` order — the order the
/// sweep reports violations in. A zero-weight edge has stretch 1 when its
/// endpoints coincide in the subgraph too, and is infinite otherwise.
fn edge_stretches_seq<B: GraphView, S: GraphView>(base: &B, subgraph: &S) -> Vec<EdgeStretch> {
    let mut by_source: Vec<Vec<Edge>> = vec![Vec::new(); base.node_count()];
    base.for_each_edge(|e| by_source[e.u].push(e));
    let mut out = Vec::with_capacity(base.edge_count());
    for (source, edges) in by_source.iter().enumerate() {
        if edges.is_empty() {
            continue;
        }
        let dist = dijkstra::shortest_path_distances(subgraph, source);
        for &edge in edges {
            let sp = dist[edge.v].unwrap_or(f64::INFINITY);
            let stretch = match (edge.weight == 0.0, sp == 0.0) {
                (true, true) => 1.0,
                (true, false) => f64::INFINITY,
                (false, _) => sp / edge.weight,
            };
            out.push(EdgeStretch { edge, stretch });
        }
    }
    out
}

/// `verify_spanner` as a fold over every per-edge stretch of the
/// sequential oracle.
fn oracle_report(base: &WeightedGraph, spanner: &WeightedGraph, t: f64) -> ReportBits {
    let (base_csr, spanner_csr) = (CsrGraph::from(base), CsrGraph::from(spanner));
    let mut worst = 1.0_f64;
    let mut disconnected_pairs = 0;
    let mut violations = Vec::new();
    for es in edge_stretches_seq(&base_csr, &spanner_csr) {
        if !es.stretch.is_finite() {
            disconnected_pairs += 1;
            continue;
        }
        worst = worst.max(es.stretch);
        if es.stretch > t + 1e-9 {
            violations.push((es.edge.u, es.edge.v, es.stretch.to_bits()));
        }
    }
    ReportBits {
        stretch: worst.to_bits(),
        disconnected_pairs,
        stretch_ok: violations.is_empty() && disconnected_pairs == 0,
        violations,
        max_degree: spanner.max_degree(),
        weight_ratio: properties::weight_ratio(&base_csr, &spanner_csr).to_bits(),
        spanner_edges: spanner.edge_count(),
        base_edges: base.edge_count(),
    }
}

/// `spanner_report` with its stretch fields from the folded oracle.
fn oracle_spanner_report(base: &CsrGraph, spanner: &CsrGraph) -> SpannerReport {
    let mut max_stretch = 1.0_f64;
    let mut disconnected_pairs = 0;
    for es in edge_stretches_seq(base, spanner) {
        if es.stretch.is_finite() {
            max_stretch = max_stretch.max(es.stretch);
        } else {
            disconnected_pairs += 1;
        }
    }
    SpannerReport {
        nodes: base.node_count(),
        base_edges: base.edge_count(),
        spanner_edges: spanner.edge_count(),
        stretch: max_stretch,
        disconnected_pairs,
        max_degree: spanner.max_degree(),
        mean_degree: spanner.mean_degree(),
        weight: spanner.total_weight(),
        weight_ratio: properties::weight_ratio(base, spanner),
        power_cost: spanner.power_cost(),
    }
}

/// Checks every streaming entry point against the oracle at one and two
/// threads, and returns the report for case-specific assertions.
fn assert_matches_oracle(
    name: &str,
    base: &WeightedGraph,
    spanner: &WeightedGraph,
    t: f64,
) -> VerificationReport {
    let expected = oracle_report(base, spanner, t);
    let (base_csr, spanner_csr) = (CsrGraph::from(base), CsrGraph::from(spanner));
    let expected_report = oracle_spanner_report(&base_csr, &spanner_csr);
    let mut last = None;
    for threads in ["1", "2"] {
        let (report, summary, spanner_report) = with_threads(threads, || {
            (
                verify_spanner(base, spanner, t),
                properties::stretch_summary(&base_csr, &spanner_csr),
                properties::spanner_report(&base_csr, &spanner_csr),
            )
        });
        assert_eq!(bits(&report), expected, "{name}: TC_THREADS={threads}");
        assert_eq!(
            (summary.max_stretch.to_bits(), summary.disconnected_pairs),
            (expected.stretch, expected.disconnected_pairs),
            "{name}: stretch_summary at TC_THREADS={threads}"
        );
        assert_eq!(
            format!("{spanner_report:?}"),
            format!("{expected_report:?}"),
            "{name}: spanner_report at TC_THREADS={threads}"
        );
        assert_eq!(
            spanner_report.stretch.to_bits(),
            expected_report.stretch.to_bits()
        );
        last = Some(report);
    }
    last.expect("two thread counts ran")
}

fn deploy(seed: u64, n: usize, side: f64) -> (UnitBallGraph, WeightedGraph, SpannerParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points are finite and share a dimension");
    let params = SpannerParams::for_epsilon(0.5, 1.0).expect("valid parameters");
    let spanner = RelaxedGreedy::new(params).run(&ubg).spanner;
    (ubg, spanner, params)
}

#[test]
fn a_correct_spanner_over_several_chunks_verifies_like_the_oracle() {
    // 2 500 nodes: two full chunks of sources and a partial third.
    let (ubg, spanner, params) = deploy(41, 2_500, 17.0);
    let report = assert_matches_oracle("correct", ubg.graph(), &spanner, params.t);
    assert!(report.stretch_ok);
    assert!(report.stretch > 1.0);
}

#[test]
fn violations_and_disconnected_pairs_are_reported_like_the_oracle() {
    let (ubg, spanner, params) = deploy(42, 1_500, 13.0);
    // Dropping every fourth spanner edge leaves finite violations; cutting
    // off every node divisible by 97 adds disconnected pairs.
    let mut count = 0;
    let broken = spanner.filter_edges(|e| {
        count += 1;
        count % 4 != 0 && e.u % 97 != 0 && e.v % 97 != 0
    });
    let report = assert_matches_oracle("broken", ubg.graph(), &broken, params.t);
    assert!(!report.stretch_ok);
    assert!(report.violations.len() > 1, "the case must have violations");
    assert!(
        report.disconnected_pairs > 0,
        "the case must disconnect pairs"
    );
    // A stretch target of 1 turns every detoured edge into a violation.
    let strict = assert_matches_oracle("t = 1", ubg.graph(), &spanner, 1.0);
    assert!(strict.violations.len() > 100);
}

#[test]
fn an_edgeless_spanner_disconnects_every_base_edge() {
    let (ubg, _, params) = deploy(43, 1_100, 11.0);
    let edgeless = WeightedGraph::new(ubg.len());
    let report = assert_matches_oracle("edgeless", ubg.graph(), &edgeless, params.t);
    assert_eq!(report.disconnected_pairs, ubg.graph().edge_count());
    assert_eq!(report.stretch, 1.0);
    assert!(report.violations.is_empty());
}

#[test]
fn zero_weight_edges_between_duplicate_points_verify_like_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let mut points = generators::uniform_points(&mut rng, 1_030, 2, 11.0);
    // Every tenth point is duplicated, so the UBG has zero-weight edges.
    let copies: Vec<Point> = points.iter().step_by(10).cloned().collect();
    points.extend(copies);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("finite points of one dimension");
    assert!(ubg.graph().edges().any(|e| e.weight == 0.0));
    let params = SpannerParams::for_epsilon(0.5, 1.0).expect("valid parameters");
    let spanner = RelaxedGreedy::new(params).run(&ubg).spanner;
    assert!(assert_matches_oracle("duplicates", ubg.graph(), &spanner, params.t).stretch_ok);
    // Without its zero-weight edges the spanner stretches them infinitely.
    let no_zero = spanner.filter_edges(|e| e.weight > 0.0);
    let report = assert_matches_oracle("duplicates cut", ubg.graph(), &no_zero, params.t);
    assert!(report.disconnected_pairs > 0);
}
