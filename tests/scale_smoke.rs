//! Scale tests: pinned output hashes of seeded end-to-end builds.
//!
//! * `relaxed_spanner_hash_is_pinned_at_20k_nodes` (tier 1) pins the
//!   relaxed spanner's edge hash at a size small enough for the default
//!   suite, so a change to the phase engine that alters its output fails
//!   `cargo test` even when every run still agrees with itself.
//! * `scale_smoke_200k_nodes_build_verify_deterministic` (tier 2) is
//!   `#[ignore]`d so the default suite stays fast; the release-mode CI job
//!   runs it explicitly with `--ignored`. It checks the things a scale
//!   regression would break first:
//!
//!   1. the construction completes (no quadratic blow-up sneaks back in),
//!   2. the spanner meets its stretch target on a deterministic sample of
//!      base edges (full verification at this size is a benchmark, not a
//!      smoke test),
//!   3. two seeded runs produce bit-identical edge lists (stable FNV-1a
//!      hash), i.e. scale does not cost determinism, and both lists equal
//!      the pinned hashes that `scale 200000` and perfbench also report.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology_control::prelude::*;

const N: usize = 200_000;
const SEED: u64 = 2006;
/// Keep every `SAMPLE_STRIDE`-th base edge for the stretch check.
const SAMPLE_STRIDE: usize = 97;
/// Edge hashes of the seed-2006 200k-node UBG and relaxed spanner.
const UBG_HASH_200K: u64 = 0x32cc_c615_98c8_1f43;
const SPANNER_HASH_200K: u64 = 0xea51_9293_3fa4_9d03;
/// Size and edge hash of the tier-1 pinned build (seed 2006).
const N_PINNED: usize = 20_000;
const SPANNER_HASH_20K: u64 = 0xbc37_28e7_a230_abc6;

fn build_instance(n: usize) -> (UnitBallGraph, tc_spanner::SpannerResult, SpannerParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let side = generators::side_for_target_degree(n, 2, 8.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension");
    let params = SpannerParams::for_epsilon(1.0, 1.0).expect("valid parameters");
    let result = RelaxedGreedy::new(params).run(&ubg);
    (ubg, result, params)
}

/// Stable FNV-1a over the canonical `(u, v, weight-bits)` edge stream —
/// independent of platform hash seeds, so two runs (or two machines) can
/// compare fingerprints.
fn edge_hash(graph: &WeightedGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in graph.sorted_edges() {
        mix(&e.u.to_le_bytes());
        mix(&e.v.to_le_bytes());
        mix(&e.weight.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn relaxed_spanner_hash_is_pinned_at_20k_nodes() {
    let (_, result, _) = build_instance(N_PINNED);
    assert_eq!(
        edge_hash(&result.spanner),
        SPANNER_HASH_20K,
        "the seed-{SEED} {N_PINNED}-node spanner changed: {:016x}",
        edge_hash(&result.spanner)
    );
}

#[test]
#[ignore = "tier-2 scale test: ~200k nodes, release mode; CI runs it with --ignored"]
fn scale_smoke_200k_nodes_build_verify_deterministic() {
    let (ubg, result, params) = build_instance(N);
    assert_eq!(result.spanner.node_count(), N);
    assert!(
        result.spanner.edge_count() > 0,
        "a connected 200k-node deployment must keep edges"
    );
    // Bounded degree is the paper's Theorem 11; at this size a regression
    // shows up as a degree growing with n, not as a small constant shift.
    assert!(
        result.spanner.max_degree() < 100,
        "max degree {} is not O(1)-like",
        result.spanner.max_degree()
    );

    // Stretch on a deterministic sample of base edges. The spanner is a
    // t-spanner of the full UBG, so every sampled edge must meet the
    // target; sampling only bounds the check's cost, not its strictness.
    let mut sampled = WeightedGraph::new(ubg.len());
    for (i, e) in ubg.graph().edges().enumerate() {
        if i % SAMPLE_STRIDE == 0 {
            sampled.add_edge(e.u, e.v, e.weight);
        }
    }
    assert!(sampled.edge_count() > 1_000, "sample unexpectedly small");
    let report = verify_spanner(&sampled, &result.spanner, params.t);
    assert!(
        report.stretch_ok,
        "sampled stretch check failed: stretch {} over target {}, {} disconnected, {} violations",
        report.stretch,
        params.t,
        report.disconnected_pairs,
        report.violations.len()
    );

    // Determinism: a second seeded run must reproduce both edge lists
    // bit for bit, and both must be the pinned ones.
    let (ubg2, result2, _) = build_instance(N);
    assert_eq!(
        edge_hash(ubg.graph()),
        edge_hash(ubg2.graph()),
        "UBG construction is not reproducible at scale"
    );
    assert_eq!(
        edge_hash(&result.spanner),
        edge_hash(&result2.spanner),
        "spanner construction is not reproducible at scale"
    );
    assert_eq!(
        edge_hash(ubg.graph()),
        UBG_HASH_200K,
        "the seed-{SEED} 200k-node UBG changed"
    );
    assert_eq!(
        edge_hash(&result.spanner),
        SPANNER_HASH_200K,
        "the seed-{SEED} 200k-node spanner changed"
    );
}
