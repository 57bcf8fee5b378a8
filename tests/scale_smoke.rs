//! Scale tests: pinned output hashes of seeded end-to-end builds.
//!
//! * `relaxed_spanner_hash_is_pinned_at_20k_nodes` (tier 1) pins the UBG's
//!   and the relaxed spanner's edge hashes at a size small enough for the
//!   default suite, so a change to the builder or the phase engine that
//!   alters its output fails `cargo test` even when every run still agrees
//!   with itself. The hashes sort the edges, so the test also asserts that
//!   every UBG row is in ascending neighbour order: the spanner
//!   construction iterates the rows, and its output depends on that order.
//! * `distributed_spanner_hash_and_rounds_are_pinned_at_5k_nodes` (tier 1)
//!   does the same for the distributed construction, pinning its round
//!   count and its MIS message count too: a change to a graph the MIS
//!   protocols run on moves the message count first. It also pins the
//!   ledger's split that perfbench's `dist.*` metrics read: the rounds
//!   charged to the cover and the conflict MIS, and the most messages a
//!   node sent in one round.
//!   `distributed_luby_run_is_pinned_at_5k_nodes` pins the same build
//!   with Luby's protocol, whose rounds depend on its seeded draws.
//! * `tie_heavy_spanner_hashes_are_pinned` (tier 1) pins the relaxed
//!   spanner on two deployments full of ties: a lattice, where every axis
//!   edge and every diagonal has one weight, and duplicated points, whose
//!   zero-weight edges fill phase 0. Random points have no ties, so only
//!   these pins catch a tie-break that drifts (the construction breaks
//!   every tie by node ID).
//! * `scale_smoke_200k_nodes_build_verify_deterministic` (tier 2) is
//!   `#[ignore]`d so the default suite stays fast; the release-mode CI job
//!   runs it explicitly with `--ignored`. It checks the things a scale
//!   regression would break first:
//!
//!   1. the construction completes (no quadratic blow-up sneaks back in),
//!   2. the spanner meets the paper's guarantees on *every* base edge:
//!      `verify_spanner` streams the stretch sweep, so the full check fits
//!      the smoke test's time and memory — stretch within the target with
//!      no disconnected pair (Thm 10) and weight within a constant of the
//!      MST's (Thm 13),
//!   3. two seeded runs produce bit-identical edge lists (stable FNV-1a
//!      hash), i.e. scale does not cost determinism, and both lists equal
//!      the pinned hashes that `scale 200000` and perfbench also report.
//! * `distributed_scale_smoke_200k_nodes` (tier 2, `#[ignore]`d likewise)
//!   runs the distributed construction on the same 200k deployment and
//!   checks the stretch of *every* base edge, the maximum degree and the
//!   round count against the paper's `O(log n · log* n)` bound, and pins
//!   its edge hash, round count and MIS message count as `scale 200000`
//!   reports them.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology_control::prelude::*;
use topology_control::spanner::MisProtocol;

const N: usize = 200_000;
const SEED: u64 = 2006;
/// Upper bound on `w(spanner) / w(MST)` at 200k nodes (Thm 13: O(1)). The
/// seed-2006 build measures 1.59.
const WEIGHT_RATIO_BOUND_200K: f64 = 3.0;
/// Edge hashes of the seed-2006 200k-node UBG and relaxed spanner.
const UBG_HASH_200K: u64 = 0x32cc_c615_98c8_1f43;
const SPANNER_HASH_200K: u64 = 0xea51_9293_3fa4_9d03;
/// Size and edge hashes of the tier-1 pinned build (seed 2006).
const N_PINNED: usize = 20_000;
const UBG_HASH_20K: u64 = 0xb637_117a_bb29_7747;
const SPANNER_HASH_20K: u64 = 0xbc37_28e7_a230_abc6;
/// Size, edge hash, round count and MIS message count of the tier-1
/// pinned distributed build (seed 2006).
const N_DIST_PINNED: usize = 5_000;
const DIST_SPANNER_HASH_5K: u64 = 0x93c2_b3cf_b9d6_b35a;
const DIST_ROUNDS_5K: usize = 2_824;
const DIST_MESSAGES_5K: usize = 400;
/// Rounds the 5k ledger charges to the `cover/mis` and `redundant/mis`
/// steps, and the most messages a node sent in one round.
const DIST_COVER_MIS_ROUNDS_5K: usize = 22;
const DIST_REDUNDANT_MIS_ROUNDS_5K: usize = 264;
const DIST_MAX_MESSAGES_PER_NODE_ROUND_5K: usize = 2;
/// Luby seed, edge hash, round count and MIS message count of the 5k
/// distributed build with Luby's protocol.
const DIST_LUBY_SEED: u64 = 5;
const DIST_LUBY_HASH_5K: u64 = 0x40aa_3f38_5e33_4865;
const DIST_LUBY_ROUNDS_5K: usize = 2_819;
const DIST_LUBY_MESSAGES_5K: usize = 400;
/// Edge hash, round count and MIS message count of the seed-2006
/// 200k-node distributed build.
const DIST_SPANNER_HASH_200K: u64 = 0xdd53_8dee_40b9_19bd;
const DIST_ROUNDS_200K: usize = 5_747;
const DIST_MESSAGES_200K: usize = 15_016;
/// Spanner edge hashes of the tie-heavy deployments (`lattice`,
/// `duplicated`).
const LATTICE_SPANNER_HASH: u64 = 0x765f_f349_b70a_e6ec;
const DUPLICATED_SPANNER_HASH: u64 = 0x6eb3_0774_e2d9_17d5;
/// Upper bound on `rounds / (log n · log* n)` at 200k nodes. The ratio
/// reads 54 at 5k, 67 at 20k and 64 at 200k (seed 2006); a per-phase cost
/// that grew with `n` would push it past the bound.
const DIST_NORMALIZED_ROUNDS_BOUND: f64 = 80.0;

/// The seed-2006 `n`-node deployment at expected degree 8, with the
/// parameters of every build in this file.
fn deploy(n: usize) -> (UnitBallGraph, SpannerParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let side = generators::side_for_target_degree(n, 2, 8.0);
    let points = generators::uniform_points(&mut rng, n, 2, side);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension");
    let params = SpannerParams::for_epsilon(1.0, 1.0).expect("valid parameters");
    (ubg, params)
}

fn build_instance(n: usize) -> (UnitBallGraph, tc_spanner::SpannerResult, SpannerParams) {
    let (ubg, params) = deploy(n);
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
    let (ubg, result, _) = build_instance(N_PINNED);
    assert_eq!(
        edge_hash(ubg.graph()),
        UBG_HASH_20K,
        "the seed-{SEED} {N_PINNED}-node UBG changed: {:016x}",
        edge_hash(ubg.graph())
    );
    for u in 0..ubg.len() {
        let row = ubg.graph().neighbors(u);
        assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "UBG row {u} is not in ascending neighbour order: {row:?}"
        );
    }
    assert_eq!(
        edge_hash(&result.spanner),
        SPANNER_HASH_20K,
        "the seed-{SEED} {N_PINNED}-node spanner changed: {:016x}",
        edge_hash(&result.spanner)
    );
}

/// A 70 × 70 square lattice at spacing 0.625 (exact in binary), so every
/// axis edge weighs 0.625 and every diagonal `0.625·√2`, bit for bit.
fn lattice() -> UnitBallGraph {
    let points = (0..70)
        .flat_map(|i| (0..70).map(move |j| Point::new2(0.625 * i as f64, 0.625 * j as f64)))
        .collect();
    UbgBuilder::unit_disk()
        .build(points)
        .expect("lattice points share a dimension")
}

/// 2 000 seed-2006 points at expected degree 8, each twice, and every
/// third a third time 10^-5 away: zero-weight and near-zero edges that all
/// fall in phase 0.
fn duplicated() -> UnitBallGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let side = generators::side_for_target_degree(2_000, 2, 8.0);
    let base = generators::uniform_points(&mut rng, 2_000, 2, side);
    let mut points = base.clone();
    for (i, p) in base.iter().enumerate() {
        points.push(p.clone());
        if i % 3 == 0 {
            points.push(p.translated(&[1e-5 * (i % 7) as f64, 1e-5]));
        }
    }
    UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension")
}

#[test]
fn tie_heavy_spanner_hashes_are_pinned() {
    let params = SpannerParams::for_epsilon(1.0, 1.0).expect("valid parameters");
    for (name, ubg, pinned) in [
        ("lattice", lattice(), LATTICE_SPANNER_HASH),
        ("duplicated", duplicated(), DUPLICATED_SPANNER_HASH),
    ] {
        let result = RelaxedGreedy::new(params).run(&ubg);
        if name == "duplicated" {
            assert!(
                result
                    .phases
                    .first()
                    .is_some_and(|p| p.bin == 0 && p.added_edges > 0),
                "the duplicated deployment must run a non-empty phase 0"
            );
        }
        assert_eq!(
            edge_hash(&result.spanner),
            pinned,
            "the {name} spanner changed: {:016x}",
            edge_hash(&result.spanner)
        );
    }
}

#[test]
fn distributed_spanner_hash_and_rounds_are_pinned_at_5k_nodes() {
    let (ubg, params) = deploy(N_DIST_PINNED);
    let out = DistributedRelaxedGreedy::new(params).run(&ubg);
    assert_eq!(
        (edge_hash(&out.result.spanner), out.rounds, out.messages),
        (DIST_SPANNER_HASH_5K, DIST_ROUNDS_5K, DIST_MESSAGES_5K),
        "the seed-{SEED} {N_DIST_PINNED}-node distributed spanner changed: {:016x}, {} rounds, \
         {} MIS messages",
        edge_hash(&out.result.spanner),
        out.rounds,
        out.messages
    );
    let step_rounds = |step: &str| -> usize {
        out.ledger
            .entries()
            .filter(|(label, _)| label.split_once('/').is_some_and(|(_, s)| s == step))
            .map(|(_, stats)| stats.rounds)
            .sum()
    };
    let max_per_node = out
        .ledger
        .entries()
        .map(|(_, stats)| stats.max_messages_per_node_round)
        .max();
    assert_eq!(
        (
            step_rounds("cover/mis"),
            step_rounds("redundant/mis"),
            max_per_node
        ),
        (
            DIST_COVER_MIS_ROUNDS_5K,
            DIST_REDUNDANT_MIS_ROUNDS_5K,
            Some(DIST_MAX_MESSAGES_PER_NODE_ROUND_5K)
        ),
        "the ledger split of the seed-{SEED} {N_DIST_PINNED}-node distributed build changed"
    );
}

#[test]
fn distributed_luby_run_is_pinned_at_5k_nodes() {
    let (ubg, params) = deploy(N_DIST_PINNED);
    let out = DistributedRelaxedGreedy::new(params)
        .with_mis_protocol(MisProtocol::Luby {
            seed: DIST_LUBY_SEED,
        })
        .run(&ubg);
    assert_eq!(
        (edge_hash(&out.result.spanner), out.rounds, out.messages),
        (
            DIST_LUBY_HASH_5K,
            DIST_LUBY_ROUNDS_5K,
            DIST_LUBY_MESSAGES_5K
        ),
        "the seed-{SEED} {N_DIST_PINNED}-node distributed spanner with Luby seed \
         {DIST_LUBY_SEED} changed: {:016x}, {} rounds, {} MIS messages",
        edge_hash(&out.result.spanner),
        out.rounds,
        out.messages
    );
}

#[test]
#[ignore = "tier-2 scale test: ~200k nodes, release mode; CI runs it with --ignored"]
fn distributed_scale_smoke_200k_nodes() {
    let (ubg, params) = deploy(N);
    let out = DistributedRelaxedGreedy::new(params).run(&ubg);
    let report = verify_spanner(ubg.graph(), &out.result.spanner, params.t);
    assert_eq!(report.base_edges, ubg.graph().edge_count());
    assert!(
        report.stretch_ok,
        "stretch {} over target {}, {} disconnected, {} violations",
        report.stretch,
        params.t,
        report.disconnected_pairs,
        report.violations.len()
    );
    assert!(
        report.max_degree <= 16,
        "max degree {} is not O(1)-like",
        report.max_degree
    );
    assert!(
        out.normalized_rounds() <= DIST_NORMALIZED_ROUNDS_BOUND,
        "{} rounds = {:.1} · log n · log* n, over the bound {DIST_NORMALIZED_ROUNDS_BOUND}",
        out.rounds,
        out.normalized_rounds()
    );
    assert_eq!(
        (edge_hash(&out.result.spanner), out.rounds, out.messages),
        (DIST_SPANNER_HASH_200K, DIST_ROUNDS_200K, DIST_MESSAGES_200K),
        "the seed-{SEED} {N}-node distributed spanner changed: {:016x}, {} rounds, \
         {} MIS messages",
        edge_hash(&out.result.spanner),
        out.rounds,
        out.messages
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

    // Stretch and weight over every base edge.
    let report = verify_spanner(ubg.graph(), &result.spanner, params.t);
    assert_eq!(report.base_edges, ubg.graph().edge_count());
    assert!(
        report.stretch_ok,
        "stretch check failed: stretch {} over target {}, {} disconnected, {} violations",
        report.stretch,
        params.t,
        report.disconnected_pairs,
        report.violations.len()
    );
    assert!(
        report.weight_ratio <= WEIGHT_RATIO_BOUND_200K,
        "weight ratio {} over the bound {WEIGHT_RATIO_BOUND_200K}",
        report.weight_ratio
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
