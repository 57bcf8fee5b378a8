//! The parallel construction path must be a pure performance knob: for any
//! worker count, the built UBG, the relaxed-greedy spanner, its per-phase
//! statistics, and the distributed variant's output are all bitwise
//! identical to the sequential (`TC_THREADS=1`) run.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use tc_graph::par::{self, THREADS_ENV};
use tc_spanner::{DistributedRelaxedGreedy, RelaxedGreedy, SpannerParams};
use tc_ubg::{generators, GreyZonePolicy, UbgBuilder};

/// Serialises every test that mutates `TC_THREADS` — environment variables
/// are process-global and the tests in this binary run concurrently.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `TC_THREADS` pinned to `threads` (`None` = unset, i.e.
/// all available cores), restoring the previous value afterwards.
fn with_threads<T>(threads: Option<&str>, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var(THREADS_ENV).ok();
    match threads {
        Some(k) => std::env::set_var(THREADS_ENV, k),
        None => std::env::remove_var(THREADS_ENV),
    }
    let out = f();
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// Canonical bit-exact fingerprint of one full construction: the UBG edge
/// stream, the spanner edge stream (weights as raw bits), and the
/// serialized per-phase statistics.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    base: Vec<(usize, usize, u64)>,
    spanner: Vec<(usize, usize, u64)>,
    phases: String,
}

fn edge_bits(g: &tc_graph::WeightedGraph) -> Vec<(usize, usize, u64)> {
    g.edges().map(|e| (e.u, e.v, e.weight.to_bits())).collect()
}

fn construct(seed: u64, n: usize, epsilon: f64) -> Fingerprint {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points = generators::uniform_points(&mut rng, n, 2, 2.5);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension");
    let params = SpannerParams::for_epsilon(epsilon, 1.0).expect("valid parameters");
    let result = RelaxedGreedy::new(params).run(&ubg);
    Fingerprint {
        base: edge_bits(ubg.graph()),
        spanner: edge_bits(&result.spanner),
        phases: serde_json::to_string(&result.phases).expect("phase stats serialize"),
    }
}

fn construct_distributed(seed: u64, n: usize) -> (Fingerprint, usize, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points = generators::uniform_points(&mut rng, n, 2, 2.0);
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension");
    let params = SpannerParams::for_epsilon(0.75, 1.0).expect("valid parameters");
    let out = DistributedRelaxedGreedy::new(params).run(&ubg);
    let fp = Fingerprint {
        base: edge_bits(ubg.graph()),
        spanner: edge_bits(&out.result.spanner),
        phases: serde_json::to_string(&out.result.phases).expect("phase stats serialize"),
    };
    (fp, out.rounds, out.messages)
}

#[test]
fn construction_is_bitwise_identical_across_thread_counts() {
    let reference = with_threads(Some("1"), || construct(7, 350, 0.5));
    for threads in [Some("2"), Some("3"), None] {
        let run = with_threads(threads, || construct(7, 350, 0.5));
        assert_eq!(
            reference, run,
            "construction output diverged for TC_THREADS={threads:?}"
        );
    }
}

/// A 3D grey-zone deployment large enough that the phase loop takes the
/// parallel path: its larger bins exceed the engine's inline cutoff.
fn construct_grey_3d(seed: u64, n: usize) -> Fingerprint {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let side = generators::side_for_target_degree(n, 3, 12.0);
    let points = generators::uniform_points(&mut rng, n, 3, side);
    let ubg = UbgBuilder::new(0.6)
        .grey_zone(GreyZonePolicy::Probabilistic {
            probability: 0.5,
            seed: seed ^ 0x6772_6579,
        })
        .build(points)
        .expect("generator points share a dimension");
    let params = SpannerParams::for_epsilon(1.0, 0.6).expect("valid parameters");
    let result = RelaxedGreedy::new(params).run(&ubg);
    Fingerprint {
        base: edge_bits(ubg.graph()),
        spanner: edge_bits(&result.spanner),
        phases: serde_json::to_string(&result.phases).expect("phase stats serialize"),
    }
}

#[test]
fn parallel_phases_on_a_grey_zone_3d_deployment_are_bitwise_identical() {
    let reference = with_threads(Some("1"), || construct_grey_3d(2006, 6_000));
    for threads in [Some("2"), Some("3"), None] {
        let (run, regions) = with_threads(threads, || {
            let before = par::parallel_regions();
            let run = construct_grey_3d(2006, 6_000);
            (run, par::parallel_regions() - before)
        });
        assert_eq!(
            reference, run,
            "construction output diverged for TC_THREADS={threads:?}"
        );
        if threads.is_some() {
            assert!(
                regions > 0,
                "TC_THREADS={threads:?} ran no region on more than one worker"
            );
        }
    }
}

#[test]
fn distributed_construction_is_bitwise_identical_across_thread_counts() {
    let reference = with_threads(Some("1"), || construct_distributed(11, 200));
    for threads in [Some("2"), None] {
        let run = with_threads(threads, || construct_distributed(11, 200));
        assert_eq!(
            reference, run,
            "distributed output diverged for TC_THREADS={threads:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_seed_is_thread_count_invariant(
        seed in 0u64..1000,
        n in 40usize..120,
        eps_idx in 0usize..3,
    ) {
        let epsilon = [0.5, 1.0, 2.0][eps_idx];
        let reference = with_threads(Some("1"), || construct(seed, n, epsilon));
        let two = with_threads(Some("2"), || construct(seed, n, epsilon));
        let all = with_threads(None, || construct(seed, n, epsilon));
        prop_assert_eq!(&reference, &two);
        prop_assert_eq!(&reference, &all);
    }
}
