//! The benchmark's workloads: seeded deployments and the timed
//! construction + verification repetition every run is made of.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;
use tc_geometry::PointStore;
use tc_graph::WeightedGraph;
use tc_spanner::verify::{verify_spanner, VerificationReport};
use tc_spanner::{DistributedRelaxedGreedy, RelaxedGreedy, SpannerParams};
use tc_ubg::{generators, GreyZonePolicy, UbgBuilder, UnitBallGraph};

/// Verification repeats within a repetition until it has run this long,
/// so even the small workloads time enough verification work.
const VERIFY_MIN_S: f64 = 1.0;

/// Which construction a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// `RelaxedGreedy::run` (Section 2).
    Sequential,
    /// `DistributedRelaxedGreedy::run` (Section 3).
    Distributed,
}

/// One workload: a deployment shape, its size and the worker count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub dim: usize,
    pub alpha: f64,
    /// Connection probability of grey-zone pairs; `None` for a UDG.
    pub grey_p: Option<f64>,
    pub target_degree: f64,
    pub epsilon: f64,
    /// Worker count pinned through `TC_THREADS`.
    pub threads: usize,
    pub construction: Construction,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "udg-2d-200k",
        nodes: 200_000,
        dim: 2,
        alpha: 1.0,
        grey_p: None,
        target_degree: 8.0,
        epsilon: 1.0,
        threads: 1,
        construction: Construction::Sequential,
    },
    Workload {
        name: "grey3d-100k-t2",
        nodes: 100_000,
        dim: 3,
        alpha: 0.6,
        grey_p: Some(0.5),
        target_degree: 12.0,
        epsilon: 1.0,
        threads: 2,
        construction: Construction::Sequential,
    },
    Workload {
        name: "dist-udg-20k",
        nodes: 20_000,
        dim: 2,
        alpha: 1.0,
        grey_p: None,
        target_degree: 8.0,
        epsilon: 1.0,
        threads: 1,
        construction: Construction::Distributed,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn params(&self) -> SpannerParams {
        SpannerParams::for_epsilon(self.epsilon, self.alpha)
            .expect("every workload has epsilon > 0 and alpha in (0, 1]")
    }

    pub fn builder(&self, seed: u64) -> UbgBuilder {
        let builder = UbgBuilder::new(self.alpha);
        match self.grey_p {
            // The grey-zone hash seed derives from the workload seed, so
            // one seed fixes the whole input.
            Some(probability) => builder.grey_zone(GreyZonePolicy::Probabilistic {
                probability,
                seed: seed ^ 0x6772_6579,
            }),
            None => builder,
        }
    }

    /// The seeded deployment of `n` nodes: uniform in the cube sized for
    /// the target degree, drawn exactly as the `scale` harness draws it.
    pub fn deployment(&self, n: usize, seed: u64) -> PointStore {
        let side = generators::side_for_target_degree(n, self.dim, self.target_degree);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = generators::uniform_points(&mut rng, n, self.dim, side);
        PointStore::from_points(&points).expect("generated points share one dimension")
    }
}

/// The outcome of one construction + verification repetition.
pub struct Rep {
    pub build_s: f64,
    /// One entry per `verify_spanner` call.
    pub verify_s: Vec<f64>,
    pub ubg_hash: String,
    pub spanner_hash: String,
    pub report: VerificationReport,
    /// The `rounds` metric: rounds charged to the distributed
    /// construction's ledger. The sequential construction has no
    /// communication; for it this counts its synchronous steps (phases).
    pub rounds: usize,
}

impl Rep {
    /// Thm 10 check: every base edge within `t`, no disconnected pair.
    pub fn passes(&self) -> bool {
        self.report.stretch_ok
    }

    /// Whether two repetitions produced the same output.
    pub fn same_output(&self, other: &Rep) -> bool {
        self.ubg_hash == other.ubg_hash
            && self.spanner_hash == other.spanner_hash
            && self.rounds == other.rounds
    }
}

/// Points → α-UBG → spanner (timed), then `verify_spanner` (timed, repeated
/// for at least `VERIFY_MIN_S`).
///
/// `inject_fault` disconnects the base graph's highest-degree node from
/// the spanner before verification, so the self-test can prove a broken
/// output fails the run.
pub fn run_rep(wl: &Workload, store: &PointStore, seed: u64, inject_fault: bool) -> Rep {
    let params = wl.params();
    let builder = wl.builder(seed);
    let points = store.clone();

    let start = Instant::now();
    let ubg = builder.build_store(points);
    let (mut spanner, rounds) = match wl.construction {
        Construction::Sequential => {
            let result = RelaxedGreedy::new(params).run(&ubg);
            let phases = result.phase_count();
            (result.spanner, phases)
        }
        Construction::Distributed => {
            let out = DistributedRelaxedGreedy::new(params).run(&ubg);
            (out.result.spanner, out.rounds)
        }
    };
    let build_s = start.elapsed().as_secs_f64();
    black_box(&spanner);

    if inject_fault {
        disconnect_busiest(&ubg, &mut spanner);
    }

    let mut verify_s = Vec::new();
    let report = loop {
        let start = Instant::now();
        let report = verify_spanner(ubg.graph(), &spanner, params.t);
        verify_s.push(start.elapsed().as_secs_f64());
        if verify_s.iter().sum::<f64>() >= VERIFY_MIN_S {
            break report;
        }
    };

    Rep {
        build_s,
        verify_s,
        ubg_hash: edge_hash(ubg.graph()),
        spanner_hash: edge_hash(&spanner),
        report,
        rounds,
    }
}

fn disconnect_busiest(ubg: &UnitBallGraph, spanner: &mut WeightedGraph) {
    let graph = ubg.graph();
    let Some(busiest) = (0..graph.node_count()).max_by_key(|&v| graph.degree(v)) else {
        return;
    };
    let incident: Vec<usize> = spanner.neighbors(busiest).iter().map(|&(v, _)| v).collect();
    for v in incident {
        let _ = spanner.remove_edge(busiest, v);
    }
}

/// Stable FNV-1a fingerprint of the sorted `(u, v, weight-bits)` edge
/// stream — the same fingerprint the `scale` harness prints.
pub fn edge_hash(graph: &WeightedGraph) -> String {
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
    format!("{h:016x}")
}
