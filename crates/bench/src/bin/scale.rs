//! Scale harness: end-to-end spanner builds at 10^5–10^6 nodes.
//!
//! For each requested size the harness generates a seeded uniform
//! deployment at constant expected degree, builds the UBG through the
//! SoA/grid path, runs the relaxed greedy construction with per-phase
//! timing, verifies it in full, then runs the distributed construction on
//! the same UBG, and appends one record to `BENCH_scale.json` in the
//! current directory:
//!
//! ```text
//! { "schema": "tc-scale/6",
//!   "target_degree": 8.0, "seed": 2006,
//!   "runs": [ { "n", "dim", "side",
//!               "threads",               // resolved TC_THREADS
//!               "available_parallelism", // std's count, 0 if unknown
//!               "ubg_edges", "spanner_edges", "max_degree",
//!               "degree_histogram",      // nodes per degree 0..=max_degree
//!               "gen_seconds", "ubg_seconds", "spanner_seconds",
//!               "stretch_target",        // t = 1 + ε, verified against
//!               "max_stretch", "disconnected_pairs", "weight_ratio",
//!               "verify_seconds",
//!               "phases": {             // parallel arrays, one entry per
//!                 "bin": [...],         // non-empty bin ≥ 1 phase
//!                 "seconds": [...],     // whole-phase wall clock
//!                 "cover_seconds": [...],     // step (i)
//!                 "selection_seconds": [...], // step (ii)
//!                 "h_build_seconds": [...],   // step (iii), ≈ 0
//!                 "query_seconds": [...],     // step (iv)
//!                 "redundant_seconds": [...]  // step (v)
//!               },
//!               "peak_rss_kb",           // VmHWM, null off-Linux
//!               "ubg_edge_hash", "spanner_edge_hash",
//!               "distributed": {         // DistributedRelaxedGreedy
//!                 "seconds", "rounds", "normalized_rounds",
//!                 "mis_messages", "spanner_edges", "max_degree",
//!                 "degree_histogram",
//!                 "spanner_edge_hash", "peak_rss_kb" } } ] }
//! ```
//!
//! The per-phase breakdown is stored as parallel arrays (one line each in
//! the emitted JSON) rather than an array of per-phase objects: at 10^6
//! nodes the construction runs ~600 phases and the object-per-phase form
//! made the report thousands of lines of structural noise around a few
//! kilobytes of numbers.
//!
//! `max_stretch`, `disconnected_pairs`, `weight_ratio` and `max_degree`
//! are the full `verify_spanner` report of the sequential spanner against
//! the UBG — the paper's three guarantees checked on *every* base edge:
//! Thm 10's stretch (the worst finite per-edge stretch, plus the count of
//! base edges the spanner disconnects, which must be 0), Thm 11's degree
//! and Thm 13's weight `w(G') / w(MST(G))` against a Kruskal MST.
//! `verify_seconds` is that call's wall clock. The stretch sweep streams
//! (each chunk of edge sources keeps only its reductions), so the check
//! adds two CSR snapshots to the peak, not a per-edge list.
//!
//! `threads` is the worker count every parallel region of the run
//! resolved (`tc_graph::par::thread_count(0)`: `TC_THREADS` if set,
//! otherwise `available_parallelism`); outputs do not depend on it, wall
//! clock does.
//!
//! Peak RSS is read from `/proc/self/status` (`VmHWM`), a high-water
//! mark that would otherwise last the whole process. The harness resets
//! it to the current resident set (writing `5` to `/proc/self/clear_refs`)
//! before each size and again before the distributed construction, so
//! each size reports its own peaks: the sequential `peak_rss_kb` (read
//! after verification) covers that size's generation, UBG build, spanner
//! construction and verification, and the distributed one covers the
//! distributed construction alone, on top of what is resident when it
//! starts (the UBG and the sequential spanner). Both still depend on the
//! heap the earlier sizes left behind (pages the allocator kept, and how
//! it then places large blocks): at 10^6 on one worker the sequential
//! figure reads ~600 MB after the 100k and 500k sizes but 620–690 MB
//! when 10^6 runs alone, depending even on the binary's own layout. Off
//! Linux the reset does nothing and both figures are `null`. Edge hashes
//! are stable FNV-1a fingerprints of the sorted `(u, v, weight-bits)`
//! stream, comparable across runs and machines.
//!
//! Usage: `scale [n ...]` (defaults to 100000 500000 1000000). Each `n`
//! is a positive decimal integer and may contain `_` (`200_000`); any
//! other argument prints the usage line and exits with status 2 before
//! anything runs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::time::Instant;
use tc_graph::{par, WeightedGraph};
use tc_spanner::relaxed::PhaseTiming;
use tc_spanner::verify::verify_spanner;
use tc_spanner::{DistributedRelaxedGreedy, RelaxedGreedy, SpannerParams};
use tc_ubg::{generators, UbgBuilder};

const SEED: u64 = 2006;
const TARGET_DEGREE: f64 = 8.0;
const DIM: usize = 2;
const EPSILON: f64 = 1.0;

/// Per-phase timings as parallel arrays (entry `k` of every array belongs
/// to the same phase).
#[derive(Serialize)]
struct PhaseBreakdown {
    bin: Vec<usize>,
    seconds: Vec<f64>,
    cover_seconds: Vec<f64>,
    selection_seconds: Vec<f64>,
    h_build_seconds: Vec<f64>,
    query_seconds: Vec<f64>,
    redundant_seconds: Vec<f64>,
}

impl PhaseBreakdown {
    fn from_timings(timings: &[PhaseTiming]) -> Self {
        Self {
            bin: timings.iter().map(|p| p.bin).collect(),
            seconds: timings.iter().map(|p| p.seconds).collect(),
            cover_seconds: timings.iter().map(|p| p.cover_seconds).collect(),
            selection_seconds: timings.iter().map(|p| p.selection_seconds).collect(),
            h_build_seconds: timings.iter().map(|p| p.h_build_seconds).collect(),
            query_seconds: timings.iter().map(|p| p.query_seconds).collect(),
            redundant_seconds: timings.iter().map(|p| p.redundant_seconds).collect(),
        }
    }
}

/// The distributed construction (Section 3) on the same UBG.
#[derive(Serialize)]
struct DistributedRun {
    seconds: f64,
    rounds: usize,
    /// `rounds / (log n · log* n)`, the ratio the paper bounds.
    normalized_rounds: f64,
    /// Messages of the MIS protocols (cover and conflict MIS).
    mis_messages: usize,
    spanner_edges: usize,
    max_degree: usize,
    degree_histogram: Vec<usize>,
    spanner_edge_hash: String,
    peak_rss_kb: Option<u64>,
}

#[derive(Serialize)]
struct ScaleRun {
    n: usize,
    dim: usize,
    side: f64,
    threads: usize,
    available_parallelism: usize,
    ubg_edges: usize,
    spanner_edges: usize,
    max_degree: usize,
    degree_histogram: Vec<usize>,
    gen_seconds: f64,
    ubg_seconds: f64,
    spanner_seconds: f64,
    stretch_target: f64,
    max_stretch: f64,
    disconnected_pairs: usize,
    weight_ratio: f64,
    verify_seconds: f64,
    phases: PhaseBreakdown,
    peak_rss_kb: Option<u64>,
    ubg_edge_hash: String,
    spanner_edge_hash: String,
    distributed: DistributedRun,
}

#[derive(Serialize)]
struct ScaleReport {
    schema: &'static str,
    seed: u64,
    target_degree: f64,
    epsilon: f64,
    runs: Vec<ScaleRun>,
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_kb`] covers only what runs in between. Errors (off Linux)
/// are ignored.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`; `None` where
/// procfs is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Entry `d` is the number of nodes of degree `d`, for `d` in
/// `0..=max_degree` (Thm 11 bounds the top entry's index).
fn degree_histogram(graph: &WeightedGraph) -> Vec<usize> {
    let mut histogram = vec![0; graph.max_degree() + 1];
    for u in 0..graph.node_count() {
        histogram[graph.degree(u)] += 1;
    }
    histogram
}

/// Stable FNV-1a fingerprint of the sorted edge stream.
fn edge_hash(graph: &WeightedGraph) -> String {
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

const USAGE: &str = "usage: scale [n ...]  (node counts in decimal digits, `_` allowed; \
                     defaults to 100000 500000 1000000)";

/// Parses the arguments after the program name into node counts. A size
/// that is not a positive decimal integer is an error, so a typo such as
/// `200k` cannot silently start the default ~1 min, ~0.85 GB run.
fn parse_sizes(args: &[String]) -> Result<Vec<usize>, String> {
    if args.is_empty() {
        return Ok(vec![100_000, 500_000, 1_000_000]);
    }
    args.iter()
        .map(|arg| match arg.replace('_', "").parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("`{arg}` is not a node count")),
        })
        .collect()
}

fn run_one(n: usize) -> ScaleRun {
    reset_peak_rss();
    let side = generators::side_for_target_degree(n, DIM, TARGET_DEGREE);
    eprintln!("[scale] n={n} side={side:.1} generating points...");
    let t0 = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let points = generators::uniform_points(&mut rng, n, DIM, side);
    let gen_seconds = t0.elapsed().as_secs_f64();

    eprintln!("[scale] n={n} building UBG...");
    let t1 = Instant::now();
    let ubg = UbgBuilder::unit_disk()
        .build(points)
        .expect("generator points share a dimension");
    let ubg_seconds = t1.elapsed().as_secs_f64();
    eprintln!(
        "[scale] n={n} UBG: {} edges in {ubg_seconds:.2}s",
        ubg.graph().edge_count()
    );

    let params = SpannerParams::for_epsilon(EPSILON, 1.0).expect("valid parameters");
    let construction = RelaxedGreedy::new(params);
    // spanner_seconds covers deriving the weighted graph and freeing it,
    // as it always has.
    let t2 = Instant::now();
    let (result, timings) = {
        let graph = construction.weighting().weighted_graph(&ubg);
        construction
            .run_on_timed(ubg.points(), &graph)
            .expect("the UBG's own points match its graph")
    };
    let spanner_seconds = t2.elapsed().as_secs_f64();
    eprintln!(
        "[scale] n={n} spanner: {} edges, max degree {}, {spanner_seconds:.2}s",
        result.spanner.edge_count(),
        result.spanner.max_degree()
    );

    let t3 = Instant::now();
    let report = verify_spanner(ubg.graph(), &result.spanner, params.t);
    let verify_seconds = t3.elapsed().as_secs_f64();
    eprintln!(
        "[scale] n={n} verified {} base edges: stretch {:.4} (target {:.4}), {} disconnected, weight ratio {:.3}, {verify_seconds:.2}s",
        report.base_edges, report.stretch, report.t, report.disconnected_pairs, report.weight_ratio
    );
    let sequential_peak_rss_kb = peak_rss_kb();

    reset_peak_rss();
    let t4 = Instant::now();
    let dist = DistributedRelaxedGreedy::new(params).run(&ubg);
    let dist_seconds = t4.elapsed().as_secs_f64();
    eprintln!(
        "[scale] n={n} distributed: {} edges, max degree {}, {} rounds ({:.1} log n log* n), {dist_seconds:.2}s",
        dist.result.spanner.edge_count(),
        dist.result.spanner.max_degree(),
        dist.rounds,
        dist.normalized_rounds()
    );
    let distributed = DistributedRun {
        seconds: dist_seconds,
        rounds: dist.rounds,
        normalized_rounds: dist.normalized_rounds(),
        mis_messages: dist.messages,
        spanner_edges: dist.result.spanner.edge_count(),
        max_degree: dist.result.spanner.max_degree(),
        degree_histogram: degree_histogram(&dist.result.spanner),
        spanner_edge_hash: edge_hash(&dist.result.spanner),
        peak_rss_kb: peak_rss_kb(),
    };

    ScaleRun {
        n,
        dim: DIM,
        side,
        threads: par::thread_count(0),
        available_parallelism: std::thread::available_parallelism().map_or(0, usize::from),
        ubg_edges: ubg.graph().edge_count(),
        spanner_edges: result.spanner.edge_count(),
        max_degree: report.max_degree,
        degree_histogram: degree_histogram(&result.spanner),
        gen_seconds,
        ubg_seconds,
        spanner_seconds,
        stretch_target: report.t,
        max_stretch: report.stretch,
        disconnected_pairs: report.disconnected_pairs,
        weight_ratio: report.weight_ratio,
        verify_seconds,
        phases: PhaseBreakdown::from_timings(&timings),
        peak_rss_kb: sequential_peak_rss_kb,
        ubg_edge_hash: edge_hash(ubg.graph()),
        spanner_edge_hash: edge_hash(&result.spanner),
        distributed,
    }
}

/// Writes a scalar leaf with the same conventions as the `serde_json`
/// writer: shortest-roundtrip floats, `null` for non-finite values.
fn write_scalar(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_json_string(s, out),
        Value::Array(_) | Value::Object(_) => unreachable!("composite passed to write_scalar"),
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Pretty-prints with objects one-key-per-line but *scalar arrays on a
/// single line* — the phase breakdown's parallel arrays stay readable
/// instead of exploding into one element per line. Keys keep struct
/// declaration order, which keeps the file deterministic.
fn write_compact(value: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    let is_scalar = |v: &Value| !matches!(v, Value::Array(_) | Value::Object(_));
    match value {
        Value::Array(items) if items.iter().all(is_scalar) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_scalar(item, out);
            }
            out.push(']');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                write_compact(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                write_json_string(key, out);
                out.push_str(": ");
                write_compact(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        scalar => write_scalar(scalar, out),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes = match parse_sizes(&args) {
        Ok(sizes) => sizes,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Ascending order, as the committed records were taken: a size's
    // peak depends on the heap the sizes before it left (module docs).
    sizes.sort_unstable();
    let report = ScaleReport {
        schema: "tc-scale/6",
        seed: SEED,
        target_degree: TARGET_DEGREE,
        epsilon: EPSILON,
        runs: sizes.into_iter().map(run_one).collect(),
    };
    let value = report.to_value();
    let mut json = String::new();
    write_compact(&value, 0, &mut json);
    json.push('\n');
    std::fs::write("BENCH_scale.json", &json).expect("BENCH_scale.json is writable");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<usize>, String> {
        parse_sizes(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn decimal_sizes_parse_and_none_gives_the_defaults() {
        assert_eq!(parse(&["200_000"]), Ok(vec![200_000]));
        assert_eq!(parse(&["1000", "20000"]), Ok(vec![1_000, 20_000]));
        assert_eq!(parse(&[]), Ok(vec![100_000, 500_000, 1_000_000]));
    }

    #[test]
    fn anything_but_a_positive_decimal_size_is_rejected() {
        for bad in ["200k", "1e6", "-5", "0", "--help", ""] {
            let err = parse(&["1000", bad]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
    }
}
