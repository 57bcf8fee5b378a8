//! End-to-end and per-layer benchmark of the spanner pipeline:
//! seeded points → α-UBG → relaxed greedy (or its distributed version) →
//! verification of the paper's guarantees.
//!
//! ```text
//! tc-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!              [--nodes <n>] [--inject-fault]
//! ```
//!
//! A run generates the workload's deployment, runs one untimed warm-up
//! repetition, then timed repetitions of construction + verification for
//! `--seconds`, timing a few more set-ups after each repetition
//! (`setup_s`), and reports medians. Every repetition's output must pass
//! `verify_spanner` and hash equal to the warm-up's. The run prints a
//! context line and, last, the result line; it exits with 1 if any check
//! failed and with 2 on a usage error. `--trace 1` adds a traced pass over
//! every layer and reports per-layer metrics instead of end-to-end ones.
//! See `perfbench/README.md`.

mod probe;
mod report;
mod trace;
mod workload;

use report::{json_line, median, object, Metrics};
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workload::{run_rep, Rep, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 2006;
/// The `run_seconds` of `BENCHMARK.json`, which the bounds were set with.
const DEFAULT_SECONDS: f64 = 30.0;
/// Timed set-ups before the warm-up and after each timed repetition.
/// Spreading them over the run samples the host's state over its whole
/// length, as the repetitions do, instead of over a few milliseconds.
const SETUPS_PER_REP: usize = 5;
const MIN_REPS: usize = 3;

/// `scale 200000` at seed 2006 prints these hashes; `udg-2d-200k` at its
/// default size and seed must reproduce them.
const SCALE_200K_UBG_HASH: &str = "32ccc61598c81f43";
const SCALE_200K_SPANNER_HASH: &str = "ea5192933fa49d03";

const USAGE: &str = "usage: tc-perfbench --workload <name> [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--nodes <n>] [--inject-fault]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    nodes: usize,
    inject_fault: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut nodes = None;
    let mut inject_fault = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            inject_fault = true;
            continue;
        }
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = take()?;
                workload = Some(workload::find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = parse_num(flag, take()?)?,
            "--seconds" => {
                seconds = parse_num(flag, take()?)?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match take()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--nodes" => {
                let n: usize = parse_num(flag, take()?)?;
                if n < 2 {
                    return Err("--nodes must be at least 2".into());
                }
                nodes = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        nodes: nodes.unwrap_or(workload.nodes),
        inject_fault,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes a number, not {raw:?}"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload and prints its context and result lines; returns
/// whether every check passed.
fn run(args: &Args) -> bool {
    let wl = &args.workload;
    let (seed, n) = (args.seed, args.nodes);
    // Every parallel region of the pipeline reads its worker count from
    // here; set before any of them starts.
    std::env::set_var(tc_graph::par::THREADS_ENV, wl.threads.to_string());

    // One untimed set-up first: the allocator's first requests fault in
    // fresh pages that later set-ups reuse.
    let store = wl.deployment(n, seed);
    let mut setup_times: Vec<f64> = Vec::new();
    let time_setups = |times: &mut Vec<f64>| {
        for _ in 0..SETUPS_PER_REP {
            let start = Instant::now();
            black_box(wl.deployment(n, seed));
            times.push(start.elapsed().as_secs_f64());
        }
    };
    time_setups(&mut setup_times);

    let mut attempted = 0;
    let mut failed = 0;
    let mut check = |rep: &Rep, reference: Option<&Rep>| {
        attempted += 1;
        let ok = rep.passes() && reference.is_none_or(|r| rep.same_output(r));
        if !ok {
            failed += 1;
            eprintln!(
                "[perfbench] {}: check failed: stretch {} (t = {}), {} disconnected pairs, \
                 spanner hash {}",
                wl.name,
                rep.report.stretch,
                rep.report.t,
                rep.report.disconnected_pairs,
                rep.spanner_hash
            );
        }
    };

    let warm = run_rep(wl, &store, seed, args.inject_fault);
    check(&warm, None);
    // The peak of one full pass; read now, it does not depend on how many
    // repetitions fit into the run (nor include the host probes' buffer).
    let peak_rss_mb = probe::peak_rss_mb();
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let mut last_rep_s = 0.0;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() + last_rep_s <= args.seconds {
        let rep_start = Instant::now();
        let rep = run_rep(wl, &store, seed, args.inject_fault);
        last_rep_s = rep_start.elapsed().as_secs_f64();
        check(&rep, Some(&warm));
        time_setups(&mut setup_times);
        eprintln!(
            "[perfbench] {} rep {}: build {:.4} s, verify {:.4} s (median of {}), set-ups {:.5?} s",
            wl.name,
            reps.len() + 1,
            rep.build_s,
            median(&rep.verify_s),
            rep.verify_s.len(),
            &setup_times[setup_times.len() - SETUPS_PER_REP..]
        );
        reps.push(rep);
    }
    let build_s = median(&reps.iter().map(|r| r.build_s).collect::<Vec<_>>());
    let verify_s = median(
        &reps
            .iter()
            .flat_map(|r| r.verify_s.clone())
            .collect::<Vec<_>>(),
    );

    let scale_check = if wl.name == "udg-2d-200k" && seed == DEFAULT_SEED && n == wl.nodes {
        let matches =
            warm.ubg_hash == SCALE_200K_UBG_HASH && warm.spanner_hash == SCALE_200K_SPANNER_HASH;
        if !matches {
            failed += 1;
            eprintln!(
                "[perfbench] {}: edge hashes differ from `scale 200000`",
                wl.name
            );
        }
        if matches {
            "match"
        } else {
            "mismatch"
        }
    } else {
        "n/a"
    };

    let cpu_probe_s = probe::cpu_probe_s();
    let mem_probe_s = probe::mem_probe_s();

    let mut metrics = Metrics::default();
    let mut traced_hashes_match = true;
    if args.trace {
        metrics.add("host.cpu_probe_s", cpu_probe_s, "s");
        metrics.add("host.mem_probe_s", mem_probe_s, "s");
        let traced = trace::traced_run(wl, seed, &store, build_s, &mut metrics);
        metrics.add("bench.cold_build_s", warm.build_s, "s");
        traced_hashes_match =
            traced.ubg_hash == warm.ubg_hash && traced.spanner_hash == warm.spanner_hash;
        if !traced_hashes_match {
            eprintln!(
                "[perfbench] {}: traced output differs from untraced",
                wl.name
            );
        }
    } else {
        let report = &warm.report;
        metrics.add("setup_s", median(&setup_times), "s");
        metrics.add("build_s", build_s, "s");
        metrics.add("verify_s", verify_s, "s");
        metrics.add("peak_rss_mb", peak_rss_mb, "MB");
        metrics.add("max_stretch", report.stretch, "ratio");
        metrics.add("max_degree", report.max_degree as f64, "count");
        metrics.add("weight_ratio", report.weight_ratio, "ratio");
        metrics.add(
            "edges_per_node",
            report.spanner_edges as f64 / n as f64,
            "edges/node",
        );
        metrics.add("rounds", warm.rounds as f64, "count");
    }

    let correct = failed == 0 && traced_hashes_match;
    let available = std::thread::available_parallelism().map_or(0, usize::from);
    let context = object(vec![
        ("workload", wl.name.to_value()),
        ("seed", seed.to_value()),
        ("trace", usize::from(args.trace).to_value()),
        ("n", n.to_value()),
        ("d", wl.dim.to_value()),
        ("alpha", wl.alpha.to_value()),
        ("grey_zone_p", wl.grey_p.unwrap_or(0.0).to_value()),
        ("target_degree", wl.target_degree.to_value()),
        ("epsilon", wl.epsilon.to_value()),
        ("threads", tc_graph::par::thread_count(0).to_value()),
        ("available_parallelism", available.to_value()),
        ("setup_reps", setup_times.len().to_value()),
        ("reps", reps.len().to_value()),
        ("dist_nodes", trace::dist_nodes(wl, n).to_value()),
        ("ubg_edge_hash", warm.ubg_hash.as_str().to_value()),
        ("spanner_edge_hash", warm.spanner_hash.as_str().to_value()),
        ("scale_cross_check", scale_check.to_value()),
        ("cpu_probe_s", cpu_probe_s.to_value()),
        ("mem_probe_s", mem_probe_s.to_value()),
        ("attempted", attempted.to_value()),
        ("failed", failed.to_value()),
    ]);
    eprintln!(
        "[perfbench] {}: {attempted} reps attempted, {failed} failed; build_s median {build_s:.4} \
         over {} reps",
        wl.name,
        reps.len()
    );
    println!("{}", json_line(object(vec![("context", context)])));
    println!("{}", metrics.result_line(correct, attempted, failed));
    correct
}
