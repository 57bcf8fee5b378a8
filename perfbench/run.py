#!/usr/bin/env python3
"""Build and run the topology-control benchmark, compare result sets, or
self-test the benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py compare A.jsonl B.jsonl
    python3 perfbench/run.py selftest

Run from the root of the repository. The first form builds the Rust
benchmark in this directory (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload and prints the binary's context line
and, last, its result line (build output goes to standard error).
`compare` diffs two files of such output against the bounds in
BENCHMARK.json.
`selftest` runs every workload at a tiny size and checks the output
format, the checks and the failure paths. See perfbench/README.md.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELFTEST_NODES = "1500"


def build():
    """Builds the benchmark binary; exits with cargo's status on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if status != 0:
        print(f"perfbench: build failed (cargo exit {status})", file=sys.stderr)
        sys.exit(1)
    return target / "release" / "tc-perfbench"


def run_binary(binary, args):
    """Runs the binary; returns (exit code, stdout lines with nproc added
    to the context line)."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith('{"context"'):
            record = json.loads(line)
            record["context"]["nproc"] = len(os.sched_getaffinity(0))
            lines[i] = json.dumps(record)
    return proc.returncode, lines


def main_run(argv):
    parser = argparse.ArgumentParser(prog="run.py", description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=load_bench()["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)
    binary = build()
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ])
    for line in lines:
        print(line)
    return code


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def read_records(path):
    """(context, result) pairs of a file of run output lines."""
    records, context = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "context" in obj:
            context = obj["context"]
        elif "metrics" in obj and context is not None:
            records.append((context, obj))
            context = None
    return records


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


# Context fields of the host probes: fixed work no code change can touch.
PROBES = ("cpu_probe_s", "mem_probe_s")
# Deterministic per-seed counts, judged seed by seed with no tolerance
# wherever both sets ran the same seed: one more unit on any seed (5 -> 6
# on max_degree, Thm 11) is a regression even though it is inside the bound.
PER_SEED = {"max_degree"}


def verdict(a, b, better, bound, drift=0.0):
    """Judges run values `b` against `a` for one metric; `drift` is how far
    the host itself moved between the sets (0 for metrics it cannot move)."""
    med_a, q1a, q3a = summary(a)
    med_b, q1b, q3b = summary(b)
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = change if better == "lower" else -change
    # Every B run beyond every A run (either way) resolves a wide spread.
    separated = min(b) > max(a) or max(b) < min(a)
    if drift > bound / 2 or (spread > bound and not separated):
        return change, spread, "unresolved"
    if worse_by > bound:
        return change, spread, "worse"
    if -worse_by > spread + drift:
        return change, spread, "better"
    return change, spread, "unchanged"


def per_seed_verdict(a, b, better):
    """Judges {seed: value} maps on their common seeds, exactly; None when
    they share no seed. The change is that of the largest common value."""
    seeds = a.keys() & b.keys()
    if not seeds:
        return None
    diffs = [b[s] - a[s] for s in seeds]
    top_a = max(a[s] for s in seeds)
    change = (max(b[s] for s in seeds) - top_a) / abs(top_a) if top_a else 0.0
    sign = 1 if better == "lower" else -1
    if any(sign * d > 0 for d in diffs):
        return change, "worse"
    if any(d != 0 for d in diffs):
        return change, "better"
    return change, "unchanged"


def host_drift(ra, rb):
    """Largest relative change between the two sets' probe medians."""
    drift = 0.0
    for probe in PROBES:
        a = statistics.median(c[probe] for c, _ in ra)
        b = statistics.median(c[probe] for c, _ in rb)
        drift = max(drift, abs(b - a) / a)
    return drift


def compare(path_a, path_b, out=sys.stdout):
    """Prints one row per workload and end-to-end metric; returns the
    number of `worse` verdicts.

    Times (unit `s`) also depend on the host's speed, which the probes in
    the context lines measure: if either probe median moved by more than
    half a time metric's bound, its verdict is `unresolved`, and a time
    reads `better` only if it moved by more than its spread plus the
    probes' move."""
    metrics = load_bench()["end_to_end"]

    def by_workload(path):
        grouped = {}
        for context, result in read_records(path):
            if context.get("trace") == 0:
                grouped.setdefault(context["workload"], []).append((context, result))
        return grouped

    runs_a, runs_b = by_workload(path_a), by_workload(path_b)
    worse = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[workload], runs_b[workload]
        host = host_drift(ra, rb)
        print(f"\n{workload}  (A: {len(ra)} runs, B: {len(rb)} runs; "
              f"host probes moved {host:.2%})", file=out)
        print(f"  {'metric':15s} {'unit':10s} {'A median [q1, q3]':34s} "
              f"{'B median [q1, q3]':34s} {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict",
              file=out)
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for _, r in ra if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for _, r in rb if name in r["metrics"]]
            if not a or not b:
                continue
            drift = host if m["unit"] == "s" else 0.0
            change, spread, word = verdict(a, b, m["better"], m["bound"], drift)
            if name in PER_SEED:
                seeds_a = {c["seed"]: r["metrics"][name]["value"] for c, r in ra}
                seeds_b = {c["seed"]: r["metrics"][name]["value"] for c, r in rb}
                change, word = per_seed_verdict(seeds_a, seeds_b, m["better"]) or (change, word)
            worse += word == "worse"
            fa = "{:.5g} [{:.5g}, {:.5g}]".format(*summary(a))
            fb = "{:.5g} [{:.5g}, {:.5g}]".format(*summary(b))
            print(f"  {name:15s} {m['unit']:10s} {fa:34s} {fb:34s} "
                  f"{change:+8.2%} {spread:7.2%} {m['bound']:6.0%}  {word}", file=out)
        failed = sum(r["failed"] for _, r in ra), sum(r["failed"] for _, r in rb)
        print(f"  failed reps: A {failed[0]}, B {failed[1]}", file=out)
    return worse


def main_compare(argv):
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description="Diff two result sets against BENCHMARK.json's bounds.")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return 1 if compare(args.a, args.b) else 0


def main_selftest(argv):
    argparse.ArgumentParser(prog="run.py selftest",
                            description="Run every workload at a tiny size and check the benchmark.").parse_args(argv)
    bench = load_bench()
    binary = build()
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    records = binary.parent / "selftest-records.jsonl"
    records.write_text("")
    for workload in (w["name"] for w in bench["workloads"]):
        contexts = {}
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, lines = run_binary(binary, ["--workload", workload, "--nodes", SELFTEST_NODES,
                                              "--seconds", "0", "--trace", trace])
            result = json.loads(lines[-1])
            contexts[trace] = json.loads(lines[-2])["context"]
            if trace == "0":
                with records.open("a") as f:
                    f.write(lines[-2] + "\n" + lines[-1] + "\n")
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: checks pass")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result line has exactly the four keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted},
                   f"{tag}: every metric printed once, with its unit")
        expect(all(contexts["0"][k] == contexts["1"][k]
                   for k in ("ubg_edge_hash", "spanner_edge_hash")),
               f"{workload}: traced and untraced edge hashes agree")

    def verdicts(path_b):
        table = io.StringIO()
        worse = compare(records, path_b, out=table)
        rows = [line.split() for line in table.getvalue().splitlines() if line.startswith("  ")]
        names = {m["name"] for m in bench["end_to_end"]}
        return worse, [(row[0], row[-1]) for row in rows if row[0] in names]

    worse, rows = verdicts(records)
    expect(worse == 0 and len(rows) == len(bench["end_to_end"]) * len(bench["workloads"])
           and all(word == "unchanged" for _, word in rows),
           "compare of a result set with itself: every row unchanged")

    # The same outputs on a host running at half speed, with one more unit
    # of degree somewhere.
    shifted = binary.parent / "selftest-shifted.jsonl"
    with shifted.open("w") as f:
        for context, result in read_records(records):
            for probe in PROBES:
                context[probe] *= 2
            result["metrics"]["max_degree"]["value"] += 1
            f.write(json.dumps({"context": context}) + "\n" + json.dumps(result) + "\n")
    time_names = {m["name"] for m in bench["end_to_end"] if m["unit"] == "s"}
    worse, rows = verdicts(shifted)
    expect(all(word == "unresolved" for name, word in rows if name in time_names),
           "compare across a host speed change: every time row unresolved")
    expect(worse == len(bench["workloads"])
           and all(word == "worse" for name, word in rows if name == "max_degree"),
           "compare: max_degree one higher is worse")

    first = bench["workloads"][0]["name"]
    code, lines = run_binary(binary, ["--workload", first, "--nodes", SELFTEST_NODES,
                                      "--seconds", "0", "--inject-fault"])
    expect(code == 1 and not json.loads(lines[-1])["correct"],
           "a spanner with a disconnected node fails the run")
    for bad in (["--workload", "no-such-workload"], ["--workload", first, "--no-such-flag"]):
        code, _ = run_binary(binary, bad)
        expect(code == 2, f"usage error for {' '.join(bad)}")

    print(f"\nselftest: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    if argv[:1] == ["selftest"]:
        return main_selftest(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
