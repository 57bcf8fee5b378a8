//! The experiment tables at `Scale::Smoke`, pinned byte for byte: the JSON
//! that `experiments --smoke --json` writes must equal the checked-in
//! golden file, at the default thread count and at `TC_THREADS=1`. The
//! file holds formatted cells and no timings, so it changes only when a
//! construction or a measurement changes. After an intended change,
//! regenerate it from the repository root and review the diff:
//!
//! ```text
//! cargo run -q --release -p tc-bench --bin experiments -- --smoke --json crates/bench/tests/golden/experiments_smoke.json
//! ```

use std::process::Command;
use tc_bench::experiments::{all_experiments, Scale};

const GOLDEN: &str = include_str!("golden/experiments_smoke.json");

/// Fails with the first line where `actual` leaves the golden file.
fn assert_matches_golden(actual: &str, what: &str) {
    if actual == GOLDEN {
        return;
    }
    let (line, (got, want)) = actual
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(GOLDEN.lines().chain(std::iter::repeat("<end of file>")))
        .enumerate()
        .find(|(_, (got, want))| got != want)
        .expect("outputs that differ differ on some line");
    panic!(
        "{what} differs from the golden file at line {}:\n  got:  {got}\n  want: {want}",
        line + 1
    );
}

#[test]
fn smoke_tables_match_the_golden_file() {
    let tables = all_experiments(Scale::Smoke).expect("smoke parameters are valid");
    let json = serde_json::to_string_pretty(&tables).expect("tables serialize");
    assert_matches_golden(&json, "all_experiments(Scale::Smoke)");
}

#[test]
fn the_binary_writes_the_golden_file_on_one_thread() {
    let path = std::env::temp_dir().join(format!("experiments-golden-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--smoke", "--json"])
        .arg(&path)
        .env(tc_graph::par::THREADS_ENV, "1")
        .output()
        .expect("the experiments binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("the binary wrote its JSON");
    let _ = std::fs::remove_file(&path);
    assert_matches_golden(&json, "experiments --smoke --json at TC_THREADS=1");
}
