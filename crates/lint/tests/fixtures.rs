//! Golden-file fixture tests: each `tests/fixtures/<name>.rs` file seeds
//! known violations (or known-good code) and `<name>.expected` lists the
//! exact findings (`line rule`, in output order) the linter must produce.
//!
//! The fixture's first line, `//@path: <rel-path>`, sets the synthetic
//! workspace-relative path, which is what the rules use for scoping. The
//! workspace walker skips `fixtures` directories, so the seeded violations
//! never leak into a real lint run.

use std::fs;
use std::path::Path;

fn run_fixture(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let source = fs::read_to_string(dir.join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("fixture {name}.rs: {e}"));
    let expected_raw = fs::read_to_string(dir.join(format!("{name}.expected")))
        .unwrap_or_else(|e| panic!("fixture {name}.expected: {e}"));

    let rel_path = source
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@path:"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("fixture {name}.rs must start with `//@path: <rel-path>`"));

    let findings = tc_lint::lint_source(rel_path, &source);
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{} {}", f.line, f.rule))
        .collect();
    let expected: Vec<String> = expected_raw
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        got, expected,
        "fixture `{name}` findings diverged; full findings:\n{findings:#?}"
    );
}

/// Multi-file fixtures: `tests/fixtures/<name>/` holds several `.rs`
/// files (each with its own `//@path:` header) linted as one workspace,
/// and an `expected` file listing `path line rule` triples in output
/// order — this is what exercises the cross-file rules across real file
/// boundaries.
fn run_ws_fixture(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let mut sources: Vec<std::path::PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("ws fixture {name}: {e}"))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    sources.sort();
    let mut files = Vec::new();
    for path in sources {
        let source =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rel = source
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@path:"))
            .map(str::trim)
            .unwrap_or_else(|| panic!("{} must start with `//@path: <rel-path>`", path.display()))
            .to_string();
        files.push((rel, source));
    }
    let expected_raw = fs::read_to_string(dir.join("expected"))
        .unwrap_or_else(|e| panic!("ws fixture {name}/expected: {e}"));

    let findings = tc_lint::lint_files(&files);
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{} {} {}", f.path, f.line, f.rule))
        .collect();
    let expected: Vec<String> = expected_raw
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        got, expected,
        "ws fixture `{name}` findings diverged; full findings:\n{findings:#?}"
    );
}

#[test]
fn bad_csr() {
    run_fixture("bad_csr");
}

#[test]
fn bad_panic() {
    run_fixture("bad_panic");
}

#[test]
fn good_clean() {
    run_fixture("good_clean");
}

#[test]
fn bad_locality() {
    run_fixture("bad_locality");
}

#[test]
fn good_locality() {
    run_fixture("good_locality");
}

#[test]
fn bad_scheduler() {
    run_fixture("bad_scheduler");
}

#[test]
fn good_scheduler() {
    run_fixture("good_scheduler");
}

#[test]
fn bad_region() {
    run_fixture("bad_region");
}

#[test]
fn good_region() {
    run_fixture("good_region");
}

#[test]
fn bad_transitive() {
    run_fixture("bad_transitive");
}

#[test]
fn ws_locality() {
    run_ws_fixture("ws_locality");
}

#[test]
fn ws_panic() {
    run_ws_fixture("ws_panic");
}
