//! Dogfooding: the linter lints itself and the whole workspace.

use std::fs;
use std::path::Path;

/// tc-lint's own source must be finding-free without any suppressions —
/// the linter leads by example (no unwrap in library paths).
#[test]
fn linter_own_source_is_clean() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    let mut entries: Vec<_> = fs::read_dir(&src_dir)
        .expect("read crates/lint/src")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let rel = format!("crates/lint/src/{name}");
            let source = fs::read_to_string(&path).expect("readable source");
            let findings = tc_lint::lint_source(&rel, &source);
            assert!(
                findings.is_empty(),
                "tc-lint must lint itself clean, but {rel} has findings:\n{findings:#?}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 6,
        "expected to lint all linter sources, saw {checked}"
    );
}

/// The workspace must have zero findings. This is the same invariant CI
/// enforces via `cargo run -p tc-lint`, kept here so plain `cargo test`
/// catches regressions too.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let findings = tc_lint::lint_workspace(&root).expect("workspace is readable");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "lint findings (fix, or suppress with a justification):\n{}",
        rendered.join("\n")
    );
}
