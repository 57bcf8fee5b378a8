//! The `tc-lint` binary takes no arguments: any argument is a usage error,
//! and a plain run lints the repository clean from whatever directory it
//! starts in.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn tc_lint_in(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tc-lint"));
    cmd.current_dir(dir);
    cmd
}

fn tc_lint() -> Command {
    tc_lint_in(&repo_root())
}

fn assert_clean(out: &Output, from: &str) {
    assert_eq!(
        out.status.code(),
        Some(0),
        "from {from}\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn any_argument_is_a_usage_error() {
    for arg in ["--check", "--json", "--help", "extra"] {
        let out = tc_lint().arg(arg).output().expect("tc-lint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{arg}: {stderr}");
        assert!(stderr.contains(&format!("`{arg}`")), "{arg}: {stderr}");
        for rule in tc_lint::RULE_NAMES {
            assert!(stderr.contains(rule), "{arg}: usage lists {rule}");
        }
        assert!(out.stdout.is_empty(), "{arg}: nothing is linted");
    }
}

/// A plain run from the root lints clean. `perfbench/` and the clippy
/// probe crate are Cargo workspaces of their own, and the probe seeds
/// panics on purpose; started in either, tc-lint still lints the
/// repository, with the same output.
#[test]
fn the_repository_lints_clean() {
    let root = tc_lint().output().expect("tc-lint runs");
    assert_clean(&root, "the repository root");
    for nested in ["perfbench", "crates/lint/tests/fixtures/clippy"] {
        let out = tc_lint_in(&repo_root().join(nested))
            .output()
            .expect("tc-lint runs");
        assert_clean(&out, nested);
        assert_eq!(out.stdout, root.stdout, "stdout from {nested}");
        assert_eq!(out.stderr, root.stderr, "stderr from {nested}");
    }
}
