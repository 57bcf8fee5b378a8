//! The `tc-lint` binary takes no arguments: any argument is a usage error,
//! and a plain run in the repository root lints the workspace clean.

use std::path::Path;
use std::process::Command;

fn tc_lint() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tc-lint"));
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    cmd
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

#[test]
fn the_repository_lints_clean() {
    let out = tc_lint().output().expect("tc-lint runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
