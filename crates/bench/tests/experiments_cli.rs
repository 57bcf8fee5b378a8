//! Command-line boundary of the `experiments` binary: usage errors exit
//! with status 2 and a usage line before any experiment runs.

use std::process::Command;

#[test]
fn usage_errors_exit_2_before_running_anything() {
    for args in [
        &["--bogus"][..],
        &["--smoke", "--json"][..],
        &["out.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: experiments"),
            "args {args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("running experiment suite"),
            "args {args:?} started the suite"
        );
        assert!(out.stdout.is_empty(), "args {args:?} printed tables");
    }
}
