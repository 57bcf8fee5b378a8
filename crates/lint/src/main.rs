//! The `tc-lint` command-line interface.
//!
//! ```text
//! cargo run -p tc-lint    # exit 0 when clean, 1 on any finding
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::env;
use std::process::ExitCode;

use tc_lint::{lint_workspace, rules, walk, RULE_NAMES};

const USAGE: &str = "\
tc-lint: repo-invariant static analysis (see docs/LINTS.md)

USAGE:
    cargo run -p tc-lint

Lints the repository it was built from, whatever the current directory,
and takes no arguments. Exits 0 when clean, 1 on any finding and 2 on any argument.
Silence a vetted site with `// tc-lint: allow(<rule>)` and a justification.

RULES:";

fn main() -> ExitCode {
    if let Some(arg) = env::args().nth(1) {
        eprintln!("tc-lint: unexpected argument `{arg}`\n\n{USAGE}");
        for rule in RULE_NAMES {
            eprintln!("    {rule}\n        {}", rules::describe(rule));
        }
        return ExitCode::from(2);
    }
    let root = walk::workspace_root();
    let findings = match lint_workspace(&root) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!(
                "tc-lint: failed to read workspace at {}: {err}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        eprintln!("tc-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tc-lint: {} finding(s); fix them, or add `// tc-lint: allow(rule)` \
             with a justification",
            findings.len()
        );
        ExitCode::from(1)
    }
}
