//! `tc-lint`: workspace-native static analysis for the topology-control repo.
//!
//! Rustc and clippy cannot see this repo's domain invariants; `tc-lint`
//! enforces the ones that have actually bitten us:
//!
//! * **determinism** — hash-container iteration order must never reach
//!   serialized experiment output (same seed ⇒ byte-identical results);
//! * **float-ordering** — edge-weight comparators must use IEEE-754
//!   totalOrder ([`tc_graph::cmp_f64`]-style), never
//!   `partial_cmp(..).unwrap()`;
//! * **csr-boundary** — read-only measurements run on `CsrGraph`, mutation
//!   happens on `WeightedGraph` ("mutate on WeightedGraph, measure on
//!   CsrGraph");
//! * **panic-hygiene** — library code in the `tc-*` crates must not
//!   unwrap/panic;
//! * **parallel-ready** — core graph/geometry types stay `Send + Sync`.
//!
//! On top of the per-file rules, a workspace [`symbols`] table and
//! [`callgraph`] power three cross-file rules:
//!
//! * **locality** — the distributed/relaxed construction phases must reach
//!   the graph only through bounded-radius / target-directed / `GridIndex`
//!   queries, never (transitively) through global sweeps;
//! * **scheduler-discipline** — closures handed to
//!   `run_jobs`/`par_map_with`, to a parallel `region` or to a
//!   `map_claimed` step must not write captured state, take locks, or
//!   (transitively) perform I/O;
//! * **transitive-panic** — panic-hygiene followed through the call graph.
//!
//! The binary walks the workspace, applies inline
//! `// tc-lint: allow(rule)` suppressions and the checked-in
//! `lint-baseline.txt` (kept empty; see docs/LINTS.md), and exits nonzero
//! on new findings.
//!
//! The crate is std-only and parses Rust with its own minimal lexer
//! ([`lexer`]) — enough to be robust against raw strings, nested block
//! comments and the `'a`-vs-`'a'` ambiguity without pulling in syn.
//!
//! [`tc_graph::cmp_f64`]: https://docs.rs/tc-graph

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod walk;

pub use baseline::{Applied, Baseline};
pub use engine::{lint_files, lint_source, lint_source_filtered, Finding, RULE_NAMES};

use std::fs;
use std::io;
use std::path::Path;

/// Lints every first-party source file under the workspace `root` as one
/// unit (the cross-file rules see the whole set), applying inline
/// suppressions (but not the baseline). Findings come back sorted by path,
/// then position.
pub fn lint_workspace(root: &Path, enabled: &[&str]) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for rel in walk::source_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(engine::lint_files(&files, enabled))
}

/// Renders findings as a JSON array (std-only; no serde in this crate).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let call_path = match &f.call_path {
            Some(chain) => json_str(chain),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n  {{\"path\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"snippet\":{},\"call_path\":{}}}",
            json_str(&f.path),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.snippet),
            call_path,
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let f = Finding {
            path: "a\\b.rs".to_string(),
            line: 3,
            col: 7,
            rule: "determinism",
            message: "say \"hi\"\n".to_string(),
            snippet: "\tlet x;".to_string(),
            call_path: None,
        };
        let json = findings_to_json(&[f]);
        assert!(json.contains("\"a\\\\b.rs\""), "{json}");
        assert!(json.contains("say \\\"hi\\\"\\n"), "{json}");
        assert!(json.contains("\\tlet x;"), "{json}");
        assert!(json.contains("\"call_path\":null"), "{json}");
    }

    #[test]
    fn json_includes_call_paths() {
        let f = Finding {
            path: "crates/a/src/lib.rs".to_string(),
            line: 1,
            col: 1,
            rule: "transitive-panic",
            message: "m".to_string(),
            snippet: "s".to_string(),
            call_path: Some("helper -> sink".to_string()),
        };
        let json = findings_to_json(&[f]);
        assert!(json.contains("\"call_path\":\"helper -> sink\""), "{json}");
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        assert_eq!(findings_to_json(&[]), "[]\n");
    }
}
