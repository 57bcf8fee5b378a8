//! `tc-lint`: workspace-native static analysis for the topology-control repo.
//!
//! Rustc and clippy cannot see the invariants that live in call chains;
//! `tc-lint` enforces the ones that have actually bitten us, over a
//! workspace [`symbols`] table and [`callgraph`]:
//!
//! * **csr-boundary** — read-only measurements run on `CsrGraph`, mutation
//!   happens on `WeightedGraph` ("mutate on WeightedGraph, measure on
//!   CsrGraph");
//! * **locality** — the distributed/relaxed construction phases must reach
//!   the graph only through bounded-radius / target-directed / `GridIndex`
//!   queries, never (transitively) through global sweeps;
//! * **scheduler-discipline** — closures handed to `par_map_with`, to a
//!   parallel `region`, to a `map_claimed` step or to the experiment
//!   harness's `push_rows` must not write captured state, take locks, or
//!   (transitively) perform I/O;
//! * **panic-hygiene** — library code in the `tc-*` crates must not
//!   unwrap/panic, directly or through a call whose every resolution does.
//!
//! Hash-order iteration, NaN-unsafe comparators and thread-unsafe shared
//! state are clippy checks instead (`clippy.toml`; see docs/LINTS.md).
//!
//! The binary walks the workspace, applies inline
//! `// tc-lint: allow(rule)` suppressions, and exits nonzero on any
//! finding.
//!
//! The crate is std-only and parses Rust with its own minimal lexer
//! ([`lexer`]) — enough to be robust against raw strings, nested block
//! comments and the `'a`-vs-`'a'` ambiguity without pulling in syn.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod walk;

pub use engine::{lint_files, lint_source, Finding, RULE_NAMES};

use std::fs;
use std::io;
use std::path::Path;

/// Lints every first-party source file under the workspace `root` as one
/// unit, applying inline suppressions. Findings come back sorted by path,
/// then position.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for rel in walk::source_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(engine::lint_files(&files))
}
