//! The workspace call graph: call sites, conservative name-based
//! resolution, and cycle-tolerant reachability propagation.
//!
//! Resolution is purely syntactic (see docs/LINTS.md, "known imprecision"):
//! a call site carries its bare callee name and call style, and resolves to
//! every plausible definition in the [`SymbolTable`]. Rules then choose the
//! propagation semantics that keeps them conservative in the right
//! direction:
//!
//! * [`CallGraph::reach_any`] — "could this call reach X?" Any matching
//!   candidate suffices, so ambiguity produces *more* findings (used by
//!   `locality` and the I/O half of `scheduler-discipline`, where missing a
//!   global sweep is worse than a spurious flag behind an `allow`).
//! * [`CallGraph::panic_closure`] — "must this call panic-risk?" Every
//!   matching candidate has to panic before the call is flagged, so
//!   ambiguity produces *fewer* findings (used by `panic-hygiene`, which
//!   would otherwise drown real sites in name-collision noise).
//!
//! Both propagations are monotone worklist/fixpoint computations, so
//! recursion cycles terminate without special-casing.

use crate::engine::FileData;
use crate::symbols::{crate_of, SymbolTable};
use std::collections::BTreeSet;

/// How a call site spells its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallStyle {
    /// `name(..)` — resolves to free functions.
    Bare,
    /// `recv.name(..)` — resolves to `self`-taking methods.
    Method,
    /// `Seg::name(..)` — resolves to methods/associated fns of `Seg` when
    /// `Seg` names a known `impl` target, otherwise to any definition.
    Qualified(String),
}

/// One syntactic call site: an identifier directly followed by `(`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the containing file in the input slice.
    pub file: usize,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// The bare callee name.
    pub callee: String,
    /// Call style, for resolution.
    pub style: CallStyle,
    /// The innermost enclosing fn definition, when the site is inside one.
    pub caller: Option<usize>,
    /// Whether the site sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// The crate the site's file belongs to, for same-crate narrowing.
    pub krate: String,
}

/// Keywords and primitives that look like `ident (` but are never calls.
const NON_CALLEES: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "as", "let", "else", "move",
    "ref", "mut", "pub", "use", "where", "impl", "dyn", "Some", "None", "Ok", "Err", "Box", "Vec",
    "String",
];

/// All call sites in the workspace.
#[derive(Debug, Default)]
pub struct CallGraph {
    sites: Vec<CallSite>,
}

impl CallGraph {
    /// Extracts every call site from `files`, attributing each to its
    /// innermost enclosing fn in `table`.
    pub fn build(files: &[FileData], table: &SymbolTable) -> CallGraph {
        let mut graph = CallGraph::default();
        for (file_idx, file) in files.iter().enumerate() {
            extract_sites(file_idx, file, table, &mut graph.sites);
        }
        graph
    }

    /// All call sites, indexable by the ids used in [`Reach`] witnesses.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Resolves a call site to candidate definition ids.
    ///
    /// Only definitions in library source (`src/` outside `bin/`, not in a
    /// `#[cfg(test)]` module) ever resolve: code elsewhere cannot be called
    /// *from* the places the cross-file rules scope to, and name collisions
    /// with test/bench helpers would otherwise poison propagation.
    ///
    /// Two further precision refinements (see docs/LINTS.md):
    ///
    /// * a bare call whose name matches a *parameter* of the enclosing fn
    ///   is a callback invocation (`for_each_edge`'s `visit(..)`), not a
    ///   call to some same-named workspace definition — it resolves to
    ///   nothing;
    /// * when candidates exist in the call site's own crate, the foreign
    ///   ones are dropped (`bucket.rs`'s private `fn run` must not alias
    ///   the spanner drivers' `run` two crates away).
    pub fn resolve(&self, table: &SymbolTable, site: &CallSite) -> Vec<usize> {
        if site.style == CallStyle::Bare {
            if let Some(caller) = site.caller {
                if table.fns()[caller].params.iter().any(|p| p == &site.callee) {
                    return Vec::new();
                }
            }
        }
        let candidates = table.ids_named(&site.callee);
        let visible = |id: &&usize| {
            let def = &table.fns()[**id];
            !def.in_test && crate::rules::is_library_src(&def.path)
        };
        let matched: Vec<usize> = match &site.style {
            CallStyle::Bare => candidates
                .iter()
                .filter(visible)
                .filter(|&&id| table.fns()[id].self_type.is_none())
                .copied()
                .collect(),
            CallStyle::Method => candidates
                .iter()
                .filter(visible)
                .filter(|&&id| table.fns()[id].takes_self)
                .copied()
                .collect(),
            CallStyle::Qualified(seg) => {
                let narrowed: Vec<usize> = candidates
                    .iter()
                    .filter(visible)
                    .filter(|&&id| table.fns()[id].self_type.as_deref() == Some(seg.as_str()))
                    .copied()
                    .collect();
                if narrowed.is_empty() {
                    candidates.iter().filter(visible).copied().collect()
                } else {
                    narrowed
                }
            }
        };
        let local: Vec<usize> = matched
            .iter()
            .filter(|&&id| crate_of(&table.fns()[id].path) == site.krate)
            .copied()
            .collect();
        if local.is_empty() {
            matched
        } else {
            local
        }
    }

    /// Propagates "can reach a seed" backwards over the call graph:
    /// `seeds[f]` marks definitions that hit the property directly, with an
    /// optional witness site (the token that makes them a seed). A caller
    /// is reached when *any* candidate of any of its sites is reached.
    /// Sites in `blocked` contribute no edges — rules pass the call sites
    /// an inline `allow` has vetted, so a justified call does not taint
    /// everything upstream of it. Monotone worklist — recursion cycles
    /// terminate.
    pub fn reach_any(
        &self,
        table: &SymbolTable,
        seeds: &[(usize, Option<usize>)],
        blocked: &BTreeSet<usize>,
    ) -> Reach {
        let n = table.fns().len();
        let mut reach = Reach {
            reached: vec![false; n],
            witness: vec![None; n],
        };
        // Reverse adjacency: definition -> the sites that may call it.
        let mut callers_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (site_idx, site) in self.sites.iter().enumerate() {
            if site.caller.is_none() || blocked.contains(&site_idx) {
                continue;
            }
            for cand in self.resolve(table, site) {
                callers_of[cand].push(site_idx);
            }
        }
        let mut worklist = Vec::new();
        for &(id, witness) in seeds {
            if !reach.reached[id] {
                reach.reached[id] = true;
                reach.witness[id] = witness;
                worklist.push(id);
            }
        }
        while let Some(def) = worklist.pop() {
            for &site_idx in &callers_of[def] {
                let Some(caller) = self.sites[site_idx].caller else {
                    continue;
                };
                if !reach.reached[caller] {
                    reach.reached[caller] = true;
                    reach.witness[caller] = Some(site_idx);
                    worklist.push(caller);
                }
            }
        }
        reach
    }

    /// Fixpoint for the must-panic closure: `direct[f]` marks definitions
    /// with an unsuppressed direct panic site. A definition joins the
    /// closure when one of its call sites has a non-empty candidate set
    /// whose members *all* already belong to the closure.
    pub fn panic_closure(&self, table: &SymbolTable, direct: &[bool]) -> Reach {
        let n = table.fns().len();
        let mut reach = Reach {
            reached: direct.to_vec(),
            witness: vec![None; n],
        };
        let resolved: Vec<Vec<usize>> = self
            .sites
            .iter()
            .map(|site| self.resolve(table, site))
            .collect();
        loop {
            let mut changed = false;
            for (site_idx, site) in self.sites.iter().enumerate() {
                let Some(caller) = site.caller else { continue };
                if reach.reached[caller] {
                    continue;
                }
                let cands = &resolved[site_idx];
                if !cands.is_empty() && cands.iter().all(|&c| reach.reached[c]) {
                    reach.reached[caller] = true;
                    reach.witness[caller] = Some(site_idx);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        reach
    }
}

/// The result of a propagation: which definitions are reached, and one
/// witness call site per reached definition for building explanation paths.
#[derive(Debug)]
pub struct Reach {
    reached: Vec<bool>,
    witness: Vec<Option<usize>>,
}

impl Reach {
    /// Whether definition `id` is in the reached set.
    pub fn reached(&self, id: usize) -> bool {
        self.reached[id]
    }

    /// Builds a human-readable call chain starting from `site` (which must
    /// have a reached candidate): `helper -> deeper -> sink`. Capped at 8
    /// hops; cycles cannot loop because each hop follows a fixed witness.
    pub fn call_path(&self, graph: &CallGraph, table: &SymbolTable, site: &CallSite) -> String {
        let mut parts = vec![site.callee.clone()];
        let mut current = site.clone();
        for _ in 0..8 {
            let Some(&next_def) = graph
                .resolve(table, &current)
                .iter()
                .find(|&&id| self.reached[id])
            else {
                break;
            };
            let Some(witness_idx) = self.witness[next_def] else {
                break;
            };
            let witness = &graph.sites()[witness_idx];
            parts.push(witness.callee.clone());
            current = witness.clone();
        }
        parts.join(" -> ")
    }
}

fn extract_sites(file_idx: usize, file: &FileData, table: &SymbolTable, out: &mut Vec<CallSite>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if NON_CALLEES.contains(&name) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && toks[i - 1].ident() == Some("fn") {
            continue;
        }
        let style = if i > 0 && toks[i - 1].is_punct('.') {
            CallStyle::Method
        } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            let seg = if i >= 3 {
                toks[i - 3].ident().unwrap_or("").to_string()
            } else {
                String::new()
            };
            CallStyle::Qualified(seg)
        } else {
            CallStyle::Bare
        };
        out.push(CallSite {
            file: file_idx,
            tok: i,
            line: toks[i].line,
            col: toks[i].col,
            callee: name.to_string(),
            style,
            caller: table.enclosing_fn(file_idx, i),
            in_test: file.in_test_mod(toks[i].line),
            krate: crate_of(&file.path).to_string(),
        });
    }
}

/// Convenience for tests and single-entry analyses: lexes `sources`
/// in-place and builds both passes.
#[cfg(test)]
pub fn analyze(sources: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
    let files: Vec<FileData> = sources
        .iter()
        .map(|(path, src)| FileData::parse(path, src))
        .collect();
    let table = SymbolTable::build(&files);
    let graph = CallGraph::build(&files, &table);
    (table, graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def_id(table: &SymbolTable, name: &str) -> usize {
        *table
            .ids_named(name)
            .first()
            .unwrap_or_else(|| panic!("no def named {name}"))
    }

    #[test]
    fn bare_calls_resolve_to_free_fns_only() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "pub fn build() -> u32 { 1 }\n\
             pub struct A; impl A { pub fn build(&self) -> u32 { 2 } }\n\
             pub fn caller() -> u32 { build() }\n",
        )]);
        let site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "build" && s.style == CallStyle::Bare)
            .expect("bare call site");
        let cands = graph.resolve(&table, site);
        assert_eq!(cands.len(), 1);
        assert!(table.fns()[cands[0]].self_type.is_none());
    }

    #[test]
    fn method_calls_resolve_to_methods_only() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "pub fn tick() -> u32 { 1 }\n\
             pub struct A; impl A { pub fn tick(&self) -> u32 { 2 } }\n\
             pub fn caller(a: &A) -> u32 { a.tick() }\n",
        )]);
        let site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "tick" && s.style == CallStyle::Method)
            .expect("method call site");
        let cands = graph.resolve(&table, site);
        assert_eq!(cands.len(), 1);
        assert!(table.fns()[cands[0]].takes_self);
    }

    #[test]
    fn qualified_calls_narrow_by_impl_target() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "pub struct A; impl A { pub fn make() -> u32 { 1 } }\n\
             pub struct B; impl B { pub fn make() -> u32 { 2 } }\n\
             pub fn caller() -> u32 { A::make() }\n",
        )]);
        let site = graph
            .sites()
            .iter()
            .find(|s| matches!(&s.style, CallStyle::Qualified(seg) if seg == "A"))
            .expect("qualified call site");
        let cands = graph.resolve(&table, site);
        assert_eq!(cands.len(), 1);
        assert_eq!(table.fns()[cands[0]].self_type.as_deref(), Some("A"));
    }

    #[test]
    fn reach_any_handles_recursion_cycles() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "fn sink() {}\n\
             fn ping(n: u32) { if n > 0 { pong(n - 1) } }\n\
             fn pong(n: u32) { if n > 1 { ping(n - 1) } else { sink() } }\n\
             fn outside() { ping(3) }\n\
             fn clean() {}\n",
        )]);
        let seeds = vec![(def_id(&table, "sink"), None)];
        let reach = graph.reach_any(&table, &seeds, &BTreeSet::new());
        for name in ["sink", "ping", "pong", "outside"] {
            assert!(
                reach.reached(def_id(&table, name)),
                "{name} must be reached"
            );
        }
        assert!(!reach.reached(def_id(&table, "clean")));
    }

    #[test]
    fn panic_closure_requires_all_candidates_to_panic() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "pub fn risky() -> u32 { 1 }\n\
             pub struct A; impl A { pub fn risky(&self) -> u32 { 2 } }\n\
             pub fn call_free() -> u32 { risky() }\n",
        )]);
        // Only the free `risky` panics; the bare call resolves to exactly it,
        // so call_free joins the closure.
        let mut direct = vec![false; table.fns().len()];
        direct[def_id(&table, "risky")] = true;
        let reach = graph.panic_closure(&table, &direct);
        assert!(reach.reached(def_id(&table, "call_free")));
    }

    #[test]
    fn panic_closure_is_cycle_tolerant_and_two_level() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "fn boom() { loop {} }\n\
             fn mid(n: u32) { if n > 0 { mid(n - 1) } boom() }\n\
             fn top() { mid(2) }\n\
             fn unrelated() {}\n",
        )]);
        let mut direct = vec![false; table.fns().len()];
        direct[def_id(&table, "boom")] = true;
        let reach = graph.panic_closure(&table, &direct);
        assert!(reach.reached(def_id(&table, "mid")));
        assert!(reach.reached(def_id(&table, "top")));
        assert!(!reach.reached(def_id(&table, "unrelated")));
    }

    #[test]
    fn call_paths_chain_through_witnesses() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "fn deep() {}\n\
             fn shallow() { deep() }\n\
             fn entry() { shallow() }\n",
        )]);
        let seeds = vec![(def_id(&table, "deep"), None)];
        let reach = graph.reach_any(&table, &seeds, &BTreeSet::new());
        let entry_site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "shallow")
            .expect("entry's call site");
        assert_eq!(
            reach.call_path(&graph, &table, entry_site),
            "shallow -> deep"
        );
    }

    #[test]
    fn callback_parameters_do_not_resolve_to_workspace_defs() {
        let (table, graph) = analyze(&[
            (
                "crates/graph/src/csr.rs",
                "pub fn for_each_edge<F>(n: usize, mut visit: F) { visit(0); }\n",
            ),
            (
                "crates/lint/src/walk.rs",
                "pub fn visit(dir: &str) { let _ = std::fs::read_dir(dir); }\n",
            ),
        ]);
        let site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "visit" && s.caller.is_some())
            .expect("callback site");
        assert!(
            graph.resolve(&table, site).is_empty(),
            "a call to a parameter name must not alias a same-named definition"
        );
    }

    #[test]
    fn same_crate_candidates_shadow_foreign_ones() {
        let (table, graph) = analyze(&[
            (
                "crates/graph/src/bucket.rs",
                "pub struct R; impl R { pub fn run(&self) {} }\n\
                 pub fn distances(r: &R) { r.run(); }\n",
            ),
            (
                "crates/core/src/distributed.rs",
                "pub struct S; impl S { pub fn run(&self) {} }\n",
            ),
        ]);
        let site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "run")
            .expect("method call site");
        let cands = graph.resolve(&table, site);
        assert_eq!(cands.len(), 1);
        assert_eq!(table.fns()[cands[0]].path, "crates/graph/src/bucket.rs");
    }

    #[test]
    fn blocked_sites_stop_propagation() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "fn sink() {}\n\
             fn vetted() { sink() }\n\
             fn upstream() { vetted() }\n",
        )]);
        let seeds = vec![(def_id(&table, "sink"), None)];
        let blocked_idx = graph
            .sites()
            .iter()
            .position(|s| s.callee == "sink")
            .expect("vetted call site");
        let blocked: BTreeSet<usize> = [blocked_idx].into_iter().collect();
        let reach = graph.reach_any(&table, &seeds, &blocked);
        assert!(!reach.reached(def_id(&table, "vetted")));
        assert!(!reach.reached(def_id(&table, "upstream")));
    }

    #[test]
    fn test_definitions_never_resolve() {
        let (table, graph) = analyze(&[(
            "crates/x/src/lib.rs",
            "pub fn caller() -> u32 { helper() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 pub fn helper() -> u32 { 1 }\n\
             }\n",
        )]);
        let site = graph
            .sites()
            .iter()
            .find(|s| s.callee == "helper" && !s.in_test)
            .expect("library call site");
        assert!(graph.resolve(&table, site).is_empty());
    }
}
