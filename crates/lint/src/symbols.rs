//! The workspace symbol table: every `fn` definition, with enough context
//! for conservative name-based call resolution.
//!
//! This is deliberately not a type checker. Definitions are keyed by bare
//! name; a call site resolves to *every* definition that could plausibly
//! receive it (free functions for `name(..)`, methods for `.name(..)`,
//! narrowed by the path segment for `Type::name(..)` when the segment names
//! a known `impl` target). The cross-file rules built on top pick the
//! matching conservatism per rule — see [`crate::callgraph`] and
//! docs/LINTS.md ("known imprecision").

use crate::engine::FileData;
use crate::lexer::{TokKind, Token};
use std::collections::BTreeMap;

/// One function or method definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name.
    pub name: String,
    /// Repo-relative path of the defining file (for path-scoped rules).
    pub path: String,
    /// Index of the defining file in the input slice.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// The `impl` target type when the definition sits in an `impl` block.
    pub self_type: Option<String>,
    /// Whether the first parameter is (a borrow of) `self` — i.e. the
    /// definition is callable with method syntax.
    pub takes_self: bool,
    /// Parameter binding names (`work` in `work: W`). A call to one of
    /// these inside the body is a callback invocation, not a call to any
    /// same-named workspace definition.
    pub params: Vec<String>,
    /// Token indices of the body's `{` and its matching `}` in the defining
    /// file's stream; `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the definition lives inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// All definitions across the workspace, indexed by name.
#[derive(Debug, Default)]
pub struct SymbolTable {
    fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Scans every file for `fn` definitions (free and inside `impl`
    /// blocks).
    pub fn build(files: &[FileData]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (file_idx, file) in files.iter().enumerate() {
            scan_file(file_idx, file, &mut table);
        }
        for (idx, def) in table.fns.iter().enumerate() {
            table.by_name.entry(def.name.clone()).or_default().push(idx);
        }
        table
    }

    /// All definitions, indexable by the ids handed out elsewhere.
    pub fn fns(&self) -> &[FnDef] {
        &self.fns
    }

    /// Definition ids sharing the bare `name`.
    pub fn ids_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The innermost definition in `file` whose body contains token index
    /// `tok`.
    pub fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, id)
        for (id, def) in self.fns.iter().enumerate() {
            if def.file != file {
                continue;
            }
            if let Some((open, close)) = def.body {
                if (open..=close).contains(&tok) {
                    let span = close - open;
                    if best.map(|(s, _)| span < s).unwrap_or(true) {
                        best = Some((span, id));
                    }
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

fn scan_file(file_idx: usize, file: &FileData, table: &mut SymbolTable) {
    let impls = impl_ranges(&file.tokens);
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
            // `fn(u32) -> u32` type position — not a definition.
            i += 1;
            continue;
        };
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let params_end = match_delim(toks, j, '(', ')');
        let takes_self = first_param_is_self(toks, j, params_end);
        let params = param_names(toks, j, params_end);
        // Scan past the return type / where clause to the body `{` (or a
        // bodiless `;`).
        let mut k = params_end + 1;
        let mut body = None;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                body = Some((k, match_delim(toks, k, '{', '}')));
                break;
            }
            if toks[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        let self_type = impls
            .iter()
            .filter(|(_, open, close)| (*open..=*close).contains(&i))
            .map(|(ty, _, _)| ty.clone())
            .next_back();
        table.fns.push(FnDef {
            name: name.to_string(),
            path: file.path.clone(),
            file: file_idx,
            line: toks[i].line,
            col: toks[i].col,
            self_type,
            takes_self,
            params,
            body,
            in_test: file.in_test_mod(toks[i].line),
        });
        i = j;
    }
}

/// Finds item-position `impl` blocks: `(self type, open token, close token)`.
fn impl_ranges(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..toks.len() {
        if toks[i].ident() != Some("impl") || !is_item_impl(toks, i) {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        // `impl Trait for Type { .. }` — the self type follows `for`.
        let mut segment_end = j;
        let mut after_for = None;
        while segment_end < toks.len() {
            let t = &toks[segment_end];
            if t.is_punct('{') {
                break;
            }
            match t.ident() {
                Some("for") => after_for = Some(segment_end + 1),
                Some("where") => break,
                _ => {}
            }
            segment_end += 1;
        }
        let type_start = after_for.unwrap_or(j);
        // Last path-segment identifier before generic args / the brace.
        let mut ty = None;
        let mut k = type_start;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('{') || t.is_punct('<') || t.ident() == Some("where") {
                break;
            }
            if let Some(id) = t.ident() {
                ty = Some(id.to_string());
            }
            k += 1;
        }
        // Advance to the block and record its extent.
        let mut open = k;
        while open < toks.len() && !toks[open].is_punct('{') {
            open += 1;
        }
        if open < toks.len() {
            if let Some(ty) = ty {
                ranges.push((ty, open, match_delim(toks, open, '{', '}')));
            }
        }
    }
    ranges
}

/// Distinguishes an item-level `impl` from `impl Trait` in type position
/// (`-> impl Iterator`, `x: impl Fn()`).
fn is_item_impl(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    // Step back over any attribute directly above (`#[..] impl ..`).
    while j > 0 {
        let prev = &toks[j - 1];
        if prev.is_punct(']') {
            // Walk back over the attribute to its `#`.
            let mut depth = 0i64;
            let mut k = j - 1;
            loop {
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            if k > 0 && toks[k - 1].is_punct('#') {
                j = k - 1;
                continue;
            }
            return false;
        }
        break;
    }
    if j == 0 {
        return true;
    }
    let prev = &toks[j - 1];
    prev.is_punct('}') || prev.is_punct(';') || prev.ident() == Some("unsafe")
}

/// Given `toks[open]` == `<`, returns the index just past the matching `>`
/// (tolerating `->` arrows inside generic bounds).
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Given `toks[open]` is the opening delimiter, returns the index of the
/// matching closer (or the last token if unbalanced).
fn match_delim(toks: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Collects parameter binding names: every identifier in the parameter
/// list directly followed by a single `:` (the `name` of `name: Type`).
/// Colons inside types are always part of a `::` pair, so the single-colon
/// test rejects them; destructuring patterns are not modelled (their
/// bindings just go uncollected, which only costs precision, not
/// soundness).
fn param_names(toks: &[Token], open: usize, close: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = open + 1;
    while i + 1 < close {
        if let Some(name) = toks[i].ident() {
            let single_colon = toks[i + 1].is_punct(':')
                && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && !(i > 0 && toks[i - 1].is_punct(':'));
            if single_colon && name != "self" {
                names.push(name.to_string());
            }
        }
        i += 1;
    }
    names
}

/// The crate a workspace path belongs to: `crates/graph/src/bfs.rs` →
/// `graph`; top-level `src/`, `tests/`, `examples/` files map to `""`.
pub fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(""),
        None => "",
    }
}

fn first_param_is_self(toks: &[Token], open: usize, close: usize) -> bool {
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        let is_qual =
            t.is_punct('&') || t.ident() == Some("mut") || matches!(t.kind, TokKind::Lifetime);
        if is_qual {
            i += 1;
            continue;
        }
        return t.ident() == Some("self");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(path: &str, src: &str) -> SymbolTable {
        SymbolTable::build(&[FileData::parse(path, src)])
    }

    #[test]
    fn free_fns_and_methods_are_distinguished() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   pub struct Foo;\n\
                   impl Foo {\n\
                       pub fn new() -> Self { Foo }\n\
                       pub fn get(&self) -> u32 { 1 }\n\
                   }\n\
                   impl std::fmt::Display for Foo {\n\
                       fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
                   }\n";
        let table = table_of("crates/graph/src/foo.rs", src);
        let names: Vec<(&str, Option<&str>, bool)> = table
            .fns()
            .iter()
            .map(|d| (d.name.as_str(), d.self_type.as_deref(), d.takes_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, false),
                ("new", Some("Foo"), false),
                ("get", Some("Foo"), true),
                ("fmt", Some("Foo"), true),
            ]
        );
    }

    #[test]
    fn generic_fns_with_fn_bounds_parse() {
        let src = "pub fn par<T, W>(items: &[T], work: W) -> Vec<u32>\n\
                   where W: Fn(&T) -> u32 + Sync {\n\
                       items.iter().map(|x| work(x)).collect()\n\
                   }\n";
        let table = table_of("crates/graph/src/par.rs", src);
        assert_eq!(table.fns().len(), 1);
        assert!(table.fns()[0].body.is_some());
        assert!(!table.fns()[0].takes_self);
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let src = "fn maker() -> impl Iterator<Item = u32> { (0..3).map(|x| x) }\n\
                   fn other() {}\n";
        let table = table_of("crates/x/src/lib.rs", src);
        assert!(table.fns().iter().all(|d| d.self_type.is_none()));
        assert_eq!(table.fns().len(), 2);
    }

    #[test]
    fn shadowed_names_keep_every_definition() {
        let src = "pub fn build() -> u32 { 1 }\n\
                   pub struct A; impl A { pub fn build(&self) -> u32 { 2 } }\n\
                   pub struct B; impl B { pub fn build(&self) -> u32 { 3 } }\n";
        let table = table_of("crates/x/src/lib.rs", src);
        assert_eq!(table.ids_named("build").len(), 3);
        let methods = table
            .ids_named("build")
            .iter()
            .filter(|&&id| table.fns()[id].takes_self)
            .count();
        assert_eq!(methods, 2);
    }

    #[test]
    fn enclosing_fn_picks_the_innermost_definition() {
        let src = "fn outer() {\n\
                       fn inner() { helper(); }\n\
                       inner();\n\
                   }\n";
        let file = FileData::parse("crates/x/src/lib.rs", src);
        let table = SymbolTable::build(std::slice::from_ref(&file));
        // Locate the `helper` token and the second `inner` (the call).
        let helper = file
            .tokens
            .iter()
            .position(|t| t.ident() == Some("helper"))
            .unwrap_or(0);
        let id = table.enclosing_fn(0, helper);
        assert_eq!(id.map(|i| table.fns()[i].name.as_str()), Some("inner"));
    }

    #[test]
    fn param_binding_names_are_collected() {
        let src = "pub fn for_each_edge<F: FnMut(u32, u32, f64)>(g: &G, mut visit: F) {\n\
                       visit(0, 1, 1.0);\n\
                   }\n\
                   impl Net { pub fn run<S>(&self, states: Vec<S>, step: S) {} }\n";
        let table = table_of("crates/graph/src/csr.rs", src);
        assert_eq!(table.fns()[0].params, vec!["g", "visit"]);
        // `self` is excluded; type-position `::` colons never collect.
        assert_eq!(table.fns()[1].params, vec!["states", "step"]);
    }

    #[test]
    fn crate_of_follows_the_workspace_layout() {
        assert_eq!(crate_of("crates/graph/src/bfs.rs"), "graph");
        assert_eq!(crate_of("crates/core/src/relaxed/mod.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("tests/determinism.rs"), "");
    }

    #[test]
    fn test_mod_definitions_are_marked() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                   }\n";
        let file = FileData::parse("crates/x/src/lib.rs", src);
        assert_eq!(file.test_ranges, vec![(2, 5)]);
        let table = SymbolTable::build(&[file]);
        let by_name: BTreeMap<&str, bool> = table
            .fns()
            .iter()
            .map(|d| (d.name.as_str(), d.in_test))
            .collect();
        assert_eq!(by_name.get("lib"), Some(&false));
        assert_eq!(by_name.get("helper"), Some(&true));
    }
}
