//! The repo-invariant rules.
//!
//! Every rule runs over a [`WorkspaceCtx`] — the token streams plus the
//! symbol table and call graph built from every file. `csr-boundary` is a
//! per-file pattern match; `locality`, `scheduler-discipline` and
//! `panic-hygiene` follow a property through function calls. All are
//! deliberately heuristic: the goal is to catch the bug classes that have
//! actually occurred in this repo (see docs/LINTS.md for the incident list
//! and the known imprecision of name-based call resolution), with inline
//! `// tc-lint: allow(rule)` comments covering the rare deliberate
//! exceptions.

use crate::engine::{FileData, Finding, WorkspaceCtx};
use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// Rule name: read-only measurement on the mutable graph representation.
pub const CSR_BOUNDARY: &str = "csr-boundary";
/// Rule name: distributed/relaxed phases reaching global graph APIs.
pub const LOCALITY: &str = "locality";
/// Rule name: scheduler closures capturing state, doing I/O, or folding in
/// visit order.
pub const SCHEDULER_DISCIPLINE: &str = "scheduler-discipline";
/// Rule name: library code that panics, directly or through its calls.
pub const PANIC_HYGIENE: &str = "panic-hygiene";

/// One-line description per rule, for the usage text.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        CSR_BOUNDARY => {
            "flags read-only measurements running on &WeightedGraph outside construction \
             crates; mutate on WeightedGraph, measure on CsrGraph"
        }
        LOCALITY => {
            "flags call paths from distributed.rs/relaxed/ to global graph APIs \
             (full Dijkstra, components, all-pairs) and nested node-count loops; \
             bounded-radius / target-directed / GridIndex queries only"
        }
        SCHEDULER_DISCIPLINE => {
            "flags closures handed to par_map_with/region/map_claimed/push_rows that \
             write captured bindings, take locks, or (transitively) perform I/O; \
             accumulate via returned values, merge in input order"
        }
        PANIC_HYGIENE => {
            "flags unwrap/expect/panic! in tc-* library code, and library calls whose \
             every resolution reaches one; suppressed panic sites do not propagate"
        }
        _ => "unknown rule",
    }
}

/// Runs every rule over the workspace context.
pub fn run_all(ws: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
    for file in 0..ws.files.len() {
        csr_boundary(ws, file, out);
    }
    locality(ws, out);
    scheduler_discipline(ws, out);
    panic_hygiene(ws, out);
}

// ---------------------------------------------------------------------------
// Path scoping helpers
// ---------------------------------------------------------------------------

fn in_dir(path: &str, dir: &str) -> bool {
    path.starts_with(&format!("{dir}/")) || path.contains(&format!("/{dir}/"))
}

pub(crate) fn is_test_path(path: &str) -> bool {
    in_dir(path, "tests")
}

pub(crate) fn is_library_src(path: &str) -> bool {
    // `crates/<name>/src/**` or the root facade's `src/**`; binaries,
    // benches, examples and integration tests are exempt from panic hygiene.
    let in_src =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    in_src && !in_dir(path, "bin")
}

// ---------------------------------------------------------------------------
// Tracked-identifier inference (for csr-boundary)
// ---------------------------------------------------------------------------

/// Infers the set of identifiers bound to a `WeightedGraph`, from:
///
/// * type ascriptions — `name: WeightedGraph` in lets, fields and
///   parameters (with any `path::` prefix and `&`/`mut` qualifiers);
/// * constructor assignments — `name = WeightedGraph::new(..)` (also
///   `with_capacity`, `default`, `from`);
/// * producer-method assignments — `name = expr.weighted_graph(..)`.
fn weighted_graph_idents(fd: &FileData) -> BTreeSet<String> {
    const CTORS: [&str; 4] = ["new", "with_capacity", "default", "from"];
    let mut tracked = BTreeSet::new();
    let toks = &fd.tokens;
    for i in 0..toks.len() {
        let Some(name) = fd.ident(i) else { continue };

        if name == "WeightedGraph" {
            // Walk back over `segment::` path prefixes to the head of the
            // type path.
            let mut cur = i;
            while cur >= 3
                && fd.punct(cur - 1, ':')
                && fd.punct(cur - 2, ':')
                && fd.ident(cur - 3).is_some()
            {
                cur -= 3;
            }
            // Skip `&`, `&&`, `mut` and lifetime qualifiers.
            let mut j = cur as i64 - 1;
            while j >= 0 {
                let t = &toks[j as usize];
                let is_qual = t.is_punct('&')
                    || t.ident() == Some("mut")
                    || matches!(t.kind, crate::lexer::TokKind::Lifetime);
                if is_qual {
                    j -= 1;
                } else {
                    break;
                }
            }
            // Type ascription: `binder : [&] [path::]Type`.
            if j >= 1 && fd.punct(j as usize, ':') && !fd.punct(j as usize - 1, ':') {
                if let Some(binder) = fd.ident(j as usize - 1) {
                    tracked.insert(binder.to_string());
                }
            }
            // Constructor: `binder = [path::]Type::ctor(..)`.
            if fd.punct(i + 1, ':')
                && fd.punct(i + 2, ':')
                && fd.ident(i + 3).is_some_and(|m| CTORS.contains(&m))
                && j >= 1
                && fd.punct(j as usize, '=')
            {
                if let Some(binder) = fd.ident(j as usize - 1) {
                    tracked.insert(binder.to_string());
                }
            }
        }

        // Producer method: `binder = <expr>.weighted_graph(..);`
        if name == "weighted_graph" && i >= 1 && fd.punct(i - 1, '.') && fd.punct(i + 1, '(') {
            // Scan left for the `=` of the enclosing `let`/assignment,
            // stopping at statement boundaries.
            let mut k = i as i64 - 2;
            let mut hops = 0;
            while k >= 1 && hops < 40 {
                let t = &toks[k as usize];
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('=') {
                    if let Some(binder) = fd.ident(k as usize - 1) {
                        tracked.insert(binder.to_string());
                    }
                    break;
                }
                k -= 1;
                hops += 1;
            }
        }
    }
    tracked
}

// ---------------------------------------------------------------------------
// Rule: csr-boundary
// ---------------------------------------------------------------------------

/// Read-only, `GraphView`-generic measurements exported by `tc-graph`.
/// Calling any of these on a `&WeightedGraph` outside the construction
/// crates repeatedly pays the pointer-chasing cost the CSR snapshot exists
/// to avoid — and the conversion is one `ubg.to_csr()` / `CsrGraph::from`
/// away.
const MEASURE_FNS: [&str; 19] = [
    "kruskal",
    "mst_weight",
    "component_labels",
    "connected_components",
    "component_count",
    "is_connected",
    "components_are_cliques",
    "edge_stretches",
    "stretch_check",
    "stretch_factor",
    "weight_ratio",
    "shortest_path_distances",
    "shortest_path_distances_bounded",
    "shortest_path_to",
    "shortest_path_within",
    "shortest_path_tree",
    "hop_distances_bounded",
    "k_hop_neighborhood",
    "k_hop_subgraph",
];

fn csr_boundary(ws: &WorkspaceCtx<'_>, file: usize, out: &mut Vec<Finding>) {
    let fd = &ws.files[file];
    // The construction crates legitimately traverse the mutable graph while
    // building it; the boundary rule is for everyone downstream.
    if fd.path.starts_with("crates/core/")
        || fd.path.starts_with("crates/graph/")
        || is_test_path(&fd.path)
    {
        return;
    }
    let tracked = weighted_graph_idents(fd);
    let toks = &fd.tokens;
    for i in 0..toks.len() {
        if fd.in_test_mod(toks[i].line) {
            continue;
        }
        let Some(name) = fd.ident(i) else { continue };
        if !MEASURE_FNS.contains(&name) || !fd.punct(i + 1, '(') {
            continue;
        }
        // A definition (`fn stretch_check(..)`) is not a call.
        if i >= 1 && fd.ident(i - 1) == Some("fn") {
            continue;
        }
        // Inspect the first argument: flag `[&] ident` for a tracked
        // WeightedGraph binding, and `[&] expr.graph()` — the accessor that
        // hands out the mutable representation.
        let open = i + 1;
        let close = match_forward(toks, open, '(', ')');
        let mut end = open + 1;
        let mut depth = 0i64;
        while end < close {
            if toks[end].is_punct('(') || toks[end].is_punct('[') {
                depth += 1;
            } else if toks[end].is_punct(')') || toks[end].is_punct(']') {
                depth -= 1;
            } else if toks[end].is_punct(',') && depth == 0 {
                break;
            }
            end += 1;
        }
        let mut a = open + 1;
        while fd.punct(a, '&') {
            a += 1;
        }
        let bare_tracked = end == a + 1 && fd.ident(a).is_some_and(|id| tracked.contains(id));
        let graph_accessor = end >= open + 4
            && toks.get(end - 1).is_some_and(|t| t.is_punct(')'))
            && toks.get(end - 2).is_some_and(|t| t.is_punct('('))
            && fd.ident(end - 3) == Some("graph")
            && toks.get(end - 4).is_some_and(|t| t.is_punct('.'));
        if bare_tracked || graph_accessor {
            out.push(ws.finding(
                file,
                toks[i].line,
                toks[i].col,
                CSR_BOUNDARY,
                format!(
                    "read-only measurement `{name}` runs on a mutable \
                     `WeightedGraph`; convert at the boundary — mutate on \
                     WeightedGraph, measure on CsrGraph \
                     (`CsrGraph::from(&g)` / `ubg.to_csr()`, see \
                     docs/PERFORMANCE.md)"
                ),
                None,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Shared token-walk helpers for the cross-file rules
// ---------------------------------------------------------------------------

/// Renders one token for loop-bound keys (`g.node_count()` → "g.node_count()").
fn tok_text(t: &Token) -> String {
    match t.kind {
        TokKind::Punct(c) => c.to_string(),
        _ => t.text.clone(),
    }
}

/// Given `toks[open]` is `o`, returns the index of the matching `c`.
fn match_forward(toks: &[Token], open: usize, o: char, c: char) -> usize {
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

/// Net `(`/`[`/`{` depth change contributed by one token.
fn depth_delta(t: &Token) -> i64 {
    match t.kind {
        TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => 1,
        TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => -1,
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Rule: locality
// ---------------------------------------------------------------------------

/// Files holding the paper's bounded-neighborhood construction phases; they
/// may only reach the graph through bounded-radius, target-directed or
/// `GridIndex` queries.
fn in_locality_scope(path: &str) -> bool {
    path == "crates/core/src/distributed.rs" || path.starts_with("crates/core/src/relaxed/")
}

/// Graph APIs whose cost is inherently global (full Dijkstra sweeps,
/// whole-graph statistics, component labelling). A call *path* from scoped
/// code to any of these breaks the locality guarantee.
const GLOBAL_REACH_FNS: [&str; 13] = [
    "shortest_path_distances",
    "shortest_path_tree",
    "edge_stretches",
    "stretch_check",
    "stretch_factor",
    "verify_spanner",
    "weight_ratio",
    "mst_weight",
    "kruskal",
    "connected_components",
    "component_labels",
    "component_count",
    "is_connected",
];

fn locality(ws: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
    // Seeds: definitions that *call* a global-reach API directly (by name),
    // unless that call is excused by an inline `allow(locality)`. Seeding on
    // callers-of-the-name (rather than the API definitions themselves) also
    // catches paths whose sink lives outside the linted file set.
    // Sites vetted by an inline `allow(locality)` neither seed nor carry
    // propagation: a justified global call must not taint its callers.
    let mut blocked: BTreeSet<usize> = BTreeSet::new();
    let mut seeds: Vec<(usize, Option<usize>)> = Vec::new();
    for (site_idx, site) in ws.calls.sites().iter().enumerate() {
        let fd = &ws.files[site.file];
        if fd.suppressed(LOCALITY, site.line) {
            blocked.insert(site_idx);
            continue;
        }
        if !GLOBAL_REACH_FNS.contains(&site.callee.as_str()) || site.in_test {
            continue;
        }
        if is_test_path(&fd.path) {
            continue;
        }
        if let Some(caller) = site.caller {
            if !seeds.iter().any(|&(id, _)| id == caller) {
                seeds.push((caller, Some(site_idx)));
            }
        }
    }
    let reach = ws.calls.reach_any(ws.symbols, &seeds, &blocked);

    for site in ws.calls.sites() {
        let fd = &ws.files[site.file];
        if !in_locality_scope(&fd.path) || site.in_test {
            continue;
        }
        if GLOBAL_REACH_FNS.contains(&site.callee.as_str()) {
            out.push(ws.finding(
                site.file,
                site.line,
                site.col,
                LOCALITY,
                format!(
                    "`{}` is a global graph API; the distributed/relaxed phases \
                     must stay within bounded-hop neighborhoods — use \
                     for_each_within / distances_to_targets / \
                     shortest_path_within / GridIndex queries, or justify with \
                     `// tc-lint: allow(locality)`",
                    site.callee
                ),
                None,
            ));
            continue;
        }
        let cands = ws.calls.resolve(ws.symbols, site);
        if cands.iter().any(|&c| reach.reached(c)) {
            let chain = reach.call_path(ws.calls, ws.symbols, site);
            out.push(ws.finding(
                site.file,
                site.line,
                site.col,
                LOCALITY,
                format!(
                    "`{}` transitively reaches a global graph API from a \
                     bounded-neighborhood phase; restructure onto bounded \
                     queries or justify with `// tc-lint: allow(locality)`",
                    site.callee
                ),
                Some(chain),
            ));
        }
    }

    for file_idx in 0..ws.files.len() {
        if in_locality_scope(&ws.files[file_idx].path) {
            nested_node_loops(ws, file_idx, out);
        }
    }
}

/// Flags `for … in ‥..N { … for … in ‥..N { … } }` where `N` is
/// node-count-like (`g.node_count()` or an ident bound from one): a nested
/// node×node loop is an all-pairs sweep whatever the body does.
fn nested_node_loops(ws: &WorkspaceCtx<'_>, file_idx: usize, out: &mut Vec<Finding>) {
    let fd = &ws.files[file_idx];
    let toks = &fd.tokens;

    // Idents bound from a `.node_count()` call in this file.
    let mut node_idents: BTreeSet<String> = BTreeSet::new();
    for i in 1..toks.len() {
        if toks[i].ident() == Some("node_count") && toks[i - 1].is_punct('.') {
            let mut k = i as i64 - 2;
            let mut hops = 0;
            while k >= 1 && hops < 24 {
                let t = &toks[k as usize];
                if t.is_punct(';') || t.is_punct('{') {
                    break;
                }
                if t.is_punct('=') {
                    if let Some(binder) = toks[k as usize - 1].ident() {
                        node_idents.insert(binder.to_string());
                    }
                    break;
                }
                k -= 1;
                hops += 1;
            }
        }
    }

    // Walk `for` loops with a stack of active node-count-keyed ranges.
    let mut stack: Vec<(String, usize)> = Vec::new(); // (key, body close token)
    let mut i = 0usize;
    while i < toks.len() {
        while stack.last().is_some_and(|&(_, close)| i > close) {
            stack.pop();
        }
        if toks[i].ident() == Some("for") && !fd.in_test_mod(toks[i].line) {
            if let Some((key, body_open)) = node_range_loop(toks, i, &node_idents) {
                let body_close = match_forward(toks, body_open, '{', '}');
                if stack.iter().any(|(k, _)| *k == key) {
                    out.push(ws.finding(
                        file_idx,
                        toks[i].line,
                        toks[i].col,
                        LOCALITY,
                        format!(
                            "nested loops over the node-count range `{key}` form an \
                             all-pairs (node x node) sweep inside a \
                             bounded-neighborhood phase; iterate bounded \
                             neighborhoods instead, or justify with \
                             `// tc-lint: allow(locality)`"
                        ),
                        None,
                    ));
                }
                stack.push((key, body_close));
                i = body_open + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// If the `for` at `for_idx` ranges over `‥..N` with a node-count-like `N`,
/// returns `(key, body-open-token)`.
fn node_range_loop(
    toks: &[Token],
    for_idx: usize,
    node_idents: &BTreeSet<String>,
) -> Option<(String, usize)> {
    // Find the `in` of the loop header.
    let mut j = for_idx + 1;
    let mut hops = 0;
    while toks.get(j).and_then(Token::ident) != Some("in") {
        if j >= toks.len() || toks[j].is_punct('{') || hops > 16 {
            return None;
        }
        j += 1;
        hops += 1;
    }
    // Find a top-level `..` before the body brace.
    let mut depth = 0i64;
    let mut k = j + 1;
    let mut dots = None;
    let mut hops = 0;
    while k + 1 < toks.len() && hops < 48 {
        if depth == 0 && toks[k].is_punct('{') {
            break;
        }
        if depth == 0 && toks[k].is_punct('.') && toks[k + 1].is_punct('.') {
            dots = Some(k);
            break;
        }
        depth += depth_delta(&toks[k]);
        k += 1;
        hops += 1;
    }
    let dots = dots?;
    // Collect the range-end tokens up to the body `{`.
    let mut e = dots + 2;
    if toks.get(e).is_some_and(|t| t.is_punct('=')) {
        e += 1; // `..=`
    }
    let mut depth = 0i64;
    let mut end_toks: Vec<&Token> = Vec::new();
    let mut hops = 0;
    while e < toks.len() && hops < 24 {
        if depth == 0 && toks[e].is_punct('{') {
            let key = node_count_key(&end_toks, node_idents)?;
            return Some((key, e));
        }
        depth += depth_delta(&toks[e]);
        end_toks.push(&toks[e]);
        e += 1;
        hops += 1;
    }
    None
}

/// Canonical key when the range end is node-count-like, else `None`.
fn node_count_key(end_toks: &[&Token], node_idents: &BTreeSet<String>) -> Option<String> {
    if end_toks.len() == 1 {
        let id = end_toks[0].ident()?;
        if node_idents.contains(id) {
            return Some(id.to_string());
        }
        return None;
    }
    let texts: Vec<String> = end_toks.iter().map(|t| tok_text(t)).collect();
    let tail: Vec<&str> = texts.iter().map(String::as_str).collect();
    if tail.ends_with(&[".", "node_count", "(", ")"]) {
        return Some(texts.concat());
    }
    None
}

// ---------------------------------------------------------------------------
// Rule: scheduler-discipline
// ---------------------------------------------------------------------------

/// The `tc_graph::par` entry points whose closures the rule inspects, and
/// the experiment harness's `push_rows`, which hands each row closure to
/// `par_map_with` through a parameter the call graph cannot follow.
const SCHEDULER_FNS: [&str; 4] = ["push_rows", "par_map_with", "region", "map_claimed"];

/// Macros that perform I/O when expanded (fmt-`write!` into a `Formatter`
/// is deliberately excluded).
const IO_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// Methods that acquire locks or mutate shared atomics — a scheduler
/// closure reaching for one is sharing state across workers.
const SYNC_METHODS: [&str; 9] = [
    "lock",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "store",
];

fn scheduler_discipline(ws: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
    // Definitions that perform I/O directly seed the transitive check.
    let mut io_seeds: Vec<(usize, Option<usize>)> = Vec::new();
    for (id, def) in ws.symbols.fns().iter().enumerate() {
        if def.in_test {
            continue;
        }
        let Some((b0, b1)) = def.body else { continue };
        let fd = &ws.files[def.file];
        if direct_io_token(&fd.tokens, b0, b1).is_some() {
            io_seeds.push((id, None));
        }
    }
    let io_reach = ws.calls.reach_any(ws.symbols, &io_seeds, &BTreeSet::new());

    for site in ws.calls.sites() {
        if !SCHEDULER_FNS.contains(&site.callee.as_str()) || site.in_test {
            continue;
        }
        let fd = &ws.files[site.file];
        if is_test_path(&fd.path) {
            continue;
        }
        let toks = &fd.tokens;
        let open = site.tok + 1;
        let close = match_forward(toks, open, '(', ')');

        // Closure-bearing regions: the argument list itself, plus — for a
        // bare-ident argument like `jobs` — the `let jobs …;` statement and
        // every `jobs.push(..)` / `jobs.extend(..)` in the enclosing fn
        // (the boxed-job construction pattern).
        let mut regions: Vec<(usize, usize)> = vec![(open + 1, close)];
        for ident in bare_ident_args(toks, open, close) {
            if let Some(caller) = site.caller {
                if let Some((f0, f1)) = ws.symbols.fns()[caller].body {
                    builder_regions(toks, f0, f1, &ident, &mut regions);
                }
            }
        }

        let mut closures: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &(s, e) in &regions {
            collect_closures(toks, s, e, &mut closures);
        }
        closures.sort_by_key(|&(ps, ..)| ps);
        closures.dedup();
        // Keep only outermost closures — nested ones are scanned as part of
        // their parent's body (with their params registered as locals).
        let mut outer: Vec<(usize, usize, usize, usize)> = Vec::new();
        for c in closures {
            if !outer.iter().any(|&(_, _, b0, b1)| c.0 > b0 && c.3 <= b1) {
                outer.push(c);
            }
        }
        for (p0, p1, b0, b1) in outer {
            check_scheduler_closure(ws, site, (p0, p1), (b0, b1), &io_reach, out);
        }
    }
}

/// Top-level single-identifier arguments of the call `toks[open..=close]`.
fn bare_ident_args(toks: &[Token], open: usize, close: usize) -> Vec<String> {
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    let mut k = open + 1;
    while k <= close {
        if k == close || (depth == 0 && toks[k].is_punct(',')) {
            if k == start + 1 {
                if let Some(id) = toks[start].ident() {
                    args.push(id.to_string());
                }
            }
            start = k + 1;
        } else {
            depth += depth_delta(&toks[k]);
        }
        k += 1;
    }
    args
}

/// Adds the `let <ident> …;` statement span and every `<ident>.push(..)` /
/// `<ident>.extend(..)` call span within the fn body to `regions`.
fn builder_regions(
    toks: &[Token],
    f0: usize,
    f1: usize,
    ident: &str,
    regions: &mut Vec<(usize, usize)>,
) {
    let mut i = f0;
    while i < f1 {
        if toks[i].ident() == Some("let") {
            let named = toks[i + 1].ident() == Some(ident)
                || (toks[i + 1].ident() == Some("mut")
                    && toks.get(i + 2).and_then(Token::ident) == Some(ident));
            if named {
                let mut depth = 0i64;
                let mut j = i + 1;
                while j <= f1 {
                    if depth == 0 && toks[j].is_punct(';') {
                        break;
                    }
                    depth += depth_delta(&toks[j]);
                    j += 1;
                }
                regions.push((i, j));
                i = j;
                continue;
            }
        }
        if toks[i].ident() == Some(ident)
            && toks[i + 1].is_punct('.')
            && toks
                .get(i + 2)
                .and_then(Token::ident)
                .is_some_and(|m| m == "push" || m == "extend")
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let end = match_forward(toks, i + 3, '(', ')');
            regions.push((i + 4, end));
            i = end;
            continue;
        }
        i += 1;
    }
}

/// Finds closures (`|params| body`, `move || { .. }`) inside
/// `toks[start..end]`, returning `(param_start, param_end, body_start,
/// body_end)` token ranges.
fn collect_closures(
    toks: &[Token],
    start: usize,
    end: usize,
    out: &mut Vec<(usize, usize, usize, usize)>,
) {
    let mut i = start;
    while i < end && i < toks.len() {
        if !toks[i].is_punct('|') {
            i += 1;
            continue;
        }
        let starts_closure = i == 0
            || toks[i - 1].is_punct('(')
            || toks[i - 1].is_punct(',')
            || toks[i - 1].is_punct('{')
            || toks[i - 1].is_punct('[')
            || toks[i - 1].is_punct('=')
            || toks[i - 1].ident() == Some("move");
        if !starts_closure {
            i += 1;
            continue;
        }
        // Locate the closing `|` of the parameter list; abort on tokens
        // that prove this `|` was a pattern-alternative or bit-or.
        let mut p1 = None;
        if toks.get(i + 1).is_some_and(|t| t.is_punct('|')) {
            p1 = Some(i + 1);
        } else {
            let mut j = i + 1;
            let mut hops = 0;
            while j < toks.len() && hops < 64 {
                let t = &toks[j];
                if t.is_punct('|') {
                    p1 = Some(j);
                    break;
                }
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=') {
                    break;
                }
                j += 1;
                hops += 1;
            }
        }
        let Some(p1) = p1 else {
            i += 1;
            continue;
        };
        // Body: `{ .. }` block (possibly after a `-> Type` annotation), or
        // a bare expression up to the enclosing `,` / `)`.
        let mut b0 = p1 + 1;
        if toks.get(b0).is_some_and(|t| t.is_punct('-'))
            && toks.get(b0 + 1).is_some_and(|t| t.is_punct('>'))
        {
            let mut j = b0 + 2;
            while j < toks.len() && !toks[j].is_punct('{') && j < b0 + 18 {
                j += 1;
            }
            b0 = j;
        }
        let b1 = if toks.get(b0).is_some_and(|t| t.is_punct('{')) {
            match_forward(toks, b0, '{', '}')
        } else {
            let mut depth = 0i64;
            let mut j = b0;
            while j < toks.len() {
                let d = depth_delta(&toks[j]);
                if depth + d < 0 {
                    break; // closing delimiter of the surrounding call
                }
                if depth == 0 && toks[j].is_punct(',') {
                    break;
                }
                depth += d;
                j += 1;
            }
            j.saturating_sub(1)
        };
        out.push((i, p1, b0, b1));
        i = p1 + 1;
    }
}

/// First direct-I/O token in `toks[b0..=b1]`, if any: an I/O macro, a
/// `stdout`/`stderr` handle, or a `fs::` / `File::` path.
fn direct_io_token(toks: &[Token], b0: usize, b1: usize) -> Option<usize> {
    for i in b0..=b1.min(toks.len().saturating_sub(1)) {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let hit = (IO_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')))
            || name == "stdout"
            || name == "stderr"
            || ((name == "fs" || name == "File")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':')));
        if hit {
            return Some(i);
        }
    }
    None
}

fn check_scheduler_closure(
    ws: &WorkspaceCtx<'_>,
    site: &crate::callgraph::CallSite,
    params: (usize, usize),
    body: (usize, usize),
    io_reach: &crate::callgraph::Reach,
    out: &mut Vec<Finding>,
) {
    let fd = &ws.files[site.file];
    let toks = &fd.tokens;
    let (b0, b1) = body;
    let sched = &site.callee;

    // Locals: closure params, `let`/`for` bindings, and the params of nested
    // closures and of the closures around the call site.
    let mut locals: BTreeSet<String> = BTreeSet::new();
    for t in &toks[params.0..=params.1] {
        if let Some(id) = t.ident() {
            locals.insert(id.to_string());
        }
    }
    let mut i = b0;
    while i <= b1 && i < toks.len() {
        match toks[i].ident() {
            Some("let") => {
                let mut j = i + 1;
                let mut hops = 0;
                while j < toks.len() && hops < 24 {
                    if toks[j].is_punct('=') || toks[j].is_punct(';') {
                        break;
                    }
                    if let Some(id) = toks[j].ident() {
                        locals.insert(id.to_string());
                    }
                    j += 1;
                    hops += 1;
                }
            }
            Some("for") => {
                let mut j = i + 1;
                let mut hops = 0;
                while j < toks.len() && hops < 16 {
                    if toks[j].ident() == Some("in") || toks[j].is_punct('{') {
                        break;
                    }
                    if let Some(id) = toks[j].ident() {
                        locals.insert(id.to_string());
                    }
                    j += 1;
                    hops += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let mut closures: Vec<(usize, usize, usize, usize)> = Vec::new();
    collect_closures(toks, b0 + 1, b1, &mut closures);
    // The closures around the call site count too: a `map_claimed` step
    // inside a `region` body may write the worker's own scratch, which the
    // region closure receives as a parameter.
    if let Some((f0, f1)) = site.caller.and_then(|c| ws.symbols.fns()[c].body) {
        let mut around: Vec<(usize, usize, usize, usize)> = Vec::new();
        collect_closures(toks, f0 + 1, f1, &mut around);
        closures.extend(
            around
                .into_iter()
                .filter(|&(_, _, c0, c1)| c0 < site.tok && site.tok <= c1),
        );
    }
    for &(p0, p1, ..) in &closures {
        for t in &toks[p0..=p1] {
            if let Some(id) = t.ident() {
                locals.insert(id.to_string());
            }
        }
    }

    // (1) Writes to captured bindings (also covers visit-order float folds:
    // `acc += x` inside the closure writes a captured accumulator).
    for i in b0..=b1.min(toks.len().saturating_sub(2)) {
        if !toks[i].is_punct('=') {
            continue;
        }
        let prev_cmp = i > 0
            && (toks[i - 1].is_punct('=')
                || toks[i - 1].is_punct('!')
                || toks[i - 1].is_punct('<')
                || toks[i - 1].is_punct('>'));
        let next_cmp = toks[i + 1].is_punct('=') || toks[i + 1].is_punct('>');
        if prev_cmp || next_cmp || i == 0 {
            continue;
        }
        let mut k = i - 1;
        if matches!(
            toks[k].kind,
            TokKind::Punct('+')
                | TokKind::Punct('-')
                | TokKind::Punct('*')
                | TokKind::Punct('/')
                | TokKind::Punct('%')
                | TokKind::Punct('^')
                | TokKind::Punct('&')
                | TokKind::Punct('|')
        ) {
            if k == 0 {
                continue;
            }
            k -= 1;
        }
        // Walk the place expression (`a.b[i].c`) back to its base ident.
        let base = loop {
            if toks[k].is_punct(']') {
                // Backward-match the index brackets.
                let mut depth = 0i64;
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
                        break;
                    }
                    k -= 1;
                }
                if k == 0 {
                    break None;
                }
                k -= 1;
                continue;
            }
            if toks[k].ident().is_some() {
                if k >= 2 && toks[k - 1].is_punct('.') {
                    k -= 2;
                    continue;
                }
                break toks[k].ident();
            }
            break None;
        };
        if let Some(base) = base {
            if !locals.contains(base) && base != "self" {
                out.push(ws.finding(
                    site.file,
                    toks[i].line,
                    toks[i].col,
                    SCHEDULER_DISCIPLINE,
                    format!(
                        "closure passed to `{sched}` writes to captured binding \
                         `{base}`; workers run concurrently and claim items \
                         dynamically — return per-item values and combine them \
                         after the merge (input order), never accumulate in \
                         visit order"
                    ),
                    None,
                ));
            }
        }
    }

    // (2) Direct I/O.
    if let Some(tok) = direct_io_token(toks, b0, b1) {
        out.push(ws.finding(
            site.file,
            toks[tok].line,
            toks[tok].col,
            SCHEDULER_DISCIPLINE,
            format!(
                "closure passed to `{sched}` performs I/O; worker interleaving \
                 makes output nondeterministic — collect results and report \
                 after the merge"
            ),
            None,
        ));
    }

    // (3) Lock/atomic traffic.
    for i in b0..=b1.min(toks.len().saturating_sub(3)) {
        if toks[i].is_punct('.')
            && toks[i + 1]
                .ident()
                .is_some_and(|m| SYNC_METHODS.contains(&m))
            && toks[i + 2].is_punct('(')
        {
            let method = toks[i + 1].ident().unwrap_or_default().to_string();
            out.push(ws.finding(
                site.file,
                toks[i + 1].line,
                toks[i + 1].col,
                SCHEDULER_DISCIPLINE,
                format!(
                    "closure passed to `{sched}` calls `.{method}()`; sharing \
                     locked/atomic state across workers reintroduces \
                     visit-order dependence — keep per-worker scratch and merge \
                     deterministically"
                ),
                None,
            ));
        }
    }

    // (4) Transitive I/O through the call graph.
    for inner in ws.calls.sites() {
        // Inclusive bounds: a bare-expression body (`|| log_row(x)`)
        // starts at the call token itself.
        if inner.file != site.file || inner.tok < b0 || inner.tok > b1 {
            continue;
        }
        let cands = ws.calls.resolve(ws.symbols, inner);
        if cands.iter().any(|&c| io_reach.reached(c)) {
            let chain = io_reach.call_path(ws.calls, ws.symbols, inner);
            out.push(ws.finding(
                site.file,
                inner.line,
                inner.col,
                SCHEDULER_DISCIPLINE,
                format!(
                    "closure passed to `{sched}` calls `{}`, which can reach \
                     I/O; worker interleaving makes output nondeterministic — \
                     collect results and report after the merge",
                    inner.callee
                ),
                Some(chain),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-hygiene
// ---------------------------------------------------------------------------

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The panic token at `toks[i]`, if any: `.unwrap(` / `.expect(` or a
/// panicking macro invocation.
fn panic_site(toks: &[Token], i: usize) -> Option<&str> {
    let name = toks[i].ident()?;
    let next = toks.get(i + 1)?;
    let method =
        i > 0 && toks[i - 1].is_punct('.') && PANIC_METHODS.contains(&name) && next.is_punct('(');
    let mac = PANIC_MACROS.contains(&name) && next.is_punct('!');
    (method || mac).then_some(name)
}

fn panic_hygiene(ws: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
    // Direct sites: unwrap/expect/panic-macro outside test code. They are
    // reported in library code, and make their enclosing definition a
    // panicker wherever it lives. A site excused by `allow(panic-hygiene)`
    // documents an invariant: it is neither reported nor propagated.
    let mut direct = vec![false; ws.symbols.fns().len()];
    for (file, fd) in ws.files.iter().enumerate() {
        let library = is_library_src(&fd.path);
        for (i, tok) in fd.tokens.iter().enumerate() {
            let Some(name) = panic_site(&fd.tokens, i) else {
                continue;
            };
            if fd.in_test_mod(tok.line) || fd.suppressed(PANIC_HYGIENE, tok.line) {
                continue;
            }
            if let Some(id) = ws.symbols.enclosing_fn(file, i) {
                direct[id] = true;
            }
            if library {
                let what = if PANIC_MACROS.contains(&name) {
                    format!("`{name}!`")
                } else {
                    format!("`.{name}()`")
                };
                out.push(ws.finding(
                    file,
                    tok.line,
                    tok.col,
                    PANIC_HYGIENE,
                    format!(
                        "{what} in library code aborts the caller's process; \
                         return Result/Option, or document the invariant and \
                         add `// tc-lint: allow(panic-hygiene)`"
                    ),
                    None,
                ));
            }
        }
    }

    // Call sites whose every candidate reaches a direct site.
    let reach = ws.calls.panic_closure(ws.symbols, &direct);
    for site in ws.calls.sites() {
        let fd = &ws.files[site.file];
        if !is_library_src(&fd.path) || site.in_test {
            continue;
        }
        let cands = ws.calls.resolve(ws.symbols, site);
        if cands.is_empty() || !cands.iter().all(|&c| reach.reached(c)) {
            continue;
        }
        let chain = reach.call_path(ws.calls, ws.symbols, site);
        out.push(ws.finding(
            site.file,
            site.line,
            site.col,
            PANIC_HYGIENE,
            format!(
                "`{}` can panic (every resolution reaches an unsuppressed \
                 unwrap/expect/panic!); propagate a Result/Option instead, or \
                 document the invariant at the panic site with \
                 `// tc-lint: allow(panic-hygiene)` so callers are excused",
                site.callee
            ),
            Some(chain),
        ));
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_source;

    #[test]
    fn csr_boundary_flags_weighted_graph_measurement() {
        let src = "fn report(g: &WeightedGraph) {\n\
                       let r = stretch_check(g, g, 1.5);\n\
                       let s = stretch_factor(net.graph(), &spanner);\n\
                       let _ = (r, s);\n\
                   }\n";
        let findings = lint_source("crates/bench/src/experiments.rs", src);
        let csr: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "csr-boundary")
            .collect();
        assert_eq!(csr.len(), 2, "{findings:#?}");
    }

    #[test]
    fn csr_boundary_accepts_csr_conversions_and_core() {
        let good = "fn report(ubg: &UnitBallGraph, spanner: &WeightedGraph) {\n\
                        let r = stretch_check(&ubg.to_csr(), &CsrGraph::from(spanner), 1.5);\n\
                        let _ = r;\n\
                    }\n";
        assert!(lint_source("crates/bench/src/experiments.rs", good)
            .iter()
            .all(|f| f.rule != "csr-boundary"));
        let core =
            "fn phase(g: &WeightedGraph) { let d = shortest_path_distances(g, 0); let _ = d; }\n";
        assert!(
            lint_source("crates/core/src/relaxed/mod.rs", core)
                .iter()
                .all(|f| f.rule != "csr-boundary"),
            "construction crates are exempt"
        );
    }

    #[test]
    fn panic_hygiene_scopes_to_library_code() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn g() { panic!(\"boom\"); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { f(None).to_string().parse::<u32>().unwrap(); }\n\
                   }\n";
        let lib = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(
            lib.iter().filter(|f| f.rule == "panic-hygiene").count(),
            2,
            "{lib:#?}"
        );
        let bench = lint_source("crates/x/benches/b.rs", src);
        assert!(bench.iter().all(|f| f.rule != "panic-hygiene"));
        let example = lint_source("examples/e.rs", src);
        assert!(example.iter().all(|f| f.rule != "panic-hygiene"));
    }

    /// Every name the csr-boundary, locality and scheduler-discipline rules
    /// watch must be a function the workspace ships (defined outside test
    /// code): an entry whose function was deleted, renamed or moved into
    /// tests silently covers nothing.
    #[test]
    fn api_name_lists_name_shipped_functions() {
        use super::{is_test_path, GLOBAL_REACH_FNS, MEASURE_FNS, SCHEDULER_FNS};
        use crate::engine::FileData;
        use crate::symbols::SymbolTable;
        use crate::walk::{source_files, workspace_root};

        let root = workspace_root();
        let files: Vec<FileData> = source_files(&root)
            .expect("workspace is readable")
            .into_iter()
            .filter(|path| !path.starts_with("crates/lint/"))
            .map(|path| {
                let source = std::fs::read_to_string(root.join(&path)).expect("readable source");
                FileData::parse(&path, &source)
            })
            .collect();
        let symbols = SymbolTable::build(&files);
        let unresolved: Vec<&str> = MEASURE_FNS
            .iter()
            .chain(&GLOBAL_REACH_FNS)
            .chain(&SCHEDULER_FNS)
            .copied()
            .filter(|name| {
                !symbols.ids_named(name).iter().any(|&id| {
                    let def = &symbols.fns()[id];
                    !def.in_test && !is_test_path(&def.path)
                })
            })
            .collect();
        assert!(
            unresolved.is_empty(),
            "lint API lists name functions the workspace does not ship: {unresolved:?}"
        );
    }
}
