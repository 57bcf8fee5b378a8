//! The lint engine: lexed files, the workspace pipeline and finding
//! plumbing.
//!
//! Every file is lexed once; the symbol table and call graph are built
//! over the whole set, and every rule runs over the resulting
//! [`WorkspaceCtx`] — see [`lint_files`].

use crate::callgraph::CallGraph;
use crate::lexer::{self, Suppression, Token};
use crate::rules;
use crate::symbols::SymbolTable;

/// One lint finding, addressed by repo-relative path and 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (unix separators), e.g. `crates/graph/src/mst.rs`.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Rule name, e.g. `locality`.
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// For call-graph findings: the call chain from the flagged site to the
    /// definition that violates the property, e.g.
    /// `helper -> deeper -> shortest_path_tree`.
    pub call_path: Option<String>,
}

impl Finding {
    /// Renders the finding in the conventional `path:line:col: rule: message`
    /// compiler format, with the call chain appended when present.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        );
        if let Some(chain) = &self.call_path {
            out.push_str(&format!(" [call path: {chain}]"));
        }
        out
    }
}

/// Names of all rules.
pub const RULE_NAMES: [&str; 4] = [
    rules::CSR_BOUNDARY,
    rules::LOCALITY,
    rules::SCHEDULER_DISCIPLINE,
    rules::PANIC_HYGIENE,
];

/// One fully lexed file in the workspace pipeline.
pub struct FileData {
    /// Repo-relative path with unix separators.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Inline `tc-lint: allow(..)` suppressions.
    pub suppressions: Vec<Suppression>,
    /// Line ranges (inclusive) of `#[cfg(test)]` modules.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileData {
    /// Lexes one file and locates its test modules.
    pub fn parse(path: &str, source: &str) -> FileData {
        let lexed = lexer::lex(source);
        let test_ranges = find_test_mod_ranges(&lexed.tokens);
        FileData {
            path: path.to_string(),
            tokens: lexed.tokens,
            suppressions: lexed.suppressions,
            test_ranges,
        }
    }

    /// True if `line` falls inside a `#[cfg(test)]` module.
    pub fn in_test_mod(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// True if an inline `allow` silences `rule` on `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| s.covers(rule, line))
    }

    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(Token::ident)
    }

    /// True if token `i` exists and is the punctuation `ch`.
    pub fn punct(&self, i: usize, ch: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(ch))
    }
}

/// Everything a rule needs: every file plus the symbol table and call graph
/// built over them.
pub struct WorkspaceCtx<'a> {
    /// All lexed files; indices match [`SymbolTable`]/[`CallGraph`] file ids.
    pub files: &'a [FileData],
    /// The workspace symbol table.
    pub symbols: &'a SymbolTable,
    /// The workspace call graph.
    pub calls: &'a CallGraph,
}

impl WorkspaceCtx<'_> {
    /// Builds a finding at `(file, line, col)`.
    pub fn finding(
        &self,
        file: usize,
        line: u32,
        col: u32,
        rule: &'static str,
        message: String,
        call_path: Option<String>,
    ) -> Finding {
        Finding {
            path: self.files[file].path.clone(),
            line,
            col,
            rule,
            message,
            call_path,
        }
    }
}

/// Lints a set of files as one workspace: builds the symbol table and call
/// graph over the whole set, runs every rule, then drops the findings an
/// inline suppression covers. Findings come back sorted by path, then
/// position. Paths must use `/` separators because rule scoping is
/// path-based.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let data: Vec<FileData> = files
        .iter()
        .map(|(path, source)| FileData::parse(path, source))
        .collect();
    let symbols = SymbolTable::build(&data);
    let calls = CallGraph::build(&data, &symbols);
    let ws = WorkspaceCtx {
        files: &data,
        symbols: &symbols,
        calls: &calls,
    };
    let mut findings = Vec::new();
    rules::run_all(&ws, &mut findings);

    findings.retain(|f| {
        !data
            .iter()
            .any(|fd| fd.path == f.path && fd.suppressed(f.rule, f.line))
    });
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    findings
}

/// Lints one file's source text as a one-file workspace, which is what the
/// golden fixtures exercise.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), source.to_string())])
}

/// Locates `#[cfg(test)] mod name { … }` regions so rules can exempt test
/// code that lives inline in library files.
fn find_test_mod_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip this attribute and any further attributes, then expect
            // `mod name {`.
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            if tokens.get(j).and_then(Token::ident) == Some("mod") {
                // Find the opening brace of the module body.
                let mut k = j;
                while k < tokens.len() && !tokens[k].is_punct('{') {
                    // `mod name;` declares the module elsewhere — no body here.
                    if tokens[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct('{') {
                    let start = tokens[i].line;
                    let mut depth = 0i64;
                    let mut end = tokens[k].line;
                    while k < tokens.len() {
                        if tokens[k].is_punct('{') {
                            depth += 1;
                        } else if tokens[k].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                end = tokens[k].line;
                                break;
                            }
                        }
                        k += 1;
                    }
                    ranges.push((start, end));
                    i = k;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// True if tokens starting at `i` spell `#[cfg(test)]` (or `#[cfg(any(test, …))]`
/// — any attribute of the form `#[cfg(…)]` that mentions the bare ident `test`).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        && tokens.get(i + 2).and_then(Token::ident) == Some("cfg"))
    {
        return false;
    }
    let end = skip_attr(tokens, i);
    tokens[i..end].iter().any(|t| t.ident() == Some("test"))
}

/// Given `tokens[i]` == `#`, returns the index just past the attribute's
/// closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_ranges_are_found() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); }\n\
                   }\n\
                   fn lib2() {}\n";
        let lexed = lexer::lex(src);
        let ranges = find_test_mod_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 6)]);
    }

    #[test]
    fn suppressions_silence_same_and_next_line() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   // tc-lint: allow(panic-hygiene)\n\
                   x.unwrap() + x.unwrap()\n\
                   }\n\
                   pub fn g(x: Option<u32>) -> u32 {\n\
                   x.unwrap() // tc-lint: allow(panic-hygiene)\n\
                   }\n";
        let findings = lint_source("crates/x/src/lib.rs", src);
        assert!(findings.is_empty(), "suppressed: {findings:#?}");
    }

    #[test]
    fn suppressions_silence_call_sites_too() {
        let src = "fn force(x: Option<u32>) -> u32 {\n\
                       x.unwrap() // tc-lint: allow(panic-hygiene)\n\
                   }\n\
                   fn must(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
                   pub fn outer(x: Option<u32>) -> u32 {\n\
                       // tc-lint: allow(panic-hygiene)\n\
                       force(x) + must(x)\n\
                   }\n";
        let findings = lint_source("crates/x/src/lib.rs", src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![4],
            "only must's own site remains: {findings:#?}"
        );
    }

    #[test]
    fn lint_files_spans_multiple_files() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "pub fn must(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                "pub fn consume(x: Option<u32>) -> u32 { must(x) }\n".to_string(),
            ),
        ];
        let findings = lint_files(&files);
        let got: Vec<(&str, Option<&str>)> = findings
            .iter()
            .map(|f| (f.path.as_str(), f.call_path.as_deref()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("crates/a/src/lib.rs", None),
                ("crates/b/src/lib.rs", Some("must")),
            ],
            "the direct site, then the cross-file call: {findings:#?}"
        );
        assert!(findings.iter().all(|f| f.rule == "panic-hygiene"));
    }
}
