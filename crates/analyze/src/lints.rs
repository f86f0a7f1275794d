//! The shared [`Finding`] type, `cce-analyze: allow(…)` suppression and
//! the token-range helpers the passes use.
//!
//! The one lint, determinism taint ([`crate::taint`]), runs over the
//! whole-workspace call graph and produces [`Finding`]s with a
//! call-path [`TraceHop`] chain. Findings suppressed by a
//! `// cce-analyze: allow(<lint>): <reason>` annotation (same line or
//! the line above, reason required) never leave the analyzer.

use crate::lexer::{Lexed, TokKind, Token};

/// The lint identifier, as used in annotations and output.
pub const NONDET_TAINT: &str = "nondet-taint";

/// One hop of an interprocedural call path attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Repo-relative path of the hop.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What happens at this hop (a call, an acquisition, a sink).
    pub label: String,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (or the path as given in fixture mode).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint identifier ([`NONDET_TAINT`]).
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Call-path hops from the sink to the finding's site.
    pub trace: Vec<TraceHop>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// True if an allow-annotation for `lint` sits on the same line or the
/// line above, with a non-empty reason.
#[must_use]
pub fn is_suppressed(lexed: &Lexed, lint: &str, line: u32) -> bool {
    lexed
        .allows
        .iter()
        .any(|a| a.lint == lint && !a.reason.is_empty() && (a.line == line || a.line + 1 == line))
}

/// Token-index ranges of `#[cfg(test)] mod … { … }` bodies.
pub(crate) fn test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && matches(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            let mut j = i + 7;
            // Skip further attributes between #[cfg(test)] and the item.
            while j < tokens.len() && tokens[j].is_punct("#") {
                j = skip_attribute(tokens, j);
            }
            // Optional visibility.
            if j < tokens.len() && tokens[j].is_ident("pub") {
                j += 1;
                if j < tokens.len() && tokens[j].is_punct("(") {
                    j = skip_balanced(tokens, j, "(", ")");
                }
            }
            if j < tokens.len() && tokens[j].is_ident("mod") {
                // `mod name {` — find the body's closing brace.
                let mut k = j + 1;
                while k < tokens.len() && !tokens[k].is_punct("{") {
                    k += 1;
                }
                let end = skip_balanced(tokens, k, "{", "}");
                ranges.push((k, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

pub(crate) fn in_test(tests: &[(usize, usize)], idx: usize) -> bool {
    tests.iter().any(|&(s, e)| idx >= s && idx < e)
}

fn matches(tokens: &[Token], at: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        tokens.get(at + k).is_some_and(|t| match t.kind {
            TokKind::Ident | TokKind::Punct => t.text == *want,
            _ => false,
        })
    })
}

/// With `tokens[at]` an opening delimiter, returns the index just past
/// its matching close.
fn skip_balanced(tokens: &[Token], at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// With `tokens[at] == "#"`, returns the index just past the attribute.
fn skip_attribute(tokens: &[Token], at: usize) -> usize {
    let mut i = at + 1;
    if i < tokens.len() && tokens[i].is_punct("!") {
        i += 1;
    }
    if i < tokens.len() && tokens[i].is_punct("[") {
        return skip_balanced(tokens, i, "[", "]");
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::Workspace;

    fn run_all(src: &str) -> Vec<Finding> {
        let mut ws = Workspace::default();
        ws.add_file("test.rs", src);
        crate::taint::run(&ws, &CallGraph::build(&ws), false)
    }

    #[test]
    fn annotation_with_reason_suppresses() {
        let src = "
use std::collections::HashMap;
pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
    // cce-analyze: allow(nondet-taint): values are summed, order-free
    let total: u64 = m.values().sum();
    sink.insert(total);
}";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn annotation_without_reason_is_inert() {
        let src = "
use std::collections::HashMap;
pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
    // cce-analyze: allow(nondet-taint)
    let total: u64 = m.values().sum();
    sink.insert(total);
}";
        let f = run_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, NONDET_TAINT);
    }

    #[test]
    fn doc_comment_code_never_fires() {
        let src = "
/// ```
/// let t = std::time::Instant::now();
/// for (k, _) in map.iter() { sink.insert(*k); }
/// ```
pub fn documented(sink: &mut dyn EventSink) {}";
        assert!(run_all(src).is_empty());
    }
}
