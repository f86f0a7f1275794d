//! The flat (single-file) lints, plus the shared [`Finding`] type used
//! by every pass in the analyzer.
//!
//! Each flat lint is a pass over the token stream of one file (see
//! [`crate::lexer`]); which lints run on which file is decided by the
//! scoping rules in [`crate::lint_set_for`]. The interprocedural lints
//! (e.g. determinism taint, [`crate::taint`]) run over the
//! whole-workspace call graph instead and produce [`Finding`]s with a
//! call-path [`TraceHop`] chain. Findings suppressed by a
//! `// cce-analyze: allow(<lint>): <reason>` annotation (same line or
//! the line above, reason required) never leave the analyzer; the
//! pre-interprocedural lint names `nondet-iter` and `event-protocol`
//! are honored as aliases for their successors so existing
//! annotations keep working.

use crate::lexer::{lex, number_value, Lexed, TokKind, Token};

/// Lint identifiers, as used in annotations, baselines and output.
pub const NONDET_TAINT: &str = "nondet-taint";
/// See [`NONDET_TAINT`].
pub const COST_CONSTANT: &str = "cost-constant";
/// See [`NONDET_TAINT`].
pub const PANIC_PATH: &str = "panic-path";
/// See [`NONDET_TAINT`].
pub const EVENT_TYPESTATE: &str = "event-typestate";
/// See [`NONDET_TAINT`].
pub const COST_UNITS: &str = "cost-units";

/// Historical lint names accepted as annotation aliases and migrated
/// in baselines: the file-local `nondet-iter` became the
/// interprocedural [`NONDET_TAINT`] and the construction-site
/// `event-protocol` check became the path-sensitive
/// [`EVENT_TYPESTATE`] grammar lint.
pub const LINT_RENAMES: &[(&str, &str)] = &[
    ("nondet-iter", NONDET_TAINT),
    ("event-protocol", EVENT_TYPESTATE),
];

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
    /// Lint identifier ([`NONDET_TAINT`] etc.).
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Call-path hops for interprocedural findings; empty for flat
    /// lints.
    pub trace: Vec<TraceHop>,
}

impl Finding {
    /// A trace-less finding (the flat-lint constructor).
    #[must_use]
    pub fn new(file: &str, line: u32, lint: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            lint,
            message,
            trace: Vec::new(),
        }
    }
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

/// Which lints to run on one file; produced by the walker's scoping
/// rules (crate lists, exempt files) or all-on in fixture mode.
#[derive(Debug, Clone, Copy)]
pub struct LintSet {
    /// Run the cost-constant-drift lint.
    pub cost_constant: bool,
    /// Run the panic-path lint.
    pub panic_path: bool,
}

impl LintSet {
    /// Every flat lint enabled (fixture mode).
    #[must_use]
    pub fn all() -> LintSet {
        LintSet {
            cost_constant: true,
            panic_path: true,
        }
    }
}

/// Runs the enabled flat lints over `src`, attributing findings to
/// `file`. Interprocedural lints need a workspace — see
/// [`crate::scan_repo`] / [`crate::scan_fixtures`].
#[must_use]
pub fn run_lints(file: &str, src: &str, set: &LintSet) -> Vec<Finding> {
    run_flat(file, &lex(src), set)
}

/// [`run_lints`] against an already-lexed file.
#[must_use]
pub fn run_flat(file: &str, lexed: &Lexed, set: &LintSet) -> Vec<Finding> {
    let tests = test_ranges(&lexed.tokens);
    let mut findings = Vec::new();
    if set.cost_constant {
        cost_constant(file, lexed, &mut findings);
    }
    if set.panic_path {
        panic_path(file, lexed, &tests, &mut findings);
    }
    findings.retain(|f| !is_suppressed(lexed, f.lint, f.line));
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// True if an allow-annotation for `lint` (or a historical alias of it,
/// per [`LINT_RENAMES`]) sits on the same line or the line above, with
/// a non-empty reason.
#[must_use]
pub fn is_suppressed(lexed: &Lexed, lint: &str, line: u32) -> bool {
    lexed.allows.iter().any(|a| {
        let names_lint = a.lint == lint
            || LINT_RENAMES
                .iter()
                .any(|&(old, new)| new == lint && a.lint == old);
        names_lint && !a.reason.is_empty() && (a.line == line || a.line + 1 == line)
    })
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
pub(crate) fn skip_balanced(tokens: &[Token], at: usize, open: &str, close: &str) -> usize {
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

// ---------------------------------------------------------------------
// Lint: cost-constant
// ---------------------------------------------------------------------

/// The Eq. 2–4 constants, with the substring forms searched inside
/// string literals. The numeric values are compared exactly.
const PAPER_CONSTANTS: &[(f64, &str)] = &[
    (2.77, "2.77"),
    (3055.0, "3055"),
    (75.4, "75.4"),
    (1922.0, "1922"),
    (296.5, "296.5"),
    (95.7, "95.7"),
];

/// Names of Eq. 2–4 constants appearing in `s` as maximal decimal-number
/// runs, compared by exact numeric value like the literal branch. This
/// keeps "19225" and "75.41" clean (the substring would match) while
/// still catching respellings like "75.40" or "1922.0"; each constant is
/// reported at most once per string literal.
fn constants_in_string(s: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            i += 1;
        }
        // Trailing dots are sentence punctuation or `..`, not fraction.
        let run = s[start..i].trim_end_matches('.');
        if let Ok(v) = run.parse::<f64>() {
            if let Some((_, name)) = PAPER_CONSTANTS.iter().find(|(c, _)| *c == v) {
                if !found.contains(name) {
                    found.push(*name);
                }
            }
        }
    }
    found
}

fn cost_constant(file: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        match t.kind {
            TokKind::Number => {
                if let Some(v) = number_value(&t.text) {
                    if let Some((_, name)) = PAPER_CONSTANTS.iter().find(|(c, _)| *c == v) {
                        out.push(Finding::new(
                            file,
                            t.line,
                            COST_CONSTANT,
                            format!(
                                "Eq. 2\u{2013}4 constant {name} re-typed as a literal; the only \
                                 definition site is cce_sim::overhead (EVICTION_EQ2 / MISS_EQ3 / \
                                 UNLINK_EQ4) — import it, or annotate \
                                 `// cce-analyze: allow(cost-constant): <reason>`"
                            ),
                        ));
                    }
                }
            }
            TokKind::Str => {
                for name in constants_in_string(&t.text) {
                    out.push(Finding::new(
                        file,
                        t.line,
                        COST_CONSTANT,
                        format!(
                            "Eq. 2\u{2013}4 constant {name} re-typed inside a string literal; \
                             format the canonical cce_sim::overhead model (its Display impl) \
                             instead, or annotate \
                             `// cce-analyze: allow(cost-constant): <reason>`"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Lint 3: panic-path
// ---------------------------------------------------------------------

fn panic_path(file: &str, lexed: &Lexed, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if in_test(tests, i) || t.kind != TokKind::Ident {
            continue;
        }
        let after_dot = i > 0 && tokens[i - 1].is_punct(".");
        let call = tokens.get(i + 1).is_some_and(|t| t.is_punct("("));
        let what = match t.text.as_str() {
            "unwrap" if after_dot && call => ".unwrap()",
            "expect" if after_dot && call => ".expect()",
            "panic" if tokens.get(i + 1).is_some_and(|t| t.is_punct("!")) => "panic!",
            _ => continue,
        };
        out.push(Finding::new(
            file,
            t.line,
            PANIC_PATH,
            format!(
                "{what} in non-test library code; return an error or prove the invariant \
                 (ratcheted by analyze-baseline.json — the count may only go down)"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(src: &str) -> Vec<Finding> {
        run_lints("test.rs", src, &LintSet::all())
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn annotation_with_reason_suppresses() {
        let src = "
fn f(v: Option<u32>) -> u32 {
    // cce-analyze: allow(panic-path): the caller checked is_some
    v.unwrap()
}";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn annotation_without_reason_is_inert() {
        let src = "
fn f(v: Option<u32>) -> u32 {
    // cce-analyze: allow(panic-path)
    v.unwrap()
}";
        assert_eq!(lints_of(&run_all(src)), vec![PANIC_PATH]);
    }

    #[test]
    fn legacy_lint_names_suppress_their_successors() {
        let lexed = lex("
// cce-analyze: allow(nondet-iter): order cannot reach output
");
        assert!(is_suppressed(&lexed, NONDET_TAINT, 2));
        assert!(
            !is_suppressed(&lexed, PANIC_PATH, 2),
            "aliases are per-lint"
        );
        assert!(!is_suppressed(&lexed, NONDET_TAINT, 9), "and per-line");
    }

    #[test]
    fn cost_constants_in_numbers_and_strings() {
        let src = "fn f() { let a = 2.77; let b = 3055.0; let s = \"75.40*x + 1922.0\"; }";
        let f = run_all(src);
        assert_eq!(f.len(), 4, "every re-typed constant is reported: {f:?}");
        assert!(f.iter().all(|f| f.lint == COST_CONSTANT));
        assert!(f[2].message.contains("75.4") && f[3].message.contains("1922"));
    }

    #[test]
    fn near_miss_constants_are_clean() {
        let src = "fn f() { let a = 2.78; let b = 305.5; let s = \"scale 0.25\"; }";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn constants_inside_longer_digit_runs_are_clean() {
        let src = "fn f() { let s = \"since 19225 bytes at 75.41, v1922.5\"; }";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn panics_flagged_outside_tests_only() {
        let src = "
fn lib_code(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect(\"set\");
    if a + b == 0 { panic!(\"zero\"); }
    a
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = None::<u32>.unwrap(); panic!(); }
}";
        let f = run_all(src);
        assert_eq!(lints_of(&f), vec![PANIC_PATH, PANIC_PATH, PANIC_PATH]);
        assert!(f.iter().all(|f| f.line <= 6), "{f:?}");
    }

    #[test]
    fn unwrap_or_is_not_a_panic() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) }";
        assert!(run_all(src).is_empty());
    }

    #[test]
    fn legacy_event_protocol_name_suppresses_event_typestate() {
        let lexed = lex("
// cce-analyze: allow(event-protocol): rewriting a settled stream
");
        assert!(is_suppressed(&lexed, EVENT_TYPESTATE, 2));
        assert!(!is_suppressed(&lexed, COST_UNITS, 2));
    }

    #[test]
    fn doc_comment_code_never_fires() {
        let src = "
/// ```
/// let x = map.iter().next().unwrap();
/// let y = 2.77;
/// sink.event(CacheEvent::EvictionBegin);
/// ```
fn documented() {}";
        assert!(run_all(src).is_empty());
    }
}
