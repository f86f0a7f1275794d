//! The interprocedural **determinism-taint** lint (`nondet-taint`).
//!
//! Successor to the file-local `nondet-iter` heuristic: instead of
//! flagging every `HashMap` iteration in a deterministic-output crate,
//! it marks **nondeterminism sources** and reports only those with a
//! call path into an **event-emitting or result-producing function** —
//! a function whose signature mentions `EventSink` or `SimResult`. A
//! hash iteration whose order provably cannot reach an event stream or
//! a `SimResult` (because no sink transitively calls the function
//! containing it) is clean, and a source two hops away from a sink is
//! caught, neither of which the old lint could do.
//!
//! Sources:
//! * iteration over default-`RandomState` `HashMap`/`HashSet` and over
//!   `cce_core::idmap`'s `IdMap`/`IdSet` aliases, which draw a random
//!   key per table (`.iter()`, `.keys()`, `.drain()`, …, and plain
//!   `for … in &map`);
//! * `Instant::now` / `SystemTime::now`-derived values;
//! * `available_parallelism` (machine-dependent);
//! * thread identity (`thread::current`, `ThreadId`) and unordered
//!   channel selection (`try_recv`, `recv_timeout`, `try_iter`).
//!
//! The sink→source path is found by BFS over the **full** conservative
//! call graph — over-approximate by design, since a missed edge here
//! would be an unsound "clean". Each finding is reported at the source
//! site (so baselines bucket by the file that owns the
//! nondeterminism) and carries the call path as trace hops.

use std::collections::VecDeque;

use crate::callgraph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::lints::{in_test, is_suppressed, Finding, TraceHop, NONDET_TAINT};
use crate::symbols::Workspace;

/// Crates whose sources are in scope for the taint lint (`concurrent`
/// lives inside `core`).
const SCOPE_CRATES: &[&str] = &["core", "sim", "dbt", "experiments"];

/// Identifiers in a signature that make a function a determinism sink.
const SINK_SIGNATURE_TYPES: &[&str] = &["EventSink", "SimResult"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Type names whose iteration order is randomly keyed: the std hash
/// containers and the `cce_core::idmap` aliases over them.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "IdMap", "IdSet"];

/// Unordered-receive methods on channels: which sender's message
/// arrives first depends on scheduling.
const CHANNEL_METHODS: &[&str] = &["try_recv", "recv_timeout", "try_iter"];

/// One nondeterminism source site.
struct Source {
    file: usize,
    tok: usize,
    line: u32,
    desc: String,
}

/// Runs the taint lint over the workspace. `repo_scope` restricts
/// source sites to [`SCOPE_CRATES`]; fixture mode passes `false` and
/// scans every file.
#[must_use]
pub fn run(ws: &Workspace, cg: &CallGraph, repo_scope: bool) -> Vec<Finding> {
    let sinks = sink_fns(ws);
    if sinks.iter().all(|s| !s) {
        return Vec::new();
    }
    // Reverse adjacency over the full graph: callee → (caller, line).
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); ws.fns.len()];
    for (caller, edges) in cg.edges.iter().enumerate() {
        for e in edges {
            rev[e.callee].push((caller, cg.sites[caller][e.site].line));
        }
    }
    let mut findings = Vec::new();
    for (file_idx, file) in ws.files.iter().enumerate() {
        if repo_scope && !in_scope(&file.rel) {
            continue;
        }
        for source in sources_in_file(ws, file_idx) {
            let Some(owner) = containing_fn(ws, file_idx, source.tok) else {
                continue;
            };
            let Some((sink, hops)) = nearest_sink(ws, &rev, &sinks, owner) else {
                continue;
            };
            if is_suppressed(&file.lexed, NONDET_TAINT, source.line) {
                continue;
            }
            findings.push(finding_for(ws, &source, owner, sink, &hops));
        }
    }
    findings
}

fn in_scope(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .is_none_or(|krate| SCOPE_CRATES.contains(&krate))
}

/// Which workspace functions are sinks: `EventSink` or `SimResult` in
/// the signature, outside `#[cfg(test)]` modules.
fn sink_fns(ws: &Workspace) -> Vec<bool> {
    ws.fns
        .iter()
        .map(|f| {
            let file = &ws.files[f.file];
            let tokens = &file.lexed.tokens;
            if in_test(&file.tests, f.sig.0) {
                return false;
            }
            tokens[f.sig.0..f.sig.1.min(tokens.len())].iter().any(|t| {
                t.kind == TokKind::Ident && SINK_SIGNATURE_TYPES.contains(&t.text.as_str())
            })
        })
        .collect()
}

/// The innermost function whose body contains token `tok`.
fn containing_fn(ws: &Workspace, file_idx: usize, tok: usize) -> Option<usize> {
    ws.files[file_idx]
        .fns
        .iter()
        .copied()
        .filter(|&id| {
            let (s, e) = ws.fns[id].body;
            tok >= s && tok < e
        })
        .max_by_key(|&id| ws.fns[id].body.0)
}

/// BFS from the source-owning function **up the callers** to the
/// nearest sink. Returns the sink and the downward chain
/// `(caller, call line)` from the sink to the owner.
fn nearest_sink(
    ws: &Workspace,
    rev: &[Vec<(usize, u32)>],
    sinks: &[bool],
    owner: usize,
) -> Option<(usize, Vec<(usize, u32)>)> {
    let mut seen = vec![false; ws.fns.len()];
    // For each visited caller, the (callee, line) step taken to reach it
    // — i.e. the downward edge back toward the source.
    let mut down: Vec<Option<(usize, u32)>> = vec![None; ws.fns.len()];
    let mut queue = VecDeque::from([owner]);
    seen[owner] = true;
    let mut found = None;
    'bfs: while let Some(f) = queue.pop_front() {
        if sinks[f] {
            found = Some(f);
            break 'bfs;
        }
        for &(caller, line) in &rev[f] {
            if !seen[caller] {
                seen[caller] = true;
                down[caller] = Some((f, line));
                queue.push_back(caller);
            }
        }
    }
    let sink = found?;
    let mut hops = Vec::new();
    let mut cur = sink;
    while let Some((callee, line)) = down[cur] {
        hops.push((cur, line));
        cur = callee;
    }
    Some((sink, hops))
}

fn finding_for(
    ws: &Workspace,
    source: &Source,
    owner: usize,
    sink: usize,
    hops: &[(usize, u32)],
) -> Finding {
    let sink_fn = &ws.fns[sink];
    let owner_fn = &ws.fns[owner];
    let mut trace = vec![TraceHop {
        file: ws.files[sink_fn.file].rel.clone(),
        line: sink_fn.line,
        label: format!(
            "sink `{}` (EventSink/SimResult in signature)",
            sink_fn.qname
        ),
    }];
    for &(caller, line) in hops {
        trace.push(TraceHop {
            file: ws.files[ws.fns[caller].file].rel.clone(),
            line,
            label: format!("call inside `{}`", ws.fns[caller].qname),
        });
    }
    trace.push(TraceHop {
        file: ws.files[source.file].rel.clone(),
        line: source.line,
        label: format!("source in `{}`: {}", owner_fn.qname, source.desc),
    });
    let route = if hops.is_empty() {
        format!("inside sink `{}`", sink_fn.qname)
    } else {
        format!(
            "reaches sink `{}` through {} call hop(s)",
            sink_fn.qname,
            hops.len()
        )
    };
    Finding {
        file: ws.files[source.file].rel.clone(),
        line: source.line,
        lint: NONDET_TAINT,
        message: format!(
            "{} {route}; make the order deterministic (BTreeMap/BTreeSet, sort, fixed seed) \
             or annotate `// cce-analyze: allow(nondet-taint): <why order cannot reach \
             output>` (DESIGN.md \u{a7}8/\u{a7}9)",
            source.desc
        ),
        trace,
    }
}

/// All nondeterminism source sites in one file, outside test modules.
fn sources_in_file(ws: &Workspace, file_idx: usize) -> Vec<Source> {
    let file = &ws.files[file_idx];
    let tokens = &file.lexed.tokens;
    let tests = &file.tests;
    let mut out = Vec::new();
    hash_iteration_sources(tokens, tests, file_idx, &mut out);
    for (i, t) in tokens.iter().enumerate() {
        if in_test(tests, i) || t.kind != TokKind::Ident {
            continue;
        }
        let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        let method = i > 0 && tokens[i - 1].is_punct(".");
        match t.text.as_str() {
            // `Instant::now(` / `SystemTime::now(`.
            "Instant" | "SystemTime"
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
                    && tokens.get(i + 3).is_some_and(|n| n.is_punct("(")) =>
            {
                out.push(Source {
                    file: file_idx,
                    tok: i,
                    line: t.line,
                    desc: format!("wall-clock value from `{}::now()`", t.text),
                });
            }
            "available_parallelism" if called => {
                out.push(Source {
                    file: file_idx,
                    tok: i,
                    line: t.line,
                    desc: "machine-dependent `available_parallelism()`".to_owned(),
                });
            }
            // `thread::current(` — thread identity.
            "current"
                if called
                    && i >= 2
                    && tokens[i - 1].is_punct("::")
                    && tokens[i - 2].is_ident("thread") =>
            {
                out.push(Source {
                    file: file_idx,
                    tok: i,
                    line: t.line,
                    desc: "thread identity from `thread::current()`".to_owned(),
                });
            }
            m if called && method && CHANNEL_METHODS.contains(&m) => {
                out.push(Source {
                    file: file_idx,
                    tok: i,
                    line: t.line,
                    desc: format!("scheduling-ordered channel receive `.{m}()`"),
                });
            }
            _ => {}
        }
    }
    out.sort_by_key(|s| s.tok);
    out
}

/// Names bound to a [`HASH_TYPES`] container in this file: `name: HashMap<…>`
/// declarations (lets, fields, params) and `name = HashMap::new()`-style
/// initializers. Collection is file-granular — a name hash-bound in one
/// function taints the same name everywhere in the file — which errs on
/// the side of flagging; rename or annotate to disambiguate.
fn hash_bound_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str())) {
            continue;
        }
        // Walk back over a `std::collections::` path prefix, then over
        // `&`/`&mut`/lifetime qualifiers, to reach an ascription colon.
        let mut head = i;
        while head >= 2
            && tokens[head - 1].is_punct("::")
            && tokens[head - 2].kind == TokKind::Ident
        {
            head -= 2;
        }
        while head >= 1
            && (tokens[head - 1].is_punct("&")
                || tokens[head - 1].is_ident("mut")
                || tokens[head - 1].kind == TokKind::Lifetime)
        {
            head -= 1;
        }
        if head < 2 || tokens[head - 2].kind != TokKind::Ident {
            continue;
        }
        let ascription = tokens[head - 1].is_punct(":");
        let initializer =
            tokens[head - 1].is_punct("=") && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"));
        if ascription || initializer {
            names.push(tokens[head - 2].text.clone());
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Hash-iteration sources: method form (`map.iter()`, `.drain()`, …)
/// and plain `for … in &map` loops.
fn hash_iteration_sources(
    tokens: &[Token],
    tests: &[(usize, usize)],
    file_idx: usize,
    out: &mut Vec<Source>,
) {
    let names = hash_bound_names(tokens);
    if names.is_empty() {
        return;
    }
    let is_hash_name = |t: &Token| t.kind == TokKind::Ident && names.iter().any(|n| n == &t.text);
    for (i, t) in tokens.iter().enumerate() {
        if in_test(tests, i) || !is_hash_name(t) {
            continue;
        }
        if tokens.get(i + 1).is_some_and(|t| t.is_punct("."))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
        {
            if let Some(m) = tokens.get(i + 2) {
                if m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str()) {
                    out.push(Source {
                        file: file_idx,
                        tok: i + 2,
                        line: m.line,
                        desc: format!("RandomState-ordered iteration `{}.{}()`", t.text, m.text),
                    });
                }
            }
        }
    }
    // `for … in [&mut] name { …` form (method-call forms in the iterator
    // expression are caught above).
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("for") || in_test(tests, i) {
            i += 1;
            continue;
        }
        // Find `in` at delimiter depth 0, then the body `{`. A brace at
        // depth 0 before any `in` — `impl Trait for Type { … }`,
        // `for<'a>` bounds reaching a body — means this `for` is not a
        // loop at all.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut found_in = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && t.is_ident("in") {
                found_in = true;
                break;
            } else if depth == 0 && t.is_punct("{") {
                break;
            }
            j += 1;
        }
        if !found_in {
            i += 1;
            continue;
        }
        let expr_start = j + 1;
        let mut k = expr_start;
        let mut has_call = false;
        while k < tokens.len() && !tokens[k].is_punct("{") {
            if tokens[k].is_punct("(") {
                has_call = true;
            }
            k += 1;
        }
        if !has_call {
            for (off, t) in tokens[expr_start..k].iter().enumerate() {
                if is_hash_name(t) {
                    out.push(Source {
                        file: file_idx,
                        tok: expr_start + off,
                        line: t.line,
                        desc: format!("RandomState-ordered `for` loop over `{}`", t.text),
                    });
                }
            }
        }
        i = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn findings(src: &str) -> Vec<Finding> {
        let mut ws = Workspace::default();
        ws.add_file("crates/core/src/demo.rs", src);
        let cg = CallGraph::build(&ws);
        run(&ws, &cg, true)
    }

    #[test]
    fn source_reaching_sink_through_a_hop_is_flagged() {
        let f = findings(
            "
use std::collections::HashMap;
fn order(m: &HashMap<u64, u64>) -> Vec<u64> {
    let mut v = Vec::new();
    for (k, _) in m.iter() { v.push(*k); }
    v
}
pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
    for id in order(m) { sink.insert(id); }
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5, "reported at the source site");
        assert!(f[0].message.contains("1 call hop"));
        assert_eq!(f[0].trace.len(), 3, "sink, call, source: {:?}", f[0].trace);
        assert!(f[0].trace[0].label.contains("emit"));
    }

    #[test]
    fn idmap_aliases_are_sources_like_the_std_hash_containers() {
        let f = findings(
            "
use cce_core::idmap::{IdMap, IdSet};
pub struct Table { rows: IdMap<u32>, gone: IdSet }
pub fn emit(t: &Table, sink: &mut dyn EventSink) {
    for (id, _) in t.rows.iter() { sink.insert(*id); }
    for id in &t.gone { sink.insert(*id); }
}
",
        );
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [5, 6], "{f:?}");
    }

    #[test]
    fn unreachable_source_is_clean() {
        // The old nondet-iter lint flagged every hash iteration; the
        // taint lint proves this one cannot reach the event path.
        let f = findings(
            "
use std::collections::HashMap;
fn debug_census(m: &HashMap<u64, u64>) -> usize {
    m.iter().count()
}
pub fn emit(sink: &mut dyn EventSink) { sink.insert(7); }
",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn time_parallelism_and_channel_sources_in_sinks() {
        let f = findings(
            "
use std::time::Instant;
pub fn bench(sink: &mut dyn EventSink) {
    let t0 = Instant::now();
    sink.insert(t0.elapsed().as_nanos() as u64);
}
pub fn plan() -> SimResult {
    let jobs = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    SimResult { jobs }
}
pub fn drain_workers(rx: &Receiver<u64>, sink: &mut dyn EventSink) {
    while let Ok(v) = rx.try_recv() { sink.insert(v); }
}
",
        );
        let descs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(f.len(), 3, "{descs:?}");
        assert!(descs[0].contains("Instant::now"));
        assert!(descs[1].contains("available_parallelism"));
        assert!(descs[2].contains("try_recv"));
        assert!(f.iter().all(|f| f.message.contains("inside sink")));
    }

    #[test]
    fn legacy_nondet_iter_allow_suppresses() {
        let f = findings(
            "
use std::collections::HashMap;
pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
    // cce-analyze: allow(nondet-iter): values are summed, order-free
    let total: u64 = m.values().sum();
    sink.insert(total);
}
",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_are_skipped_in_repo_mode() {
        let mut ws = Workspace::default();
        ws.add_file(
            "crates/workloads/src/gen.rs",
            "
use std::collections::HashMap;
pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
    for (k, _) in m.iter() { sink.insert(*k); }
}
",
        );
        let cg = CallGraph::build(&ws);
        assert!(run(&ws, &cg, true).is_empty());
        assert_eq!(run(&ws, &cg, false).len(), 1, "fixture mode scans all");
    }

    #[test]
    fn test_module_sources_and_sinks_are_ignored() {
        let f = findings(
            "
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    pub fn emit(m: &HashMap<u64, u64>, sink: &mut dyn EventSink) {
        for (k, _) in m.iter() { sink.insert(*k); }
    }
}
",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
