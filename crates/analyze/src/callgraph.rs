//! Layer 2: call-site extraction and a conservative workspace call
//! graph over the [`crate::symbols::Workspace`].
//!
//! Resolution is name-based with self-type refinement — exactly as
//! coarse as a lexer-level analyzer can honestly be:
//!
//! * `self.f(…)` / `Self::f(…)` resolve to methods named `f` on the
//!   enclosing `impl` type only;
//! * `Type::f(…)` resolves to methods of `Type` when any exist, else to
//!   every `f` (the qualifier may be a module);
//! * bare `f(…)` and method calls on locals resolve to every known `f`.
//!
//! Receiver classes are kept on each edge so a client can choose its
//! own precision/soundness trade-off; the determinism-taint lint walks
//! the full graph (over-approximate — a missed edge would be an unsound
//! "clean").

use std::collections::VecDeque;

use crate::lexer::{TokKind, Token};
use crate::symbols::{bare_name, Workspace};

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverKind {
    /// `self.f(…)` — a method of the enclosing impl type.
    SelfDot,
    /// `self.field.f(…)` — a method of a field's (unknown) type.
    SelfField,
    /// `local.f(…)`, `expr().f(…)` — method of an unknown type.
    Local,
    /// `path::f(…)`, `Type::f(…)`, `Self::f(…)`.
    Path,
    /// Bare `f(…)`.
    Free,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name, raw-identifier prefix stripped.
    pub callee: String,
    /// Receiver shape at the site.
    pub recv: ReceiverKind,
    /// For [`ReceiverKind::Path`]: the last path segment before the
    /// callee (`Self`, a type, or a module name).
    pub qualifier: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name within the file's stream.
    pub tok: usize,
}

/// One resolved edge: `sites[caller][site]` may invoke `callee`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index into the caller's site list.
    pub site: usize,
    /// Callee function id in the workspace.
    pub callee: usize,
}

/// The conservative call graph: per-function call sites and resolved
/// edges, indexed by workspace function id.
pub struct CallGraph {
    /// Call sites per function.
    pub sites: Vec<Vec<CallSite>>,
    /// Resolved edges per function (full graph).
    pub edges: Vec<Vec<Edge>>,
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "let", "fn", "pub", "use",
    "mod", "impl", "trait", "struct", "enum", "unsafe", "where", "move", "ref", "mut", "dyn",
    "break", "continue", "await", "box", "yield",
];

impl CallGraph {
    /// Extracts and resolves every call site in the workspace.
    #[must_use]
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut sites = Vec::with_capacity(ws.fns.len());
        let mut edges = Vec::with_capacity(ws.fns.len());
        for f in &ws.fns {
            let tokens = &ws.files[f.file].lexed.tokens;
            let fsites = extract_sites(tokens, f.body);
            let mut fedges = Vec::new();
            for (si, site) in fsites.iter().enumerate() {
                for callee in resolve(ws, f.self_ty.as_deref(), site) {
                    fedges.push(Edge { site: si, callee });
                }
            }
            sites.push(fsites);
            edges.push(fedges);
        }
        CallGraph { sites, edges }
    }

    /// Shortest call chain `from →* to` over edges admitted by
    /// `admit(caller, edge)`, as `(caller fn id, call line)` hops —
    /// empty when `from == to`, `None` when unreachable.
    #[must_use]
    pub fn path_to(
        &self,
        from: usize,
        to: usize,
        admit: impl Fn(usize, &Edge) -> bool,
    ) -> Option<Vec<(usize, u32)>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<(usize, u32)>> = vec![None; self.edges.len()];
        let mut queue = VecDeque::from([from]);
        let mut seen = vec![false; self.edges.len()];
        seen[from] = true;
        while let Some(f) = queue.pop_front() {
            for e in &self.edges[f] {
                if !admit(f, e) || seen[e.callee] {
                    continue;
                }
                seen[e.callee] = true;
                prev[e.callee] = Some((f, self.sites[f][e.site].line));
                if e.callee == to {
                    let mut hops = Vec::new();
                    let mut cur = to;
                    while let Some((p, line)) = prev[cur] {
                        hops.push((p, line));
                        cur = p;
                    }
                    hops.reverse();
                    return Some(hops);
                }
                queue.push_back(e.callee);
            }
        }
        None
    }
}

/// Candidate callees for one site, with self-type refinement.
fn resolve(ws: &Workspace, self_ty: Option<&str>, site: &CallSite) -> Vec<usize> {
    let all = ws.candidates(&site.callee);
    if all.is_empty() {
        return Vec::new();
    }
    let strict = site.recv == ReceiverKind::SelfDot || site.qualifier.as_deref() == Some("Self");
    let refine_to = match site.recv {
        ReceiverKind::SelfDot => self_ty,
        ReceiverKind::Path => match site.qualifier.as_deref() {
            Some("Self") => self_ty,
            q => q,
        },
        _ => None,
    };
    let Some(ty) = refine_to else {
        return all.to_vec();
    };
    let typed: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&id| ws.fns[id].self_ty.as_deref() == Some(ty))
        .collect();
    if !typed.is_empty() {
        typed
    } else if strict {
        // `self.f()` / `Self::f()` with no method of this type named
        // `f`: the name belongs to some foreign type — no edge.
        Vec::new()
    } else {
        // The qualifier was probably a module path segment.
        all.to_vec()
    }
}

/// Scans a body token range for call sites.
fn extract_sites(tokens: &[Token], body: (usize, usize)) -> Vec<CallSite> {
    let mut sites = Vec::new();
    let (start, end) = body;
    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Macro invocation `name!(…)` is not a call we can resolve.
        if tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            i += 1;
            continue;
        }
        // `name(` directly, or `name::<…>(` (turbofish on the callee).
        let after = call_paren_after(tokens, i, end);
        let Some(_paren) = after else {
            i += 1;
            continue;
        };
        let (recv, qualifier) = classify(tokens, i);
        // `Type::<T>::new` style puts a turbofish *in the path*; the
        // classifier above sees `::` and reports Path with the segment
        // before it, which is what we want.
        sites.push(CallSite {
            callee: bare_name(&t.text).to_owned(),
            recv,
            qualifier,
            line: t.line,
            tok: i,
        });
        i += 1;
    }
    sites
}

/// If `tokens[i]` heads a call — `ident (` or `ident :: < … > (` —
/// returns the index of the opening paren.
fn call_paren_after(tokens: &[Token], i: usize, end: usize) -> Option<usize> {
    let next = tokens.get(i + 1)?;
    if next.is_punct("(") {
        return Some(i + 1);
    }
    if next.is_punct("::") && tokens.get(i + 2).is_some_and(|t| t.is_punct("<")) {
        // Skip the turbofish with an angle-depth counter.
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < end.min(tokens.len()) {
            if tokens[j].is_punct("<") {
                depth += 1;
            } else if tokens[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    return tokens.get(j + 1).filter(|t| t.is_punct("(")).map(|_| j + 1);
                }
            }
            j += 1;
        }
    }
    None
}

/// Receiver shape from the tokens before the callee name.
fn classify(tokens: &[Token], i: usize) -> (ReceiverKind, Option<String>) {
    let before = |k: usize| i.checked_sub(k).map(|j| &tokens[j]);
    if before(1).is_some_and(|t| t.is_punct(".")) {
        // Method call: look at what owns the dot.
        let Some(recv) = before(2) else {
            return (ReceiverKind::Local, None);
        };
        if recv.is_ident("self") {
            return (ReceiverKind::SelfDot, None);
        }
        // `self.field.f(` — field access one dot further back.
        if recv.kind == TokKind::Ident
            && before(3).is_some_and(|t| t.is_punct("."))
            && before(4).is_some_and(|t| t.is_ident("self"))
        {
            return (
                ReceiverKind::SelfField,
                Some(bare_name(&recv.text).to_owned()),
            );
        }
        return (ReceiverKind::Local, None);
    }
    if before(1).is_some_and(|t| t.is_punct("::")) {
        let qual = before(2)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| bare_name(&t.text).to_owned());
        return (ReceiverKind::Path, qual);
    }
    (ReceiverKind::Free, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Workspace;

    fn graph(src: &str) -> (Workspace, CallGraph) {
        let mut ws = Workspace::default();
        ws.add_file("crates/core/src/demo.rs", src);
        let cg = CallGraph::build(&ws);
        (ws, cg)
    }

    fn fn_id(ws: &Workspace, name: &str) -> usize {
        ws.candidates(name)[0]
    }

    #[test]
    fn self_calls_resolve_within_the_impl_only() {
        let (ws, cg) = graph(
            "
impl A { fn go(&self) { self.step(); } fn step(&self) {} }
impl B { fn step(&self) {} }
",
        );
        let go = fn_id(&ws, "go");
        let callees: Vec<&str> = cg.edges[go]
            .iter()
            .map(|e| ws.fns[e.callee].qname.as_str())
            .collect();
        assert_eq!(callees, vec!["cce_core::demo::A::step"]);
    }

    #[test]
    fn local_receivers_resolve_to_all_candidates() {
        let (ws, cg) = graph(
            "
impl A { fn flush(&self) {} }
impl B { fn flush(&self) {} }
fn driver(lane: A) { lane.flush(); }
",
        );
        let driver = fn_id(&ws, "driver");
        assert_eq!(
            cg.edges[driver].len(),
            2,
            "both flush methods are candidates"
        );
        assert_eq!(cg.sites[driver][0].recv, ReceiverKind::Local);
    }

    #[test]
    fn turbofish_calls_are_sites_not_derailments() {
        let (ws, cg) = graph(
            "
fn parse<T>() -> Option<T> { None }
fn run() { let _: Option<Vec<u8>> = parse::<Vec<u8>>(); helper(); }
fn helper() {}
",
        );
        let run = fn_id(&ws, "run");
        let callees: Vec<&str> = cg.sites[run].iter().map(|s| s.callee.as_str()).collect();
        assert_eq!(callees, vec!["parse", "helper"]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (ws, cg) = graph(
            "
fn run(x: bool) { if x { } assert!(x); vec![1]; match x { _ => {} } }
",
        );
        let run = fn_id(&ws, "run");
        assert!(cg.sites[run].is_empty(), "{:?}", cg.sites[run]);
    }

    #[test]
    fn shortest_path_is_reported_hop_by_hop() {
        let (ws, cg) = graph(
            "
fn a() { b(); }
fn b() { c(); }
fn c() {}
fn a2() { c(); }
",
        );
        let (a, c) = (fn_id(&ws, "a"), fn_id(&ws, "c"));
        let hops = cg.path_to(a, c, |_, _| true).expect("reachable");
        assert_eq!(hops.len(), 2, "a -> b -> c");
        assert_eq!(hops[0].0, a);
        assert!(cg.path_to(c, a, |_, _| true).is_none(), "direction matters");
        assert_eq!(cg.path_to(a, a, |_, _| true), Some(Vec::new()));
    }

    #[test]
    fn self_field_receivers_are_tagged() {
        let (ws, cg) = graph(
            "
impl Session { fn access(&self) { self.inner.access_for(); } }
impl Cache { fn access_for(&self) {} }
",
        );
        let access = fn_id(&ws, "access");
        assert_eq!(cg.sites[access][0].recv, ReceiverKind::SelfField);
        assert_eq!(cg.sites[access][0].qualifier.as_deref(), Some("inner"));
        assert_eq!(
            cg.edges[access].len(),
            1,
            "still resolved in the full graph"
        );
    }
}
