//! Intraprocedural control-flow graphs over lexer token ranges.
//!
//! Built from a function's body token range (see
//! [`crate::symbols::FnDef::body`]) without parsing expressions: the
//! builder recognizes just the statement-level control constructs the
//! path-sensitive lints need — nested blocks, `if`/`else` chains,
//! `match` arms, the three loops with `break`/`continue` (labels
//! included), early `return`, `?` error edges, and the diverging
//! macros (`panic!`, `unreachable!`, `todo!`, `unimplemented!`).
//! Everything else inside a statement is opaque: a statement is one
//! [`NodeKind::Stmt`] node spanning its tokens.
//!
//! Structural invariants, fuzz-tested in `tests/cfg_golden.rs`:
//!
//! * node 0 is the single [`NodeKind::Entry`], node 1 the single
//!   [`NodeKind::Exit`] sink;
//! * every node except the sink has at least one successor (all exits
//!   reach the sink — unreachable code after `return`/`break` is
//!   parsed but produces no nodes);
//! * every node is reachable from the entry.
//!
//! The graph feeds the worklist solvers in [`crate::dataflow`]
//! (event-typestate, cost-units).

use crate::lexer::{TokKind, Token};

/// Index of the entry node in [`Cfg::nodes`].
pub const ENTRY: usize = 0;
/// Index of the exit sink in [`Cfg::nodes`].
pub const EXIT: usize = 1;

/// What a CFG node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique function entry (no tokens).
    Entry,
    /// The unique exit sink every return/fall-off/`?` edge reaches.
    Exit,
    /// One straight-line statement (or expression-statement).
    Stmt,
    /// An `if`/`match` condition or scrutinee; successors are the
    /// branch entries (plus the fall-through for an `if` with no
    /// `else`).
    Cond,
    /// A loop header; the back edge from the body returns here.
    Loop,
}

/// One CFG node: a kind, the half-open token span it covers, and its
/// successor edges.
#[derive(Debug)]
pub struct Node {
    /// The node kind.
    pub kind: NodeKind,
    /// Half-open token range `[start, end)` in the file's stream;
    /// empty for entry/exit.
    pub span: (usize, usize),
    /// 1-based source line of the span's first token (0 for
    /// entry/exit).
    pub line: u32,
    /// Successor node indices.
    pub succs: Vec<usize>,
}

/// A function's control-flow graph.
#[derive(Debug)]
pub struct Cfg {
    /// Nodes in creation order; `nodes[ENTRY]`/`nodes[EXIT]` are the
    /// unique source and sink.
    pub nodes: Vec<Node>,
}

/// Macros whose statement never falls through.
const DIVERGING_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

struct LoopCtx {
    label: Option<String>,
    head: usize,
    /// Nodes that `break` out of this loop; they become the loop
    /// construct's fall-through ends.
    breaks: Vec<usize>,
}

struct Builder<'a> {
    tokens: &'a [Token],
    nodes: Vec<Node>,
    loops: Vec<LoopCtx>,
}

impl Cfg {
    /// Builds the CFG for a body token range *including* its braces
    /// (the [`crate::symbols::FnDef::body`] convention). An empty
    /// range yields the trivial `Entry → Exit` graph.
    #[must_use]
    pub fn build(tokens: &[Token], body: (usize, usize)) -> Cfg {
        let mut b = Builder {
            tokens,
            nodes: vec![
                Node {
                    kind: NodeKind::Entry,
                    span: (0, 0),
                    line: 0,
                    succs: Vec::new(),
                },
                Node {
                    kind: NodeKind::Exit,
                    span: (0, 0),
                    line: 0,
                    succs: Vec::new(),
                },
            ],
            loops: Vec::new(),
        };
        let end = body.1.min(tokens.len());
        if body.0 + 1 < end {
            let ends = b.block(body.0 + 1, end - 1, vec![ENTRY]);
            for e in ends {
                b.edge(e, EXIT);
            }
        } else {
            b.edge(ENTRY, EXIT);
        }
        Cfg { nodes: b.nodes }
    }

    /// The non-entry/exit node whose span contains token index `tok`.
    #[must_use]
    pub fn node_at(&self, tok: usize) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.kind != NodeKind::Entry
                && n.kind != NodeKind::Exit
                && n.span.0 <= tok
                && tok < n.span.1
        })
    }

    /// Predecessor lists, derived from the successor edges.
    #[must_use]
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &s in &n.succs {
                preds[s].push(i);
            }
        }
        preds
    }

    /// A stable text rendering for golden tests: one line per node,
    /// `n<i> <Kind>[@L<line>] -> n<succ>,…`.
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(out, "n{i} {:?}", n.kind);
            if n.line > 0 {
                let _ = write!(out, "@L{}", n.line);
            }
            if !n.succs.is_empty() {
                let list: Vec<String> = n.succs.iter().map(|s| format!("n{s}")).collect();
                let _ = write!(out, " -> {}", list.join(","));
            }
            out.push('\n');
        }
        out
    }
}

impl Builder<'_> {
    fn edge(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    fn node(&mut self, kind: NodeKind, span: (usize, usize), preds: &[usize]) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            kind,
            span,
            line: self.tokens.get(span.0).map_or(0, |t| t.line),
            succs: Vec::new(),
        });
        for &p in preds {
            self.edge(p, id);
        }
        id
    }

    /// Skips a balanced delimiter group; `at` must be the opener.
    /// Returns the index just past the matching closer (clamped).
    fn skip_group(&self, at: usize, end: usize) -> usize {
        let open = self.tokens[at].text.clone();
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        let mut depth = 0usize;
        let mut i = at;
        while i < end {
            if self.tokens[i].is_punct(&open) {
                depth += 1;
            } else if self.tokens[i].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// Finds the next `{` at group depth 0 in `[from, end)` — the body
    /// opener of an `if`/`match`/loop header. Parens and brackets are
    /// skipped as groups so closure braces inside arguments cannot
    /// fool it.
    fn find_body_brace(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct("{") {
                return Some(i);
            }
            if t.is_punct("(") || t.is_punct("[") {
                i = self.skip_group(i, end);
                continue;
            }
            if t.is_punct(";") || t.is_punct("}") {
                return None;
            }
            i += 1;
        }
        None
    }

    /// Lowers the statements of `[start, end)` (a block body without
    /// its braces). `preds` are the nodes flowing in; the return value
    /// is the set of nodes that fall through out of the block. An
    /// empty `preds` means the code is unreachable: it is still parsed
    /// (token consumption must not desync) but produces no nodes.
    fn block(&mut self, start: usize, end: usize, mut preds: Vec<usize>) -> Vec<usize> {
        let end = end.min(self.tokens.len());
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct(";") || t.is_punct(",") {
                i += 1;
                continue;
            }
            if t.is_punct("{") {
                let close = self.skip_group(i, end);
                preds = self.block(i + 1, close.saturating_sub(1), preds);
                i = close;
                continue;
            }
            // Labeled loop: `'name : loop { … }`.
            if t.kind == TokKind::Lifetime
                && self.tokens.get(i + 1).is_some_and(|n| n.is_punct(":"))
                && self
                    .tokens
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("loop") || n.is_ident("while") || n.is_ident("for"))
            {
                let label = Some(t.text.clone());
                let (ends, next) = self.lower_loop(i + 2, end, label, std::mem::take(&mut preds));
                preds = ends;
                i = next;
                continue;
            }
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        let (ends, next) = self.lower_if(i, end, std::mem::take(&mut preds));
                        preds = ends;
                        i = next;
                        continue;
                    }
                    "match" => {
                        let (ends, next) = self.lower_match(i, end, std::mem::take(&mut preds));
                        preds = ends;
                        i = next;
                        continue;
                    }
                    "loop" | "while" | "for" => {
                        let (ends, next) =
                            self.lower_loop(i, end, None, std::mem::take(&mut preds));
                        preds = ends;
                        i = next;
                        continue;
                    }
                    _ => {}
                }
            }
            // Plain statement.
            let (ends, next) = self.lower_stmt(i, end, std::mem::take(&mut preds));
            preds = ends;
            i = next.max(i + 1);
        }
        preds
    }

    /// One opaque statement: scan to the `;` at depth 0 (groups are
    /// skipped whole), recognizing `return`, `break`, `continue`,
    /// diverging macros, and `?` error edges along the way.
    fn lower_stmt(&mut self, start: usize, end: usize, preds: Vec<usize>) -> (Vec<usize>, usize) {
        let mut i = start;
        let mut terminator: Option<(&'static str, Option<String>)> = None;
        let mut has_try = false;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct(";") {
                i += 1;
                break;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                i = self.skip_group(i, end);
                continue;
            }
            if t.is_punct("}") || t.is_punct(",") {
                // End of the surrounding block / match arm.
                break;
            }
            if t.is_punct("?") {
                has_try = true;
            } else if t.kind == TokKind::Ident && terminator.is_none() {
                match t.text.as_str() {
                    "return" => terminator = Some(("return", None)),
                    "break" | "continue" => {
                        let label = self
                            .tokens
                            .get(i + 1)
                            .filter(|n| n.kind == TokKind::Lifetime)
                            .map(|n| n.text.clone());
                        let kind = if t.text == "break" {
                            "break"
                        } else {
                            "continue"
                        };
                        terminator = Some((kind, label));
                    }
                    name if DIVERGING_MACROS.contains(&name)
                        && self.tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
                    {
                        terminator = Some(("diverge", None));
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if preds.is_empty() {
            return (Vec::new(), i); // unreachable: parse, emit nothing
        }
        let node = self.node(NodeKind::Stmt, (start, i.max(start + 1)), &preds);
        if has_try {
            self.edge(node, EXIT);
        }
        match terminator {
            Some(("return" | "diverge", _)) => {
                self.edge(node, EXIT);
                (Vec::new(), i)
            }
            Some(("break", label)) => {
                if let Some(target) = self.loop_target(label.as_deref()) {
                    let breaks = &mut self.loops[target].breaks;
                    breaks.push(node);
                } else {
                    self.edge(node, EXIT); // stray break: treat as exit
                }
                (Vec::new(), i)
            }
            Some(("continue", label)) => {
                if let Some(target) = self.loop_target(label.as_deref()) {
                    let head = self.loops[target].head;
                    self.edge(node, head);
                } else {
                    self.edge(node, EXIT);
                }
                (Vec::new(), i)
            }
            _ => (vec![node], i),
        }
    }

    fn loop_target(&self, label: Option<&str>) -> Option<usize> {
        match label {
            Some(l) => self
                .loops
                .iter()
                .rposition(|c| c.label.as_deref() == Some(l)),
            None => self.loops.len().checked_sub(1),
        }
    }

    /// `if cond { … } [else if … ]* [else { … }]`; `start` is at `if`.
    fn lower_if(&mut self, start: usize, end: usize, preds: Vec<usize>) -> (Vec<usize>, usize) {
        let Some(brace) = self.find_body_brace(start + 1, end) else {
            // Malformed (token soup): degrade to an opaque statement.
            return self.lower_stmt(start, end, preds);
        };
        let close = self.skip_group(brace, end);
        if preds.is_empty() {
            // Unreachable: still parse the arms for token consumption.
            self.block(brace + 1, close.saturating_sub(1), Vec::new());
            let (_, next, _) = self.lower_else(close, end, Vec::new());
            return (Vec::new(), next.max(close));
        }
        let cond = self.node(NodeKind::Cond, (start, brace), &preds);
        if self.span_has_try(start, brace) {
            self.edge(cond, EXIT);
        }
        let mut ends = self.block(brace + 1, close.saturating_sub(1), vec![cond]);
        let (else_ends, next, had_else) = self.lower_else(close, end, vec![cond]);
        if had_else {
            ends.extend(else_ends);
        } else {
            ends.push(cond); // condition false falls through
        }
        (ends, next.max(close))
    }

    /// Handles the `else`/`else if` chain after an if-body close.
    /// Returns `(ends, next index, had_else)` — with `preds` empty the
    /// arms are parsed but emit nothing.
    fn lower_else(
        &mut self,
        close: usize,
        end: usize,
        preds: Vec<usize>,
    ) -> (Vec<usize>, usize, bool) {
        if close >= end || !self.tokens.get(close).is_some_and(|t| t.is_ident("else")) {
            return (Vec::new(), close, false);
        }
        if self.tokens.get(close + 1).is_some_and(|t| t.is_ident("if")) {
            let (ends, next) = self.lower_if(close + 1, end, preds);
            return (ends, next, true);
        }
        if self.tokens.get(close + 1).is_some_and(|t| t.is_punct("{")) {
            let ec = self.skip_group(close + 1, end);
            let ends = self.block(close + 2, ec.saturating_sub(1), preds);
            return (ends, ec, true);
        }
        (Vec::new(), close + 1, false)
    }

    /// `match scrut { pat => body, … }`; `start` is at `match`.
    fn lower_match(&mut self, start: usize, end: usize, preds: Vec<usize>) -> (Vec<usize>, usize) {
        let Some(brace) = self.find_body_brace(start + 1, end) else {
            return self.lower_stmt(start, end, preds);
        };
        let close = self.skip_group(brace, end);
        let unreachable = preds.is_empty();
        let cond = if unreachable {
            ENTRY // placeholder, never used for edges below
        } else {
            self.node(NodeKind::Cond, (start, brace), &preds)
        };
        if !unreachable && self.span_has_try(start, brace) {
            self.edge(cond, EXIT);
        }
        let mut ends = Vec::new();
        let inner_end = close.saturating_sub(1);
        let mut i = brace + 1;
        let mut any_arm = false;
        while i < inner_end {
            // Pattern: scan to `=>` at depth 0.
            let mut j = i;
            let mut found = false;
            while j < inner_end {
                let t = &self.tokens[j];
                if t.is_punct("=>") {
                    found = true;
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    j = self.skip_group(j, inner_end);
                    continue;
                }
                j += 1;
            }
            if !found {
                break;
            }
            any_arm = true;
            let arm_preds = if unreachable { Vec::new() } else { vec![cond] };
            let body_start = j + 1;
            if self.tokens.get(body_start).is_some_and(|t| t.is_punct("{")) {
                let bc = self.skip_group(body_start, inner_end.max(body_start));
                let arm_ends = self.block(body_start + 1, bc.saturating_sub(1), arm_preds);
                ends.extend(arm_ends);
                i = bc;
            } else {
                // Expression arm: one statement ending at the top-level
                // `,` (or the match close).
                let (arm_ends, next) = self.lower_stmt(body_start, inner_end, arm_preds);
                ends.extend(arm_ends);
                i = next.max(body_start + 1);
            }
            while i < inner_end && self.tokens[i].is_punct(",") {
                i += 1;
            }
        }
        if unreachable {
            return (Vec::new(), close);
        }
        if !any_arm {
            ends.push(cond); // `match x {}` or opaque body
        }
        (ends, close)
    }

    /// `loop`/`while`/`for` with an optional label; `start` is at the
    /// loop keyword.
    fn lower_loop(
        &mut self,
        start: usize,
        end: usize,
        label: Option<String>,
        preds: Vec<usize>,
    ) -> (Vec<usize>, usize) {
        let Some(brace) = self.find_body_brace(start + 1, end) else {
            return self.lower_stmt(start, end, preds);
        };
        let close = self.skip_group(brace, end);
        if preds.is_empty() {
            self.loops.push(LoopCtx {
                label,
                head: ENTRY,
                breaks: Vec::new(),
            });
            self.block(brace + 1, close.saturating_sub(1), Vec::new());
            self.loops.pop();
            return (Vec::new(), close);
        }
        let conditional =
            self.tokens[start].is_ident("while") || self.tokens[start].is_ident("for");
        let head = self.node(NodeKind::Loop, (start, brace.max(start + 1)), &preds);
        if self.span_has_try(start, brace) {
            self.edge(head, EXIT);
        }
        self.loops.push(LoopCtx {
            label,
            head,
            breaks: Vec::new(),
        });
        let body_ends = self.block(brace + 1, close.saturating_sub(1), vec![head]);
        for e in body_ends {
            self.edge(e, head); // back edge
        }
        let ctx = self.loops.pop().unwrap_or(LoopCtx {
            label: None,
            head,
            breaks: Vec::new(),
        });
        let mut ends = ctx.breaks;
        if conditional {
            ends.push(head); // condition false / iterator exhausted
        }
        (ends, close)
    }

    /// True when `[start, end)` contains a `?` at group depth 0.
    fn span_has_try(&self, start: usize, end: usize) -> bool {
        let mut i = start;
        while i < end.min(self.tokens.len()) {
            let t = &self.tokens[i];
            if t.is_punct("?") {
                return true;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                i = self.skip_group(i, end);
                continue;
            }
            i += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(src: &str) -> Cfg {
        let lexed = lex(src);
        Cfg::build(&lexed.tokens, (0, lexed.tokens.len()))
    }

    fn reachable(cfg: &Cfg) -> Vec<bool> {
        let mut seen = vec![false; cfg.nodes.len()];
        let mut stack = vec![ENTRY];
        seen[ENTRY] = true;
        while let Some(n) = stack.pop() {
            for &s in &cfg.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    #[test]
    fn empty_body_is_entry_to_exit() {
        let cfg = build("{}");
        assert_eq!(cfg.nodes.len(), 2);
        assert_eq!(cfg.nodes[ENTRY].succs, vec![EXIT]);
    }

    #[test]
    fn straight_line_chains() {
        let cfg = build("{ a(); b(); c(); }");
        assert_eq!(cfg.nodes.len(), 5);
        assert!(reachable(&cfg).iter().all(|&r| r));
        assert_eq!(cfg.nodes[4].succs, vec![EXIT]);
    }

    #[test]
    fn if_without_else_falls_through_the_condition() {
        let cfg = build("{ if x { a(); } b(); }");
        // entry, exit, cond, a-stmt, b-stmt
        assert_eq!(cfg.nodes.len(), 5);
        let cond = 2;
        assert_eq!(cfg.nodes[cond].kind, NodeKind::Cond);
        assert!(cfg.nodes[cond].succs.contains(&3), "then branch");
        assert!(cfg.nodes[cond].succs.contains(&4), "fall-through");
    }

    #[test]
    fn return_and_break_produce_no_fall_through() {
        let cfg = build("{ loop { if x { break; } if y { return; } a(); } b(); }");
        assert!(reachable(&cfg).iter().all(|&r| r), "{}", cfg.dump());
        for (i, n) in cfg.nodes.iter().enumerate() {
            assert!(
                i == EXIT || !n.succs.is_empty(),
                "node {i} dangles: {}",
                cfg.dump()
            );
        }
    }

    #[test]
    fn unreachable_code_after_return_emits_no_nodes() {
        let with_dead = build("{ return; a(); b(); }");
        let without = build("{ return; }");
        assert_eq!(with_dead.nodes.len(), without.nodes.len());
    }

    #[test]
    fn try_operator_adds_an_exit_edge() {
        let cfg = build("{ let x = f()?; g(x); }");
        let stmt = cfg.node_at(2).expect("statement node");
        assert!(cfg.nodes[stmt].succs.contains(&EXIT), "{}", cfg.dump());
        assert_eq!(cfg.nodes[stmt].succs.len(), 2, "also falls through");
    }

    #[test]
    fn labeled_break_targets_the_outer_loop() {
        let cfg = build("{ 'outer: loop { loop { break 'outer; } } done(); }");
        assert!(reachable(&cfg).iter().all(|&r| r), "{}", cfg.dump());
        // The done() statement is reachable only through the labeled
        // break — an unlabeled break would leave it dead.
        let done = cfg
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Stmt && n.succs == vec![EXIT])
            .expect("done stmt");
        assert!(reachable(&cfg)[done]);
    }
}
