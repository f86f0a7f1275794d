//! A comment/string/raw-string-aware Rust lexer.
//!
//! The offline build environment cannot fetch `syn`, so the analyzer
//! carries its own token scanner. It does **not** parse Rust — it
//! produces a flat token stream with line numbers, which is exactly
//! enough for the repo-specific pattern lints in [`crate::lints`]. The
//! properties the lints rely on:
//!
//! * comment text (line, block, doc, nested block) never becomes tokens,
//!   so code quoted in doc examples cannot trigger findings;
//! * string/char/byte/raw-string literals become single tokens carrying
//!   their body, so `.iter()` inside a message string is not a method
//!   call;
//! * `// cce-analyze: allow(<lint>): <reason>` annotations are collected
//!   during the scan with their line numbers.

/// Token classes the lints distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `in`, `HashMap`, …).
    Ident,
    /// Numeric literal, verbatim (`2.77`, `0x1F`, `1_000u64`).
    Number,
    /// String literal — `text` holds the raw body without quotes.
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Punctuation; multi-char operators `::`, `=>`, `->`, `..`, `..=`
    /// are single tokens, everything else is one char.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokKind,
    /// Verbatim text (string bodies exclude the delimiters).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier/keyword `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A `// cce-analyze: allow(<lint>): <reason>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment sits on (suppresses findings on this
    /// line and the next).
    pub line: u32,
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// The justification after the closing `):`. Annotations with an
    /// empty reason are inert — the lint still fires.
    pub reason: String,
}

/// Lexer output: the token stream plus any allow-annotations seen.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Allow-annotations in source order.
    pub allows: Vec<Allow>,
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Scanner<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.pos < self.src.len() && pred(self.peek(0)) {
            self.bump();
        }
        self.pos - start
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, returning the token stream and allow-annotations.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    while s.pos < s.src.len() {
        let line = s.line;
        let b = s.peek(0);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                s.bump();
            }
            b'/' if s.peek(1) == b'/' => {
                let start = s.pos;
                s.eat_while(|c| c != b'\n');
                let text = std::str::from_utf8(&s.src[start..s.pos]).unwrap_or("");
                if let Some(allow) = parse_allow(text, line) {
                    out.allows.push(allow);
                }
            }
            b'/' if s.peek(1) == b'*' => {
                // Nested block comment.
                s.bump();
                s.bump();
                let mut depth = 1u32;
                while depth > 0 && s.pos < s.src.len() {
                    if s.peek(0) == b'/' && s.peek(1) == b'*' {
                        s.bump();
                        s.bump();
                        depth += 1;
                    } else if s.peek(0) == b'*' && s.peek(1) == b'/' {
                        s.bump();
                        s.bump();
                        depth -= 1;
                    } else {
                        s.bump();
                    }
                }
            }
            b'"' => {
                let text = scan_string(&mut s);
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text,
                    line,
                });
            }
            b'\'' => scan_quote(&mut s, &mut out, line),
            b'r' | b'b' if starts_literal_prefix(&s) => {
                scan_prefixed_literal(&mut s, &mut out, line)
            }
            // Raw identifier `r#ident`: one Ident token carrying the
            // `r#` prefix verbatim, so `r#fn` can never be mistaken for
            // the `fn` keyword nor its `#` for an attribute opener.
            b'r' if s.peek(1) == b'#' && is_ident_start(s.peek(2)) => {
                let start = s.pos;
                s.bump();
                s.bump();
                s.eat_while(is_ident_cont);
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                    line,
                });
            }
            _ if is_ident_start(b) => {
                let start = s.pos;
                s.eat_while(is_ident_cont);
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                    line,
                });
            }
            _ if b.is_ascii_digit() => {
                let text = scan_number(&mut s);
                out.tokens.push(Token {
                    kind: TokKind::Number,
                    text,
                    line,
                });
            }
            _ => {
                let text = scan_punct(&mut s);
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

/// True at `r`/`b` when what follows makes this a literal prefix rather
/// than a plain identifier: `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`.
/// (`r#ident` is a raw identifier, not a raw string.)
fn starts_literal_prefix(s: &Scanner<'_>) -> bool {
    let (first, mut at) = (s.peek(0), 1);
    if first == b'b' && s.peek(1) == b'r' {
        at = 2;
    }
    match s.peek(at) {
        b'"' => true,
        b'\'' => first == b'b' && at == 1,
        b'#' => {
            // Raw string needs hashes then a quote; `r#ident` does not.
            let mut k = at;
            while s.peek(k) == b'#' {
                k += 1;
            }
            s.peek(k) == b'"' && (first == b'r' || at == 2)
        }
        _ => false,
    }
}

fn scan_prefixed_literal(s: &mut Scanner<'_>, out: &mut Lexed, line: u32) {
    let first = s.bump(); // r or b
    let raw = first == b'r' || s.peek(0) == b'r';
    if first == b'b' && s.peek(0) == b'r' {
        s.bump();
    }
    if raw {
        let mut hashes = 0usize;
        while s.peek(0) == b'#' {
            s.bump();
            hashes += 1;
        }
        s.bump(); // opening quote
        let start = s.pos;
        let end;
        loop {
            if s.pos >= s.src.len() {
                end = s.pos;
                break;
            }
            if s.peek(0) == b'"' {
                let mut k = 1;
                while k <= hashes && s.peek(k) == b'#' {
                    k += 1;
                }
                if k == hashes + 1 {
                    end = s.pos;
                    s.bump(); // quote
                    for _ in 0..hashes {
                        s.bump();
                    }
                    break;
                }
            }
            s.bump();
        }
        out.tokens.push(Token {
            kind: TokKind::Str,
            text: String::from_utf8_lossy(&s.src[start..end]).into_owned(),
            line,
        });
    } else if s.peek(0) == b'\'' {
        scan_quote(s, out, line);
    } else {
        let text = scan_string(s);
        out.tokens.push(Token {
            kind: TokKind::Str,
            text,
            line,
        });
    }
}

/// Scans a `"…"` string (cursor on the opening quote); returns the body.
fn scan_string(s: &mut Scanner<'_>) -> String {
    s.bump(); // opening quote
    let start = s.pos;
    while s.pos < s.src.len() {
        match s.peek(0) {
            b'\\' => {
                s.bump();
                s.bump();
            }
            b'"' => break,
            _ => {
                s.bump();
            }
        }
    }
    let body = String::from_utf8_lossy(&s.src[start..s.pos]).into_owned();
    s.bump(); // closing quote
    body
}

/// Scans at a `'`: either a lifetime/label or a char literal.
fn scan_quote(s: &mut Scanner<'_>, out: &mut Lexed, line: u32) {
    s.bump(); // the quote
    if s.peek(0) == b'\\' {
        // Escaped char literal: '\n', '\'', '\x41', '\u{1F600}', …
        s.bump();
        match s.peek(0) {
            // Unicode escape: consume `u{…}` wholesale.
            b'u' if s.peek(1) == b'{' => {
                s.bump(); // u
                while s.pos < s.src.len() && s.peek(0) != b'}' {
                    s.bump();
                }
                s.bump(); // closing brace
            }
            // Hex escape (`'\x7f'`, `b'\xFF'`): the digits after `x`
            // used to leak out as a number token plus a stray quote,
            // desyncing every token range after the literal.
            b'x' => {
                s.bump(); // x
                s.eat_while(|c| c.is_ascii_hexdigit());
            }
            // Single-char escapes: \n \t \r \\ \' \" \0.
            _ => {
                s.bump();
            }
        }
        if s.peek(0) == b'\'' {
            s.bump();
        }
        out.tokens.push(Token {
            kind: TokKind::Char,
            text: String::new(),
            line,
        });
        return;
    }
    if is_ident_start(s.peek(0)) {
        // Could be 'a' (char) or 'a / 'static (lifetime): a lifetime's
        // identifier run is not followed by a closing quote.
        let start = s.pos;
        s.eat_while(is_ident_cont);
        if s.peek(0) == b'\'' {
            s.bump();
            out.tokens.push(Token {
                kind: TokKind::Char,
                text: String::from_utf8_lossy(&s.src[start..s.pos - 1]).into_owned(),
                line,
            });
        } else {
            out.tokens.push(Token {
                kind: TokKind::Lifetime,
                text: String::from_utf8_lossy(&s.src[start..s.pos]).into_owned(),
                line,
            });
        }
        return;
    }
    // Punctuation char literal: '(', ' ', …
    s.bump();
    if s.peek(0) == b'\'' {
        s.bump();
    }
    out.tokens.push(Token {
        kind: TokKind::Char,
        text: String::new(),
        line,
    });
}

fn scan_number(s: &mut Scanner<'_>) -> String {
    let start = s.pos;
    if s.peek(0) == b'0' && matches!(s.peek(1), b'x' | b'o' | b'b') {
        s.bump();
        s.bump();
        s.eat_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        return String::from_utf8_lossy(&s.src[start..s.pos]).into_owned();
    }
    s.eat_while(|c| c.is_ascii_digit() || c == b'_');
    // Fraction: only when the dot is followed by a digit (so `0..n`
    // ranges and `tuple.0` stay separate tokens).
    if s.peek(0) == b'.' && s.peek(1).is_ascii_digit() {
        s.bump();
        s.eat_while(|c| c.is_ascii_digit() || c == b'_');
    }
    // Exponent.
    if matches!(s.peek(0), b'e' | b'E')
        && (s.peek(1).is_ascii_digit()
            || (matches!(s.peek(1), b'+' | b'-') && s.peek(2).is_ascii_digit()))
    {
        s.bump();
        if matches!(s.peek(0), b'+' | b'-') {
            s.bump();
        }
        s.eat_while(|c| c.is_ascii_digit() || c == b'_');
    }
    // Type suffix (u64, f32, usize, …).
    s.eat_while(|c| c.is_ascii_alphanumeric());
    String::from_utf8_lossy(&s.src[start..s.pos]).into_owned()
}

fn scan_punct(s: &mut Scanner<'_>) -> String {
    let b = s.bump();
    let two = (b, s.peek(0));
    match two {
        (b':', b':') | (b'=', b'>') | (b'-', b'>') => {
            s.bump();
            format!("{}{}", b as char, two.1 as char)
        }
        (b'.', b'.') => {
            s.bump();
            if s.peek(0) == b'=' {
                s.bump();
                "..=".to_owned()
            } else {
                "..".to_owned()
            }
        }
        _ => (b as char).to_string(),
    }
}

/// Parses an allow-annotation out of one line comment's text.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let rest = comment.split("cce-analyze:").nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map_or("", str::trim).to_string();
    Some(Allow { line, lint, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        let src = "// x.unwrap()\n/* panic! /* nested */ still comment */ let a = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a"]);
    }

    #[test]
    fn raw_strings_swallow_quotes_and_slashes() {
        let lexed = lex(r####"let s = r#"quote " and // not a comment"#; x.iter()"####);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "quote \" and // not a comment");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("iter")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "a");
    }

    #[test]
    fn numbers_ranges_and_suffixes() {
        let lexed = lex("for i in 0..6u32 { let x = 2.77; let y = 1_000f64; t.0 += 1e-3; }");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "6u32", "2.77", "1_000f64", "0", "1e-3"]);
    }

    #[test]
    fn allow_annotations_are_collected() {
        let src = "\n// cce-analyze: allow(nondet-taint): order-independent sum\nlet x = 1;\n// cce-analyze: allow(nondet-taint)\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].line, 2);
        assert_eq!(lexed.allows[0].lint, "nondet-taint");
        assert_eq!(lexed.allows[0].reason, "order-independent sum");
        assert_eq!(lexed.allows[1].reason, "", "missing reason is inert");
    }

    #[test]
    fn raw_identifiers_are_single_tokens() {
        // `r#fn` used to lex as `r`, `#`, `fn` — a phantom attribute
        // opener plus a phantom keyword, which poisons item parsing.
        let lexed = lex("fn r#fn(r#type: u32) -> u32 { r#match(r#type) }");
        let ids = idents("fn r#fn(r#type: u32) -> u32 { r#match(r#type) }");
        assert_eq!(
            ids,
            vec!["fn", "r#fn", "r#type", "u32", "u32", "r#match", "r#type"]
        );
        assert!(
            !lexed.tokens.iter().any(|t| t.is_punct("#")),
            "no stray `#` from raw identifiers: {:?}",
            lexed.tokens
        );
        // Raw strings keep working next to raw identifiers.
        let lexed = lex(r####"let r#x = r#"body"#;"####);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "body");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("r#x")));
    }

    #[test]
    fn nested_turbofish_tokens_stay_separate() {
        // Nested generic closers must remain individual `>` puncts (no
        // `>>` shift fusing) and `::` must fuse, or the symbol layer's
        // angle-depth tracking would desynchronize.
        let lexed = lex("x.collect::<HashMap<u64, Vec<u64>>>();");
        let puncts: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            puncts,
            vec![".", "::", "<", "<", ",", "<", ">", ">", ">", "(", ")", ";"]
        );
    }

    #[test]
    fn raw_ident_does_not_shadow_byte_literals() {
        assert_eq!(idents("let b = b'x';"), vec!["let", "b"]);
        assert_eq!(idents("let v = br#\"s\"#;"), vec!["let", "v"]);
    }

    #[test]
    fn hex_escapes_do_not_desync_token_ranges() {
        // `'\x41'` used to leak `41'` as a number plus a stray quote,
        // corrupting every token after the literal.
        let lexed = lex("let del = '\\x7f'; let nul = b'\\x00'; let rest = value;");
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 2, "{:?}", lexed.tokens);
        assert!(
            lexed.tokens.iter().any(|t| t.is_ident("value")),
            "code after the literals still lexes: {:?}",
            lexed.tokens
        );
        assert!(
            !lexed.tokens.iter().any(|t| t.kind == TokKind::Number),
            "no escape digits leak as numbers: {:?}",
            lexed.tokens
        );
    }

    #[test]
    fn full_escape_set_in_char_and_byte_literals() {
        let src = r"let a = '\n'; let b = '\\'; let c = '\''; let d = '\0';
let e = '\u{1F600}'; let f = b'\xFF'; let g = '\t'; let tail = done;";
        let lexed = lex(src);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 7, "{:?}", lexed.tokens);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
        assert!(
            !lexed.tokens.iter().any(|t| t.kind == TokKind::Lifetime),
            "no literal is misread as a lifetime: {:?}",
            lexed.tokens
        );
    }

    #[test]
    fn deeply_nested_block_comments_close_correctly() {
        let src = "/* a /* b /* c */ b */ a */ let x = 1; /* /**/ */ let y = 2;";
        assert_eq!(idents(src), vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn multichar_puncts_fuse() {
        let lexed = lex("a::b => c -> d ..= e .. f");
        let puncts: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["::", "=>", "->", "..=", ".."]);
    }
}
