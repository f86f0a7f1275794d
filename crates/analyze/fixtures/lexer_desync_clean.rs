//! Clean regression fixture for lexer desync: nested block comments
//! and the full escape set in char/byte literals. If the lexer loses
//! track of a literal boundary, the trap strings below leak their
//! contents as real tokens and a lint fires, failing the clean check.

/* outer /* inner /* deepest */ still inner */ still outer */

fn escapes() -> char {
    let _tab = '\t';
    let _newline = '\n';
    let _return = '\r';
    let _nul = '\0';
    let _quote = '\'';
    let _backslash = '\\';
    let hex = '\x7f';
    let _byte_nul = b'\x00';
    let _byte_max = b'\xFF';
    let _uni = '\u{1F600}';
    let _uni_short = '\u{7e}';
    // If any literal above desynced the lexer, these strings would
    // terminate early and leak nondet-taint bait as real code tokens
    // inside a sink.
    let _trap = "literal text: Instant::now() stays inside this string";
    let _trap2 = "still a string: \"map.iter()\" and available_parallelism()";
    hex
}

/// A sink: any source token that leaked into its body would be flagged.
pub fn sink(sink: &mut dyn EventSink) -> char {
    let _trap = "a sink's string: Instant::now(), std::thread::available_parallelism()";
    sink.on_char(escapes());
    escapes()
}

fn comments_stay_comments() -> u32 {
    /* a /* nested */ comment with an apostrophe: don't desync */
    /* /**/ */
    0
}
