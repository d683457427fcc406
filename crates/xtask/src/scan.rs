//! Token-level source model for the `xtask check` passes.
//!
//! The driver deliberately carries its own lexer: no `syn`, no parsing
//! crates, so it builds instantly offline and survives rustc syntax it
//! has never seen. Unlike the line-regex scanner it replaced, this is a
//! real Rust lexer — comments (line, doc, nested block), string
//! literals (plain, raw `r#"…"#`, byte), char literals vs lifetimes and
//! numeric literals are tokenized correctly, so a pass matching
//! `.unwrap()` can never fire on prose inside a doc comment or a string.
//! On top of the raw token stream a context pass tracks brace depth,
//! `#[cfg(test)]` / `#[test]` regions (mod *and* fn granularity),
//! enclosing-loop depth and `fn` boundaries, and stamps each token with
//! all four. Every pass is still a heuristic — anything it gets wrong
//! can be waived inline (`// lint:allow(<id>): reason`).

use std::fs;
use std::path::{Path, PathBuf};

/// Lexical class of one token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// String literal (`"…"`, `b"…"`); `text` is the unquoted content.
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `br"…"`); `text` is the
    /// content between the quotes.
    RawStr,
    /// Char or byte-char literal (`'x'`, `b'\n'`); `text` is the content.
    Char,
    /// Numeric literal including any suffix (`42`, `0.0f32`, `0x1F`).
    Num,
    /// One punctuation character; `text` is that character.
    Punct,
}

/// One lexed token plus the structural context it sits in.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    pub(crate) text: String,
    /// 0-based line index.
    pub(crate) line: usize,
    /// Brace depth: `{` carries the depth *outside* the block it opens,
    /// `}` the depth outside the block it closes, so a fn body's interior
    /// tokens all sit one deeper than its braces.
    pub(crate) depth: usize,
    /// Inside a `#[cfg(test)]` mod/item body or a `#[test]` fn.
    pub(crate) in_test: bool,
    /// Number of enclosing `for`/`while`/`loop` bodies.
    pub(crate) loop_depth: usize,
    /// Index into [`SourceFile::fns`] of the innermost enclosing fn.
    pub(crate) fn_idx: Option<u32>,
}

/// One `fn` item: name and the line its signature starts on.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) line: usize,
}

/// One source line; passes match on tokens, but waiver comments and
/// violation excerpts still need the raw text.
pub(crate) struct Line {
    pub(crate) raw: String,
}

/// A scanned file: workspace-relative path, raw lines, token stream and
/// fn table.
pub(crate) struct SourceFile {
    pub(crate) path: String,
    pub(crate) lines: Vec<Line>,
    pub(crate) tokens: Vec<Token>,
    pub(crate) fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex and contextualize source text. `path` is workspace-relative
    /// with forward slashes (tests pass synthetic paths).
    pub(crate) fn parse(path: &str, text: &str) -> SourceFile {
        let mut tokens = lex(text);
        let mut fns = Vec::new();
        contextualize(&mut tokens, &mut fns);
        SourceFile {
            path: path.to_string(),
            lines: text
                .lines()
                .map(|raw| Line {
                    raw: raw.to_string(),
                })
                .collect(),
            tokens,
            fns,
        }
    }

    /// Read and model a file on disk; `rel` is its workspace-relative path.
    pub(crate) fn read(root: &Path, rel: &str) -> std::io::Result<SourceFile> {
        let text = fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::parse(rel, &text))
    }

    /// Name of the fn enclosing token `i`, if any.
    pub(crate) fn fn_name_at(&self, i: usize) -> Option<&str> {
        self.tokens
            .get(i)
            .and_then(|t| t.fn_idx)
            .map(|f| self.fns[f as usize].name.as_str())
    }
}

/// True if `t` is the punctuation character `c`.
pub(crate) fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct && t.text.as_bytes().first() == Some(&(c as u8))
}

/// True if `t` is exactly the identifier `s`.
pub(crate) fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Match a token pattern starting at `tokens[i]`, returning how many
/// tokens it consumed. Pattern elements:
///
/// - `"::"` — two consecutive `:` puncts;
/// - a single punctuation character (`"."`, `"("`, `"!"`) — that punct;
/// - `"*"` — any one identifier;
/// - anything else — exactly that identifier.
pub(crate) fn seq(tokens: &[Token], i: usize, pat: &[&str]) -> Option<usize> {
    let mut j = i;
    for p in pat {
        match *p {
            "::" => {
                if !(is_punct(tokens.get(j)?, ':') && is_punct(tokens.get(j + 1)?, ':')) {
                    return None;
                }
                j += 2;
            }
            "*" => {
                if tokens.get(j)?.kind != TokenKind::Ident {
                    return None;
                }
                j += 1;
            }
            p if p.len() == 1 && !p.as_bytes()[0].is_ascii_alphanumeric() && p != "_" => {
                if !is_punct(tokens.get(j)?, p.as_bytes()[0] as char) {
                    return None;
                }
                j += 1;
            }
            p => {
                if !is_ident(tokens.get(j)?, p) {
                    return None;
                }
                j += 1;
            }
        }
    }
    Some(j - i)
}

/// Index of the punct that closes the one at `open` (`(`/`[`/`{`),
/// honouring nesting of all three bracket kinds.
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let close = match tokens[open].text.as_str() {
        "(" => ')',
        "[" => ']',
        "{" => '}',
        _ => return None,
    };
    let open_ch = tokens[open].text.as_bytes()[0] as char;
    let mut level = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if is_punct(t, open_ch) {
            level += 1;
        } else if is_punct(t, close) {
            level -= 1;
            if level == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Raw lexer: source text → token stream (context fields zeroed).
fn lex(text: &str) -> Vec<Token> {
    let b: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (incl. /// and //!).
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            // Nested block comment.
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut level = 1usize;
                i += 2;
                while i < b.len() && level > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        level += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        level -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let (content, next, newlines) = lex_string(&b, i + 1);
                out.push(tok(TokenKind::Str, content, line));
                line += newlines;
                i = next;
            }
            // r"…" / r#"…"# raw strings, r#ident raw identifiers.
            'r' | 'b' if raw_string_start(&b, i).is_some() => {
                let (hashes, quote_at) = raw_string_start(&b, i).expect("checked");
                let (content, next, newlines) = lex_raw_string(&b, quote_at + 1, hashes);
                out.push(tok(TokenKind::RawStr, content, line));
                line += newlines;
                i = next;
            }
            'r' if b.get(i + 1) == Some(&'#')
                && b.get(i + 2).is_some_and(|&c| is_ident_start(c)) =>
            {
                // Raw identifier r#match — lex as the bare identifier.
                let mut j = i + 2;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                out.push(tok(TokenKind::Ident, b[i + 2..j].iter().collect(), line));
                i = j;
            }
            // b"…" byte string / b'…' byte char.
            'b' if b.get(i + 1) == Some(&'"') => {
                let (content, next, newlines) = lex_string(&b, i + 2);
                out.push(tok(TokenKind::Str, content, line));
                line += newlines;
                i = next;
            }
            'b' if b.get(i + 1) == Some(&'\'') => {
                let (content, next) = lex_char(&b, i + 2);
                out.push(tok(TokenKind::Char, content, line));
                i = next;
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes after one
                // (possibly escaped) char; a lifetime never closes.
                let is_char = match b.get(i + 1) {
                    Some(&'\\') => true,
                    Some(_) => b.get(i + 2) == Some(&'\''),
                    None => false,
                };
                if is_char {
                    let (content, next) = lex_char(&b, i + 1);
                    out.push(tok(TokenKind::Char, content, line));
                    i = next;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    out.push(tok(TokenKind::Lifetime, b[i..j].iter().collect(), line));
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                // Digits, `_`, radix prefixes, suffixes, exponents; a `.`
                // continues the number only when followed by a digit
                // (`0..3` stays three tokens).
                while j < b.len() {
                    let d = b[j];
                    if is_ident_cont(d) {
                        // e/E exponent sign.
                        if (d == 'e' || d == 'E')
                            && matches!(b.get(j + 1), Some(&'+') | Some(&'-'))
                            && b.get(j + 2).is_some_and(|c| c.is_ascii_digit())
                        {
                            j += 2;
                        }
                        j += 1;
                    } else if d == '.' && b.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(tok(TokenKind::Num, b[i..j].iter().collect(), line));
                i = j;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                out.push(tok(TokenKind::Ident, b[i..j].iter().collect(), line));
                i = j;
            }
            c => {
                out.push(tok(TokenKind::Punct, c.to_string(), line));
                i += 1;
            }
        }
    }
    out
}

fn tok(kind: TokenKind, text: String, line: usize) -> Token {
    Token {
        kind,
        text,
        line,
        depth: 0,
        in_test: false,
        loop_depth: 0,
        fn_idx: None,
    }
}

/// `r…` / `br…` raw-string opener: returns (hash count, index of the
/// opening quote) if the chars at `i` begin a raw string.
fn raw_string_start(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    if b.get(i) == Some(&'b') {
        if b.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
    }
    let mut hashes = 0usize;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (b.get(j) == Some(&'"')).then_some((hashes, j))
}

/// Lex a plain string body starting just after the opening quote;
/// returns (content, index after closing quote, newlines consumed).
fn lex_string(b: &[char], start: usize) -> (String, usize, usize) {
    let mut content = String::new();
    let mut newlines = 0usize;
    let mut i = start;
    while i < b.len() {
        match b[i] {
            '\\' => {
                if let Some(&e) = b.get(i + 1) {
                    content.push('\\');
                    content.push(e);
                    if e == '\n' {
                        newlines += 1;
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            '"' => return (content, i + 1, newlines),
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i, newlines)
}

/// Lex a raw string body starting just after the opening quote; closes
/// at `"` followed by `hashes` `#`s.
fn lex_raw_string(b: &[char], start: usize, hashes: usize) -> (String, usize, usize) {
    let mut content = String::new();
    let mut newlines = 0usize;
    let mut i = start;
    while i < b.len() {
        if b[i] == '"' {
            let mut h = 0usize;
            while h < hashes && b.get(i + 1 + h) == Some(&'#') {
                h += 1;
            }
            if h == hashes {
                return (content, i + 1 + hashes, newlines);
            }
        }
        if b[i] == '\n' {
            newlines += 1;
        }
        content.push(b[i]);
        i += 1;
    }
    (content, i, newlines)
}

/// Lex a char-literal body starting just after the opening quote.
fn lex_char(b: &[char], start: usize) -> (String, usize) {
    let mut content = String::new();
    let mut i = start;
    while i < b.len() {
        match b[i] {
            '\\' => {
                if let Some(&e) = b.get(i + 1) {
                    content.push('\\');
                    content.push(e);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            '\'' => return (content, i + 1),
            c => {
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i)
}

/// Context pass: stamp each token with brace depth, test-region
/// membership, loop depth and enclosing fn, and collect the fn table.
///
/// Test regions come from `#[cfg(test)]` / `#[cfg(all(test, …))]` /
/// `#[test]` attributes: the attribute arms a pending flag, the next `{`
/// opens the region (a `;` first — a bodyless item — cancels it).
/// `#[cfg(not(test))]` does *not* arm. Loop headers are `for`/`while`/
/// `loop` keywords at statement start (which excludes `impl Trait for
/// Type` and HRTB `for<'a>`); labeled loops (`'outer: loop`) count.
fn contextualize(tokens: &mut [Token], fns: &mut Vec<FnSpan>) {
    let mut depth = 0usize;
    // Depths *at which* each open region's `{` sits.
    let mut test_stack: Vec<usize> = Vec::new();
    let mut loop_stack: Vec<usize> = Vec::new();
    // (fn table index, depth of the body's `{`).
    let mut fn_stack: Vec<(u32, usize)> = Vec::new();
    let mut pending_test = false;
    let mut pending_loop = false;
    let mut pending_fn: Option<FnSpan> = None;
    // Statement start: after `{`, `}`, `;`, or at the file start; a
    // label (`'outer:`) keeps the flag alive for the loop keyword.
    let mut stmt_start = true;

    let mut i = 0usize;
    while i < tokens.len() {
        // Attribute: `#[ … ]` — classify, stamp its tokens, skip past.
        if is_punct(&tokens[i], '#') && tokens.get(i + 1).is_some_and(|t| is_punct(t, '[')) {
            let close = matching_close(tokens, i + 1).unwrap_or(tokens.len() - 1);
            let mut saw_test = false;
            let mut saw_not = false;
            for t in &tokens[i..=close] {
                if is_ident(t, "test") {
                    saw_test = true;
                }
                if is_ident(t, "not") {
                    saw_not = true;
                }
            }
            if saw_test && !saw_not {
                pending_test = true;
            }
            let in_test = !test_stack.is_empty();
            let loop_depth = loop_stack.len();
            let fn_idx = fn_stack.last().map(|&(f, _)| f);
            for t in &mut tokens[i..=close] {
                t.depth = depth;
                t.in_test = in_test;
                t.loop_depth = loop_depth;
                t.fn_idx = fn_idx;
            }
            i = close + 1;
            continue;
        }

        let this_stmt_start = stmt_start;
        // Default for the next token; adjusted below.
        stmt_start = false;

        // Stamp context before structural bookkeeping so `{` carries the
        // outer depth and region flags.
        tokens[i].depth = depth;
        tokens[i].in_test = !test_stack.is_empty();
        tokens[i].loop_depth = loop_stack.len();
        tokens[i].fn_idx = fn_stack.last().map(|&(f, _)| f);

        match tokens[i].kind {
            TokenKind::Punct => match tokens[i].text.as_bytes()[0] {
                b'{' => {
                    if pending_test {
                        test_stack.push(depth);
                        pending_test = false;
                    }
                    if pending_loop {
                        loop_stack.push(depth);
                        pending_loop = false;
                    }
                    if let Some(f) = pending_fn.take() {
                        fns.push(f);
                        fn_stack.push(((fns.len() - 1) as u32, depth));
                    }
                    depth += 1;
                    stmt_start = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    tokens[i].depth = depth;
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    if loop_stack.last() == Some(&depth) {
                        loop_stack.pop();
                    }
                    if fn_stack.last().map(|&(_, d)| d) == Some(depth) {
                        fn_stack.pop();
                    }
                    stmt_start = true;
                }
                b';' => {
                    // A bodyless item cancels pending attributes/headers.
                    pending_test = false;
                    pending_fn = None;
                    stmt_start = true;
                }
                // `'label:` keeps statement-start alive for the loop
                // keyword that follows.
                b':' if i > 0 && tokens[i - 1].kind == TokenKind::Lifetime && this_stmt_start => {
                    stmt_start = true;
                }
                _ => {}
            },
            // A label at statement start stays statement-start-ish.
            TokenKind::Lifetime if this_stmt_start => stmt_start = true,
            TokenKind::Ident => match tokens[i].text.as_str() {
                "for" | "while" if this_stmt_start => pending_loop = true,
                "loop" if this_stmt_start => pending_loop = true,
                "fn" => {
                    if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                        pending_fn = Some(FnSpan {
                            name: name.text.clone(),
                            line: tokens[i].line,
                        });
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
}

/// Recursively collect `.rs` files under `dir`, returning paths relative
/// to `root` with forward slashes, sorted for deterministic output.
pub(crate) fn rust_files(root: &Path, dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p: PathBuf = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(f: &SourceFile) -> Vec<&str> {
        f.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_code_tokens() {
        let f = SourceFile::parse(
            "t.rs",
            "let s = \"x.unwrap()\"; // .unwrap()\nlet c = 'u'; /* .unwrap() */ s.unwrap();\n",
        );
        // The only `unwrap` identifier is the real call on line 2.
        let unwraps: Vec<&Token> = f.tokens.iter().filter(|t| is_ident(t, "unwrap")).collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].line, 1);
        // The string body is one Str token, its content preserved.
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text == "x.unwrap()"));
        // 'u' is a char literal, not a lifetime.
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "u"));
    }

    #[test]
    fn raw_strings_close_on_matching_hashes() {
        let f = SourceFile::parse(
            "t.rs",
            "let p = r#\"a \"quoted\" .lock()\"#;\nlet q = r\"plain\";\nafter();\n",
        );
        assert!(!idents(&f).contains(&"lock"), "{:?}", idents(&f));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::RawStr && t.text == "a \"quoted\" .lock()"));
        assert!(f.tokens.iter().any(|t| is_ident(t, "after")));
    }

    #[test]
    fn nested_block_comments_and_doc_comments_vanish() {
        let f = SourceFile::parse(
            "t.rs",
            "/* outer /* inner.unwrap() */ still comment */ real();\n/// doc .expect(\n//! inner doc panic!\ncode();\n",
        );
        let ids = idents(&f);
        assert_eq!(ids, vec!["real", "code"]);
        assert_eq!(
            f.tokens.iter().find(|t| is_ident(t, "code")).unwrap().line,
            3
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let f = SourceFile::parse(
            "t.rs",
            "fn f<'a>(x: &'a str) -> &'static str { let c = '}'; let e = '\\n'; x }\n",
        );
        let lifetimes: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        // '}' must lex as a char literal, not close the fn body early.
        let close = f.tokens.iter().rev().find(|t| is_punct(t, '}')).unwrap();
        assert_eq!(close.depth, 0, "brace depth balanced despite '}}' literal");
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "}"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "\\n"));
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let f = SourceFile::parse("t.rs", "let a = 0.0f32; for i in 0..3 { x(1e-3); }\n");
        let nums: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0.0f32", "0", "3", "1e-3"]);
    }

    #[test]
    fn cfg_test_mod_and_test_fn_regions_are_tracked() {
        let src = "\
pub(crate) fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { helper(); }
}
pub(crate) fn more_lib() {}
#[test]
fn top_level_test() { other(); }
fn lib_again() { tail(); }
";
        let f = SourceFile::parse("t.rs", src);
        let find = |name: &str| f.tokens.iter().find(|t| is_ident(t, name)).unwrap();
        assert!(!find("lib_code").in_test);
        assert!(find("helper").in_test, "inside cfg(test) mod");
        assert!(!find("more_lib").in_test, "after the test mod closes");
        assert!(find("other").in_test, "inside a #[test] fn");
        assert!(!find("tail").in_test, "after the test fn closes");
    }

    #[test]
    fn cfg_not_test_and_bodyless_items_do_not_arm() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;
#[cfg(not(test))]
fn release_only() { work(); }
fn real() { more(); }
";
        let f = SourceFile::parse("t.rs", src);
        let find = |name: &str| f.tokens.iter().find(|t| is_ident(t, name)).unwrap();
        assert!(!find("work").in_test, "cfg(not(test)) is not a test region");
        assert!(!find("more").in_test, "fn after cfg(test) use is lib code");
    }

    #[test]
    fn loop_depth_counts_enclosing_loops_only() {
        let src = "\
impl Fake for Thing {
    fn run(&self) {
        for i in 0..3 {
            while i > 0 {
                body();
            }
        }
        'outer: loop {
            labeled();
            break 'outer;
        }
        after();
    }
}
";
        let f = SourceFile::parse("t.rs", src);
        let find = |name: &str| f.tokens.iter().find(|t| is_ident(t, name)).unwrap();
        assert_eq!(find("run").loop_depth, 0, "impl-for is not a loop");
        assert_eq!(find("body").loop_depth, 2);
        assert_eq!(find("labeled").loop_depth, 1, "labeled loop counts");
        assert_eq!(find("after").loop_depth, 0);
    }

    #[test]
    fn fn_boundaries_are_tracked() {
        let src = "\
fn alpha() {
    inner();
}
trait T {
    fn sig_only(&self);
}
fn beta() {
    deeper(|| call());
}
";
        let f = SourceFile::parse("t.rs", src);
        let at = |name: &str| {
            let i = f.tokens.iter().position(|t| is_ident(t, name)).unwrap();
            f.fn_name_at(i).map(str::to_string)
        };
        assert_eq!(at("inner").as_deref(), Some("alpha"));
        assert_eq!(at("call").as_deref(), Some("beta"));
        assert_eq!(
            f.fns.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["alpha", "beta"],
            "bodyless trait sigs do not open fn spans"
        );
    }

    #[test]
    fn seq_matches_method_calls_paths_and_macros() {
        let f = SourceFile::parse(
            "t.rs",
            "x.unwrap(); std::thread::spawn(f); panic!(\"x\");\n",
        );
        let t = &f.tokens;
        let at = |name: &str| t.iter().position(|tk| is_ident(tk, name)).unwrap();
        assert!(seq(t, at("unwrap") - 1, &[".", "unwrap", "(", ")"]).is_some());
        assert!(seq(t, at("std"), &["std", "::", "thread", "::", "spawn", "("]).is_some());
        assert!(seq(t, at("thread"), &["thread", "::", "spawn", "("]).is_some());
        assert!(seq(t, at("panic"), &["panic", "!"]).is_some());
        assert!(seq(t, at("unwrap"), &["unwrap", "!", "("]).is_none());
    }
}
