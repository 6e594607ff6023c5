//! A minimal Rust lexer: just enough tokenization for item scanning.
//!
//! The workspace builds offline (no `syn`), so the analyzer works on a
//! hand-rolled token stream. The lexer understands exactly the lexical
//! features that would otherwise corrupt a token-level scan — nested
//! block comments, string/char/byte/raw-string literals, lifetimes vs.
//! char literals — and throws everything else into four coarse token
//! kinds. Comments are dropped from the token stream, but
//! `// chopim-lint:` directive comments are collected on the side (the
//! suppression channel), and every comment line is remembered so
//! directives can bind to "the next code line".

/// One lexical token (comments and whitespace excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `struct`, `HashMap`, ...).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String or byte-string literal, with its decoded-enough contents
    /// (escapes are kept verbatim; the passes only substring-match).
    Str(String),
    /// Numeric literal (value never matters to any pass).
    Num,
    /// Lifetime (`'a`) or char literal — neither matters to any pass,
    /// but both must be consumed as units so their contents are not
    /// misread as identifiers.
    Tick,
}

/// A token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-indexed line number.
    pub line: u32,
}

/// A `// chopim-lint: allow(<passes>) -- <reason>` suppression comment.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-indexed line the comment sits on.
    pub line: u32,
    /// Pass names inside `allow(...)`, as written.
    pub passes: Vec<String>,
    /// Free-text reason after `--` (trimmed; may be empty — the driver
    /// rejects empty reasons).
    pub reason: String,
    /// Whether the comment parsed as `allow(...) -- ...` at all.
    pub well_formed: bool,
}

/// Lexer output for one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub toks: Vec<SpannedTok>,
    /// All `chopim-lint:` directive comments found.
    pub directives: Vec<Directive>,
}

/// Marker every directive comment must contain.
const DIRECTIVE_TAG: &str = "chopim-lint:";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parse the text of one comment as a directive, if it carries the tag.
fn parse_directive(text: &str, line: u32) -> Option<Directive> {
    let at = text.find(DIRECTIVE_TAG)?;
    let body = text[at + DIRECTIVE_TAG.len()..].trim();
    let mut d = Directive {
        line,
        passes: Vec::new(),
        reason: String::new(),
        well_formed: false,
    };
    let Some(rest) = body.strip_prefix("allow") else {
        return Some(d);
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(d);
    };
    let Some(close) = rest.find(')') else {
        return Some(d);
    };
    d.passes = rest[..close]
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    let tail = rest[close + 1..].trim_start();
    if let Some(reason) = tail.strip_prefix("--") {
        d.reason = reason.trim().to_string();
    }
    d.well_formed = !d.passes.is_empty();
    Some(d)
}

/// Tokenize `src`. Never fails: unterminated constructs consume to EOF.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();

    macro_rules! bump_line {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_line!(c);
            i += 1;
            continue;
        }
        // Line comment (also doc comments ///, //!).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if let Some(d) = parse_directive(&text, line) {
                out.directives.push(d);
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start_line = line;
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump_line!(b[i]);
                    i += 1;
                }
            }
            let text: String = b[start..i.min(n)].iter().collect();
            if let Some(d) = parse_directive(&text, start_line) {
                out.directives.push(d);
            }
            continue;
        }
        // Raw strings / raw identifiers / byte strings: r"..", r#".."#,
        // br#".."#, b"..", r#ident.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (skip, raw_ok) = if c == 'b' && b[i + 1] == 'r' {
                (2, true)
            } else {
                (1, c == 'r')
            };
            let mut j = i + skip;
            if raw_ok && j < n && (b[j] == '#' || b[j] == '"') {
                let mut hashes = 0;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Raw (byte) string: scan for `"` followed by `hashes` #s.
                    j += 1;
                    let start_line = line;
                    let text_start = j;
                    'raw: while j < n {
                        if b[j] == '"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                break 'raw;
                            }
                        }
                        bump_line!(b[j]);
                        j += 1;
                    }
                    let text: String = b[text_start..j.min(n)].iter().collect();
                    out.toks.push(SpannedTok {
                        tok: Tok::Str(text),
                        line: start_line,
                    });
                    i = (j + 1 + hashes).min(n);
                    continue;
                } else if hashes > 0 && j < n && is_ident_start(b[j]) {
                    // Raw identifier r#ident.
                    let start = j;
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    out.toks.push(SpannedTok {
                        tok: Tok::Ident(b[start..j].iter().collect()),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            if c == 'b' && i + 1 < n && b[i + 1] == '"' {
                // Byte string: fall through to the string scanner below
                // by consuming the `b` prefix.
                i += 1;
                // continue into string handling on the next loop turn
                // (b[i] is now '"').
                continue;
            }
            // Plain identifier starting with r/b: handled below.
        }
        // String literal.
        if c == '"' {
            let start_line = line;
            let mut j = i + 1;
            let mut text = String::new();
            while j < n {
                if b[j] == '\\' && j + 1 < n {
                    text.push(b[j]);
                    text.push(b[j + 1]);
                    j += 2;
                    continue;
                }
                if b[j] == '"' {
                    break;
                }
                bump_line!(b[j]);
                text.push(b[j]);
                j += 1;
            }
            out.toks.push(SpannedTok {
                tok: Tok::Str(text),
                line: start_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let mut j = i + 1;
            if j < n && b[j] == '\\' {
                // Escaped char literal: consume to closing quote.
                j += 2;
                while j < n && b[j] != '\'' {
                    j += 1;
                }
                i = (j + 1).min(n);
            } else if j + 1 < n && b[j + 1] == '\'' {
                // One-char literal 'x'.
                i = j + 2;
            } else if j < n && is_ident_start(b[j]) {
                // Lifetime: consume the identifier.
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                i = j;
            } else {
                i = j;
            }
            out.toks.push(SpannedTok {
                tok: Tok::Tick,
                line,
            });
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.toks.push(SpannedTok {
                tok: Tok::Ident(b[start..i].iter().collect()),
                line,
            });
            continue;
        }
        // Number (coarse: digits and the alphanumeric tail of radix or
        // suffix forms; `1.5` arrives as Num, Punct('.'), Num — fine).
        if c.is_ascii_digit() {
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.toks.push(SpannedTok {
                tok: Tok::Num,
                line,
            });
            continue;
        }
        // Everything else: one punctuation character.
        out.toks.push(SpannedTok {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_idents() {
        let src = r##"
            // HashMap in a comment
            /* nested /* HashMap */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn lifetimes_and_chars() {
        let ids = idents("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(ids.contains(&"str".to_string()));
        // Lifetime name must not appear as an identifier.
        assert_eq!(ids.iter().filter(|s| *s == "a").count(), 0);
    }

    #[test]
    fn directive_parses() {
        let l = lex("let m = HashMap::new(); // chopim-lint: allow(determinism) -- keyed only\n");
        assert_eq!(l.directives.len(), 1);
        let d = &l.directives[0];
        assert!(d.well_formed);
        assert_eq!(d.passes, vec!["determinism"]);
        assert_eq!(d.reason, "keyed only");
    }

    #[test]
    fn directive_without_reason_is_flagged_not_dropped() {
        let l = lex("// chopim-lint: allow(coldpath)\n");
        assert_eq!(l.directives.len(), 1);
        assert!(l.directives[0].well_formed);
        assert!(l.directives[0].reason.is_empty());
    }

    #[test]
    fn string_line_accounting() {
        let l = lex("let a = \"two\nlines\";\nlet b = 1;");
        let b_line = l
            .toks
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .unwrap()
            .line;
        assert_eq!(b_line, 3);
    }
}
