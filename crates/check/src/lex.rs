//! A minimal Rust lexer for detlint.
//!
//! No registry access means no `syn`; the rules only need a
//! token stream that is *sound about what is code*: string/char/byte
//! literals, lifetimes, and comments must never be mistaken for
//! identifiers (a `"HashMap"` in a test fixture or a `// HashMap`
//! remark is not a finding). The lexer therefore handles the full
//! literal grammar — escapes, raw strings with `#` fences, byte
//! strings, char-vs-lifetime disambiguation, nested block comments —
//! and collapses every literal to one [`Tok::Literal`] token whose
//! content the rules never inspect.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` is two tokens).
    Punct(char),
    /// A lifetime (`'a`) — kept distinct so `'x'` stays a literal.
    Lifetime,
    /// String / raw string / byte / char / numeric literal. Content is
    /// deliberately dropped: rules must never match inside literals.
    Literal,
    /// `// …` comment text (doc comments included). Kept because
    /// pragmas live here.
    LineComment(String),
}

/// A token plus the 1-based source line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// Lex `src` into tokens. Unterminated constructs (a file truncated
/// mid-string) end the stream rather than erroring: detlint only ever
/// sees files rustc already accepted.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();
    let at = |i: usize| b.get(i).copied().unwrap_or('\0');
    while i < n {
        let c = at(i);
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && at(j) != '\n' {
                    j += 1;
                }
                let text: String = b[start..j].iter().collect();
                out.push(Token { tok: Tok::LineComment(text), line });
                i = j;
            }
            '/' if at(i + 1) == '*' => {
                // nested block comments, newline tracking
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    match (at(j), at(j + 1)) {
                        ('/', '*') => {
                            depth += 1;
                            j += 2;
                        }
                        ('*', '/') => {
                            depth -= 1;
                            j += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                i = j;
            }
            '"' => {
                let start_line = line;
                i = skip_string(&b, i + 1, &mut line);
                out.push(Token { tok: Tok::Literal, line: start_line });
            }
            '\'' => {
                // lifetime iff an ident char follows and the char
                // after the ident run is not a closing quote
                let mut j = i + 1;
                if at(j).is_alphabetic() || at(j) == '_' {
                    while at(j).is_alphanumeric() || at(j) == '_' {
                        j += 1;
                    }
                    if at(j) != '\'' {
                        out.push(Token { tok: Tok::Lifetime, line });
                        i = j;
                        continue;
                    }
                }
                // char literal: 'x', '\n', '\'', '\u{1F600}'
                let start_line = line;
                let mut j = i + 1;
                if at(j) == '\\' {
                    j += 2;
                    if at(j - 1) == 'u' && at(j) == '{' {
                        while j < n && at(j) != '}' {
                            j += 1;
                        }
                        j += 1;
                    }
                } else {
                    if at(j) == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
                if at(j) == '\'' {
                    j += 1;
                }
                out.push(Token { tok: Tok::Literal, line: start_line });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while at(j).is_alphanumeric() || at(j) == '_' {
                    j += 1;
                }
                out.push(Token { tok: Tok::Literal, line });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while at(j).is_alphanumeric() || at(j) == '_' {
                    j += 1;
                }
                let word: String = b[i..j].iter().collect();
                // raw / byte string prefixes: r" r#" b" br#" rb (and
                // b'x' byte chars)
                let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb")
                    && (at(j) == '"' || at(j) == '#' || (word == "b" && at(j) == '\''));
                if is_str_prefix {
                    let start_line = line;
                    if at(j) == '\'' {
                        // byte char b'x'
                        let mut k = j + 1;
                        if at(k) == '\\' {
                            k += 2;
                        } else {
                            k += 1;
                        }
                        if at(k) == '\'' {
                            k += 1;
                        }
                        i = k;
                    } else if word.contains('r') {
                        // raw string: count # fence
                        let mut hashes = 0usize;
                        let mut k = j;
                        while at(k) == '#' {
                            hashes += 1;
                            k += 1;
                        }
                        if at(k) != '"' {
                            // `r#foo` raw identifier, not a string
                            out.push(Token { tok: Tok::Ident(word), line });
                            i = j;
                            continue;
                        }
                        k += 1;
                        'raw: while k < n {
                            if at(k) == '\n' {
                                line += 1;
                            }
                            if at(k) == '"' {
                                let mut h = 0usize;
                                while h < hashes && at(k + 1 + h) == '#' {
                                    h += 1;
                                }
                                if h == hashes {
                                    k += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            k += 1;
                        }
                        i = k;
                    } else {
                        // b"…": ordinary escapes
                        i = skip_string(&b, j + 1, &mut line);
                    }
                    out.push(Token { tok: Tok::Literal, line: start_line });
                    continue;
                }
                out.push(Token { tok: Tok::Ident(word), line });
                i = j;
            }
            c => {
                out.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    out
}

/// Skip past a double-quoted string body starting at `i` (just after
/// the opening quote); returns the index after the closing quote.
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    while i < n {
        match b.get(i).copied().unwrap_or('\0') {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn literals_hide_their_content() {
        let src = r###"
            let a = "HashMap in a string";
            let b = r#"HashSet raw "quoted" too"#;
            let c = b"unwrap";
            let d = 'H';
            let e = b'\n';
            // only this ident survives:
            let real = HashMap;
        "###;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
        assert!(!ids.contains(&"HashSet".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = toks.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let literals = toks.iter().filter(|t| t.tok == Tok::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 1);
    }

    #[test]
    fn comments_carry_text_and_lines() {
        let toks = lex("let x = 1;\n// SAFETY: fine\nlet y = 2;");
        let c = toks
            .iter()
            .find_map(|t| match &t.tok {
                Tok::LineComment(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .expect("comment token");
        assert!(c.0.contains("SAFETY:"));
        assert_eq!(c.1, 2);
    }

    #[test]
    fn nested_block_comments_and_line_tracking() {
        let toks = lex("/* outer /* inner */ still */\nident_after");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks.first().map(|t| t.line), Some(2));
    }
}
