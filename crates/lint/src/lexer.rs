//! A hand-rolled Rust lexer — just enough structure for the lint
//! rules: identifiers, punctuation, and literals with line numbers.
//! Comments and string, char, and raw-string contents are consumed but
//! never tokenized, so rules cannot false-positive on text inside
//! literals or comments.

/// Token classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// String/char/numeric literal (content not preserved).
    Lit,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True if this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
    /// True if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// Lex `src` into its tokens. Never fails: unterminated constructs
/// consume to EOF.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let count_lines = |s: &[u8]| s.iter().filter(|&&c| c == b'\n').count() as u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, nl) = scan_string(b, i);
                line += nl;
                i = end;
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` followed
                // by ident chars with no closing quote right after.
                if i + 1 < b.len() && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_') {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'\'' {
                        // Char literal like 'a'.
                        i = j + 1;
                        toks.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                    } else {
                        // Lifetime: skip the tick and the name.
                        i = j;
                    }
                } else {
                    // Char literal, possibly escaped: '\n', '\'', '\\'.
                    let mut j = i + 1;
                    if j < b.len() && b[j] == b'\\' {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    line += count_lines(&b[i..j.min(b.len())]);
                    i = (j + 1).min(b.len());
                    toks.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let text = &src[start..i];
                // Raw strings / byte strings: r"..." r#"..."# b"..." br#"..."#
                if i < b.len() && (text == "r" || text == "b" || text == "br" || text == "rb") {
                    if b[i] == b'"' || b[i] == b'#' {
                        let raw = text != "b"; // b"..." is an escaped string
                        let (end, nl) = if raw {
                            scan_raw_string(b, i)
                        } else {
                            scan_string(b, i)
                        };
                        line += nl;
                        i = end;
                        toks.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                    if text == "b" && b[i] == b'\'' {
                        // Byte char b'x': skip it.
                        let mut j = i + 1;
                        if j < b.len() && b[j] == b'\\' {
                            j += 2;
                        } else {
                            j += 1;
                        }
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                        i = (j + 1).min(b.len());
                        toks.push(Tok {
                            kind: TokKind::Lit,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: text.to_string(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // Fractional part — but not a `..` range.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                // Unlike strings, numeric literals keep their text: the
                // rank-table sync check compares the values declared in
                // `lock.rs` against `lint.toml`.
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Scan a `"`-delimited string starting at the quote (or at an `r`/`b`
/// prefix's quote position). Returns `(index after closing quote,
/// newlines consumed)`.
fn scan_string(b: &[u8], start: usize) -> (usize, u32) {
    let mut i = start;
    while i < b.len() && b[i] != b'"' {
        i += 1;
    }
    i += 1; // past opening quote
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scan a raw string `r#*"..."#*` starting at the first `#` or quote.
fn scan_raw_string(b: &[u8], start: usize) -> (usize, u32) {
    let mut i = start;
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
    }
    let mut nl = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0;
            while j < b.len() && b[j] == b'#' && h < hashes {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return (j, nl);
            }
        }
        if b[i] == b'\n' {
            nl += 1;
        }
        i += 1;
    }
    (i, nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_punct() {
        let l = lex("let g = self.work.lock();");
        let words: Vec<&str> = l.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, vec!["let", "g", "=", "self", ".", "work", ".", "lock", "(", ")", ";"]);
    }

    #[test]
    fn comments_are_not_tokenized() {
        let l = lex("// SAFETY: fine\nunsafe { x() } /* block\ncomment */");
        assert!(l.iter().any(|t| t.is_ident("unsafe")));
        assert!(l.iter().all(|t| t.text != "SAFETY" && t.text != "block"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let s = "a.lock() // not a comment"; s.len()"#);
        assert!(l.iter().all(|t| t.text != "comment"));
        assert!(!l.iter().any(|t| t.is_ident("lock")));
        assert!(l.iter().any(|t| t.is_ident("len")));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let l = lex("let s = r#\"quote \" inside\"#; let t = \"esc \\\" q\"; done()");
        assert!(l.iter().any(|t| t.is_ident("done")));
        assert!(!l.iter().any(|t| t.is_ident("inside")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        // No stray tokens from the lifetime; two char literals.
        let lits = l.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 2);
        assert!(l.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..5 { x[i] = 1.5; }");
        let dots = l.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..5 keeps both range dots");
    }
}
