//! Source masking and tokenization.
//!
//! The analyzer is deliberately hand-rolled rather than `syn`-based: the
//! workspace builds offline with no registry access, so a full proc-macro
//! parser is unavailable. Everything the rules need — item structure,
//! call expressions, indexing, a handful of macro names — is recoverable
//! from a token stream.
//!
//! Masking blanks comments, string literals, char literals and raw strings
//! to spaces while preserving byte offsets and line structure, so a
//! `"unwrap"` inside a log message never fires and token offsets index the
//! original source. Line comments are collected on the side: `lint:`
//! markers and allow-pragmas live in them.

/// Token kinds. Punctuation is kept one byte per token; the parser peeks
/// for multi-byte operators (`::`, `->`, `..`) itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including suffixed forms like `10u64`).
    Int,
    /// Float literal (`1.0`, `1e6`, `2.5f64`).
    Float,
    /// Single punctuation byte.
    Punct(u8),
}

/// One token of masked source.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the token start in the original source.
    pub off: usize,
    /// Byte length of the token.
    pub len: usize,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    /// The token's text, sliced out of the (masked) source it was lexed
    /// from.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.off..self.off + self.len]
    }

    /// True when the token is the punctuation byte `b`.
    #[must_use]
    pub fn is_punct(&self, b: u8) -> bool {
        self.kind == TokKind::Punct(b)
    }
}

/// Masking output: blanked code plus the comments that were stripped.
pub struct Masked {
    /// Source with comments/strings/chars blanked; same byte length and
    /// line structure as the input.
    pub code: String,
    /// `(line, text)` of every line comment and block comment opening line.
    pub comments: Vec<(usize, String)>,
}

/// Blank comments, strings, char literals and raw strings to spaces.
#[must_use]
pub fn mask_source(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                code.push(b'\n');
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    code.push(b' ');
                    i += 1;
                }
                comments.push((line, src[start..i].to_string()));
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                code.push(b' ');
                code.push(b' ');
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        code.push(b' ');
                        code.push(b' ');
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        code.push(b' ');
                        code.push(b' ');
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        code.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let mut j = i;
                if bytes[j] == b'b' {
                    code.push(b' ');
                    j += 1;
                }
                code.push(b' ');
                j += 1; // past 'r'
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    code.push(b' ');
                    j += 1;
                }
                code.push(b' ');
                j += 1; // past opening quote
                loop {
                    if j >= bytes.len() {
                        break;
                    }
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            code.resize(code.len() + (k - j), b' ');
                            j = k;
                            break;
                        }
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    code.push(blank(bytes[j]));
                    j += 1;
                }
                i = j;
            }
            b'"' => {
                code.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        code.push(b' ');
                        code.push(blank(bytes[i + 1]));
                        if bytes[i + 1] == b'\n' {
                            line += 1;
                        }
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'"' {
                        code.push(b' ');
                        i += 1;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    code.push(blank(bytes[i]));
                    i += 1;
                }
            }
            b'\'' if is_char_literal(bytes, i) => {
                code.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        code.push(b' ');
                        code.push(b' ');
                        i += 2;
                        continue;
                    }
                    if bytes[i] == b'\'' {
                        code.push(b' ');
                        i += 1;
                        break;
                    }
                    code.push(b' ');
                    i += 1;
                }
            }
            _ => {
                code.push(b);
                i += 1;
            }
        }
    }

    Masked { code: String::from_utf8_lossy(&code).into_owned(), comments }
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= bytes.len() || bytes[j] != b'r' {
            return false;
        }
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    if i + 1 >= bytes.len() {
        return false;
    }
    if bytes[i + 1] == b'\\' {
        return true;
    }
    i + 2 < bytes.len() && bytes[i + 2] == b'\''
}

/// True for bytes that may appear in an identifier.
#[must_use]
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenize masked source. Whitespace separates tokens; punctuation is
/// emitted byte-by-byte.
#[must_use]
pub fn tokenize(code: &str) -> Vec<Tok> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, off: start, len: i - start, line });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            let mut float = false;
            while i < bytes.len() {
                let c = bytes[i];
                if c.is_ascii_alphanumeric() || c == b'_' {
                    if c == b'e' || c == b'E' {
                        // Exponent only counts as float when followed by a
                        // digit or sign (so `0xE` stays an int).
                        if i + 1 < bytes.len()
                            && (bytes[i + 1].is_ascii_digit()
                                || bytes[i + 1] == b'+'
                                || bytes[i + 1] == b'-')
                            && !code[start..i].starts_with("0x")
                        {
                            float = true;
                            i += 1; // consume the sign/digit start below
                        }
                    }
                    i += 1;
                    continue;
                }
                // `1.0` — a dot followed by a digit continues the number;
                // `0..n` (range) does not.
                if c == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    float = true;
                    i += 1;
                    continue;
                }
                break;
            }
            let text = &code[start..i];
            let kind = if float || text.contains("f32") || text.contains("f64") {
                TokKind::Float
            } else {
                TokKind::Int
            };
            toks.push(Tok { kind, off: start, len: i - start, line });
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct(b), off: i, len: 1, line });
        i += 1;
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let m = mask_source("let x = \"unwrap\"; // unwrap here\n/* unwrap */ let y = 1;\n");
        assert!(!m.code.contains("unwrap"));
        assert_eq!(m.comments.len(), 1, "only line comments are collected");
        assert!(m.comments[0].1.contains("unwrap here"));
        assert_eq!(m.code.len(), 57);
    }

    #[test]
    fn tokenizes_idents_numbers_puncts() {
        let m = mask_source("fn f(a: u64) -> f64 { a as f64 / 2.0 }");
        let toks = tokenize(&m.code);
        let texts: Vec<&str> = toks.iter().map(|t| t.text(&m.code)).collect();
        assert_eq!(
            texts,
            vec![
                "fn", "f", "(", "a", ":", "u64", ")", "-", ">", "f64", "{", "a", "as", "f64", "/",
                "2.0", "}"
            ]
        );
        assert_eq!(toks[15].kind, TokKind::Float);
    }

    #[test]
    fn range_is_not_a_float() {
        let m = mask_source("for i in 0..10 {}");
        let toks = tokenize(&m.code);
        assert_eq!(toks[3].kind, TokKind::Int);
        assert_eq!(toks[3].text(&m.code), "0");
        assert!(toks[4].is_punct(b'.'));
    }

    #[test]
    fn lifetimes_survive_masking() {
        let m = mask_source("fn f<'a>(x: &'a str) {}");
        assert!(m.code.contains("'a"));
    }

    #[test]
    fn raw_strings_blank() {
        let m = mask_source("let s = r#\"panic! unwrap\"#;");
        assert!(!m.code.contains("panic"));
    }
}
