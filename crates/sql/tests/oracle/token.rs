//! Hand-written SQL tokenizer.
//!
//! Produces a flat token stream with byte offsets so parse errors can point
//! at the offending position. Keywords are case-insensitive, identifiers
//! preserve case (the SkyServer schema is camelCase).

use byc_types::{Error, Result};

/// SQL keywords recognized by the parser.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror their SQL spellings
pub enum Keyword {
    Select,
    Top,
    From,
    Where,
    And,
    Or,
    As,
    Between,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    GroupKw,
    OrderKw,
    By,
    Asc,
    Desc,
    Not,
    In,
}

impl Keyword {
    fn from_str(word: &str) -> Option<Keyword> {
        // Keywords are matched case-insensitively.
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Keyword::Select,
            "TOP" => Keyword::Top,
            "FROM" => Keyword::From,
            "WHERE" => Keyword::Where,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "AS" => Keyword::As,
            "BETWEEN" => Keyword::Between,
            "COUNT" => Keyword::Count,
            "SUM" => Keyword::Sum,
            "AVG" => Keyword::Avg,
            "MIN" => Keyword::Min,
            "MAX" => Keyword::Max,
            "GROUP" => Keyword::GroupKw,
            "ORDER" => Keyword::OrderKw,
            "BY" => Keyword::By,
            "ASC" => Keyword::Asc,
            "DESC" => Keyword::Desc,
            "NOT" => Keyword::Not,
            "IN" => Keyword::In,
            _ => return None,
        })
    }
}

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// A recognized keyword.
    Keyword(Keyword),
    /// An identifier (table, column, or alias name).
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal (quotes stripped).
    StringLit(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<>` or `!=`
    Ne,
    /// End of input sentinel.
    Eof,
}

/// A token with its starting byte offset in the input.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Lexical class and payload.
    pub kind: TokenKind,
    /// Byte offset where the token starts.
    pub offset: usize,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'['
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenize `input` into a vector ending with an [`TokenKind::Eof`] token.
///
/// # Errors
///
/// [`Error::Parse`] on unterminated strings, malformed numbers, or bytes
/// outside the grammar.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'-' if i + 1 < bytes.len()
                && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == b'.') =>
            {
                // Negative literal (the grammar has no binary minus).
                i = lex_number(input, bytes, i, &mut tokens)?;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            b'.' if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            b'!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(Error::Parse {
                        offset: start,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            b'\'' => {
                i += 1;
                let lit_start = i;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(Error::Parse {
                        offset: start,
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token {
                    kind: TokenKind::StringLit(input[lit_start..i].to_string()),
                    offset: start,
                });
                i += 1; // closing quote
            }
            b'0'..=b'9' | b'+' => {
                i = lex_number(input, bytes, i, &mut tokens)?;
            }
            b'.' => {
                // leading-dot number, e.g. `.95`
                i = lex_number(input, bytes, i, &mut tokens)?;
            }
            c if is_ident_start(c) => {
                // Bracketed identifiers [Name] (SQL Server style).
                if c == b'[' {
                    i += 1;
                    let id_start = i;
                    while i < bytes.len() && bytes[i] != b']' {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        return Err(Error::Parse {
                            offset: start,
                            message: "unterminated bracketed identifier".into(),
                        });
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident(input[id_start..i].to_string()),
                        offset: start,
                    });
                    i += 1;
                } else {
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    let word = &input[start..i];
                    let kind = match Keyword::from_str(word) {
                        Some(kw) => TokenKind::Keyword(kw),
                        None => TokenKind::Ident(word.to_string()),
                    };
                    tokens.push(Token {
                        kind,
                        offset: start,
                    });
                }
            }
            other => {
                return Err(Error::Parse {
                    offset: start,
                    message: format!("unexpected byte {:?}", other as char),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: bytes.len(),
    });
    Ok(tokens)
}

fn lex_number(input: &str, bytes: &[u8], mut i: usize, tokens: &mut Vec<Token>) -> Result<usize> {
    let start = i;
    if bytes[i] == b'+' || bytes[i] == b'-' {
        i += 1;
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
        i += 1;
    }
    // Exponent part.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let value: f64 = text.parse().map_err(|_| Error::Parse {
        offset: start,
        message: format!("malformed number {text:?}"),
    })?;
    tokens.push(Token {
        kind: TokenKind::Number(value),
        offset: start,
    });
    Ok(i)
}
