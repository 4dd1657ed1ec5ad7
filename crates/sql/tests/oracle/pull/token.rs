//! Hand-written SQL lexer.
//!
//! A pull lexer: [`Lexer::pull`] hands the parser one token at a
//! time, and every identifier and string literal is a slice of the
//! input, so lexing a query allocates nothing. Each token carries its
//! byte offset so parse errors can point at the offending position.
//! Keywords are case-insensitive, identifiers preserve case (the
//! SkyServer schema is camelCase).

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
    /// The keyword `word` spells, in any letter case.
    pub(crate) fn from_word(word: &str) -> Option<Keyword> {
        // Upper-case into a stack buffer sized for the longest keyword,
        // BETWEEN; a longer word is no keyword.
        let mut upper = [0u8; 7];
        let upper = upper.get_mut(..word.len())?;
        for (u, b) in upper.iter_mut().zip(word.bytes()) {
            *u = b.to_ascii_uppercase();
        }
        Some(match &*upper {
            b"SELECT" => Keyword::Select,
            b"TOP" => Keyword::Top,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"AS" => Keyword::As,
            b"BETWEEN" => Keyword::Between,
            b"COUNT" => Keyword::Count,
            b"SUM" => Keyword::Sum,
            b"AVG" => Keyword::Avg,
            b"MIN" => Keyword::Min,
            b"MAX" => Keyword::Max,
            b"GROUP" => Keyword::GroupKw,
            b"ORDER" => Keyword::OrderKw,
            b"BY" => Keyword::By,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"NOT" => Keyword::Not,
            b"IN" => Keyword::In,
            _ => return None,
        })
    }
}

/// One lexical token, borrowing its text from the input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokenKind<'a> {
    /// A recognized keyword.
    Keyword(Keyword),
    /// An identifier (table, column, or alias name); brackets stripped.
    Ident(&'a str),
    /// A finite numeric literal.
    Number(f64),
    /// A single-quoted string literal (quotes stripped).
    StringLit(&'a str),
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
    /// End of input.
    Eof,
}

/// A token with its starting byte offset in the input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// Lexical class and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset where the token starts.
    pub offset: usize,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True when `name` lexes back, unbracketed, as the identifier `name`:
/// it is a plain word and no keyword. Any other name needs brackets.
pub(crate) fn is_bare_identifier(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(is_ident_start)
        && bytes.all(is_ident_continue)
        && Keyword::from_word(name).is_none()
}

/// The pull lexer over one query text.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self { input, pos: 0 }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.input.as_bytes().get(at).copied()
    }

    /// The input from byte `from` to byte `to`. Every caller cuts at
    /// ASCII bytes, which are always character boundaries.
    fn text(&self, from: usize, to: usize) -> &'a str {
        self.input.get(from..to).unwrap_or_default()
    }

    /// The first byte at or after `from` that is `b`, if any.
    fn find(&self, from: usize, b: u8) -> Option<usize> {
        let rest = self.input.as_bytes().get(from..)?;
        rest.iter().position(|&c| c == b).map(|i| from + i)
    }

    /// The next token; [`TokenKind::Eof`] at the end of the input, and
    /// again on every later call.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on unterminated strings or bracketed names,
    /// malformed or non-finite numbers, and characters outside the
    /// grammar.
    pub fn pull(&mut self) -> Result<Token<'a>> {
        // Whitespace and `--` line comments.
        loop {
            match self.byte(self.pos) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.pos += 1,
                Some(b'-') if self.byte(self.pos + 1) == Some(b'-') => {
                    self.pos = self.find(self.pos, b'\n').unwrap_or(self.input.len());
                }
                _ => break,
            }
        }
        let start = self.pos;
        let Some(c) = self.byte(start) else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset: start,
            });
        };
        let next = self.byte(start + 1);
        let (kind, end) = match c {
            b',' => (TokenKind::Comma, start + 1),
            b'(' => (TokenKind::LParen, start + 1),
            b')' => (TokenKind::RParen, start + 1),
            b'*' => (TokenKind::Star, start + 1),
            b'=' => (TokenKind::Eq, start + 1),
            b'<' => match next {
                Some(b'=') => (TokenKind::Le, start + 2),
                Some(b'>') => (TokenKind::Ne, start + 2),
                _ => (TokenKind::Lt, start + 1),
            },
            b'>' => match next {
                Some(b'=') => (TokenKind::Ge, start + 2),
                _ => (TokenKind::Gt, start + 1),
            },
            b'!' => match next {
                Some(b'=') => (TokenKind::Ne, start + 2),
                _ => return Err(parse_error(start, "expected '=' after '!'".into())),
            },
            b'.' if !next.is_some_and(|b| b.is_ascii_digit()) => (TokenKind::Dot, start + 1),
            // A leading sign is part of the literal: the grammar has no
            // binary minus.
            b'0'..=b'9' | b'+' | b'.' => self.number(start)?,
            b'-' if next.is_some_and(|b| b.is_ascii_digit() || b == b'.') => self.number(start)?,
            b'\'' => {
                let Some(close) = self.find(start + 1, b'\'') else {
                    return Err(parse_error(start, "unterminated string literal".into()));
                };
                (TokenKind::StringLit(self.text(start + 1, close)), close + 1)
            }
            // Bracketed identifiers [Name] (SQL Server style).
            b'[' => {
                let Some(close) = self.find(start + 1, b']') else {
                    return Err(parse_error(
                        start,
                        "unterminated bracketed identifier".into(),
                    ));
                };
                (TokenKind::Ident(self.text(start + 1, close)), close + 1)
            }
            c if is_ident_start(c) => {
                let mut end = start + 1;
                while self.byte(end).is_some_and(is_ident_continue) {
                    end += 1;
                }
                let word = self.text(start, end);
                let kind = match Keyword::from_word(word) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(word),
                };
                (kind, end)
            }
            _ => {
                // Every token ends on an ASCII byte, so `start` is a
                // character boundary.
                let ch = self.text(start, self.input.len()).chars().next();
                let ch = ch.unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(parse_error(start, format!("unexpected character {ch:?}")));
            }
        };
        self.pos = end;
        Ok(Token {
            kind,
            offset: start,
        })
    }

    /// Lex the number at `start`: an optional sign, digits and dots, and
    /// an optional exponent; it must parse as a finite `f64`.
    fn number(&self, start: usize) -> Result<(TokenKind<'a>, usize)> {
        let mut end = start;
        if matches!(self.byte(end), Some(b'+' | b'-')) {
            end += 1;
        }
        while self
            .byte(end)
            .is_some_and(|b| b.is_ascii_digit() || b == b'.')
        {
            end += 1;
        }
        if matches!(self.byte(end), Some(b'e' | b'E')) {
            let mut exp = end + 1;
            if matches!(self.byte(exp), Some(b'+' | b'-')) {
                exp += 1;
            }
            if self.byte(exp).is_some_and(|b| b.is_ascii_digit()) {
                end = exp;
                while self.byte(end).is_some_and(|b| b.is_ascii_digit()) {
                    end += 1;
                }
            }
        }
        let text = self.text(start, end);
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok((TokenKind::Number(value), end)),
            _ => Err(parse_error(start, format!("malformed number {text:?}"))),
        }
    }
}

fn parse_error(offset: usize, message: String) -> Error {
    Error::Parse { offset, message }
}
