//! Hand-written SQL lexer.
//!
//! A pull lexer: [`Lexer::pull`] hands the parser one token at a
//! time, and every identifier and string literal is a slice of the
//! input, so lexing a query allocates nothing. Each token carries its
//! byte offset so parse errors can point at the offending position.
//! Keywords are case-insensitive, identifiers preserve case (the
//! SkyServer schema is camelCase).
//!
//! One 256-entry table gives every byte its classes (space, word byte,
//! word start, digit, number body), so whitespace, identifiers and
//! numbers are scanned as runs of one class. A word of at most seven
//! bytes, the length of `BETWEEN`, is checked against the keywords as
//! one case-folded `u64`: a multiply picks the one keyword it could be
//! out of a 32-slot table, and one compare says whether it is.
//!
//! A pull cannot fail: bytes that start no token lex as
//! [`TokenKind::Invalid`], the lexer keeps the [`Error`] for
//! [`Lexer::error`], and every later pull returns the same token, so the
//! parser moves no `Result` per token.

use byc_types::Error;

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

/// `word`'s bytes, each or-ed with `0x20`, packed little-endian into a
/// `u64`. Or-ing `0x20` folds an ASCII capital to its small letter, and a
/// byte folds to a small letter only if it is that letter in either
/// case, so a word folds to a keyword's fold exactly when it spells that
/// keyword in some letter case. No folded byte is zero, so the zero high
/// bytes of a shorter word keep its length apart.
const fn fold(word: &[u8]) -> u64 {
    let mut packed = 0u64;
    let mut rest = word;
    while let [head @ .., last] = rest {
        packed = packed << 8 | (*last | 0x20) as u64;
        rest = head;
    }
    packed
}

/// The bytes of a word of `len` bytes, `1..=8`, in a packed `u64`.
const fn low_bytes(len: usize) -> u64 {
    u64::MAX >> (64 - 8 * len)
}

/// Every keyword with its spelling.
const KEYWORDS: [(&[u8], Keyword); 20] = [
    (b"select", Keyword::Select),
    (b"top", Keyword::Top),
    (b"from", Keyword::From),
    (b"where", Keyword::Where),
    (b"and", Keyword::And),
    (b"or", Keyword::Or),
    (b"as", Keyword::As),
    (b"between", Keyword::Between),
    (b"count", Keyword::Count),
    (b"sum", Keyword::Sum),
    (b"avg", Keyword::Avg),
    (b"min", Keyword::Min),
    (b"max", Keyword::Max),
    (b"group", Keyword::GroupKw),
    (b"order", Keyword::OrderKw),
    (b"by", Keyword::By),
    (b"asc", Keyword::Asc),
    (b"desc", Keyword::Desc),
    (b"not", Keyword::Not),
    (b"in", Keyword::In),
];

/// Multiplies a folded word so that its top five bits differ for every
/// keyword: a perfect hash into [`SLOTS`], found by search.
const SLOT_MULTIPLIER: u64 = 0xcf78_4f00_08f4_d643;

/// A folded word's slot in [`SLOTS`].
#[allow(clippy::cast_possible_truncation)] // five bits: below 32 on every target
const fn slot(word: u64) -> usize {
    (word.wrapping_mul(SLOT_MULTIPLIER) >> 59) as usize
}

/// Each keyword's folded spelling at its [`slot`]; zero, which no word
/// folds to, where no keyword lands.
static SLOTS: [(u64, Keyword); 32] = slots();

const fn slots() -> [(u64, Keyword); 32] {
    let mut table = [(0, Keyword::Select); 32];
    let mut rest: &[(&[u8], Keyword)] = &KEYWORDS;
    while let [(word, kw), tail @ ..] = rest {
        let word = fold(word);
        let at = slot(word);
        // A collision fails the build.
        assert!(table[at].0 == 0, "two keywords share a slot");
        table[at] = (word, *kw);
        rest = tail;
    }
    table
}

impl Keyword {
    /// The keyword `word` spells, in any letter case.
    pub(crate) fn from_word(word: &[u8]) -> Option<Keyword> {
        // A longer word is no keyword.
        if word.len() > 7 {
            return None;
        }
        Keyword::from_folded(fold(word))
    }

    /// The keyword whose [`fold`] is `word`: the one at its slot, if
    /// that one's word is `word`.
    #[inline(always)]
    fn from_folded(word: u64) -> Option<Keyword> {
        match SLOTS.get(slot(word)) {
            Some(&(spelled, kw)) if spelled == word => Some(kw),
            _ => None,
        }
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
    /// Bytes that start no token: an unterminated string or bracketed
    /// name, a malformed or non-finite number, or a character outside
    /// the grammar. [`Lexer::error`] says which.
    Invalid,
}

/// A token with its starting byte offset in the input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token<'a> {
    /// Lexical class and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// `' '`, `'\t'`, `'\r'` and `'\n'`.
const SPACE: u8 = 1;
/// A byte of a bare identifier: a letter, a digit or `_`.
const WORD: u8 = 2;
/// A byte a bare identifier starts with: a letter or `_`.
const WORD_START: u8 = 4;
/// An ASCII digit.
const DIGIT: u8 = 8;
/// A byte of a number's mantissa: a digit or `.`.
const MANTISSA: u8 = 16;

/// Every byte's classes, a union of the flags above.
static CLASSES: [u8; 256] = classes();

const fn classes() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut b: u8 = 0;
    loop {
        table[b as usize] = match b {
            b' ' | b'\t' | b'\r' | b'\n' => SPACE,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => WORD | WORD_START,
            b'0'..=b'9' => WORD | DIGIT | MANTISSA,
            b'.' => MANTISSA,
            _ => 0,
        };
        if b == u8::MAX {
            return table;
        }
        b += 1;
    }
}

/// The classes of byte `b`.
#[inline]
fn class(b: u8) -> u8 {
    // In range for every byte: the table has 256 entries.
    CLASSES.get(usize::from(b)).copied().unwrap_or(0)
}

/// True when `b` is of some class in `classes`.
#[inline]
fn is(b: u8, classes: u8) -> bool {
    class(b) & classes != 0
}

/// True when `name` lexes back, unbracketed, as the identifier `name`:
/// it is a plain word and no keyword. Any other name needs brackets.
pub(crate) fn is_bare_identifier(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| is(b, WORD_START))
        && bytes.all(|b| is(b, WORD))
        && Keyword::from_word(name.as_bytes()).is_none()
}

/// The pull lexer over one query text.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// The error of the first [`TokenKind::Invalid`] pulled, if any.
    error: Option<Error>,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            error: None,
        }
    }

    /// The [`Error::Parse`] of the [`TokenKind::Invalid`] token, once
    /// one was pulled.
    pub fn error(&self) -> Option<&Error> {
        self.error.as_ref()
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

    /// The keyword the word from `start` to `end` spells, if any. A
    /// word of at most seven bytes with eight bytes of input from its
    /// start is folded from one load: its bytes or-ed with `0x20`, the
    /// bytes past it masked off.
    #[inline(always)]
    fn keyword(&self, start: usize, end: usize) -> Option<Keyword> {
        let len = end - start;
        if !(1..=7).contains(&len) {
            return None;
        }
        let eight = self
            .input
            .as_bytes()
            .get(start..start + 8)
            .and_then(|eight| <[u8; 8]>::try_from(eight).ok());
        let word = match eight {
            Some(eight) => (u64::from_le_bytes(eight) | 0x2020_2020_2020_2020) & low_bytes(len),
            None => fold(self.input.as_bytes().get(start..end).unwrap_or_default()),
        };
        Keyword::from_folded(word)
    }

    /// The end of the run of bytes of some class in `classes` that
    /// starts at `from`.
    #[inline]
    fn run(&self, from: usize, classes: u8) -> usize {
        let rest = self.input.as_bytes().get(from..).unwrap_or_default();
        from + rest
            .iter()
            .position(|&b| !is(b, classes))
            .unwrap_or(rest.len())
    }

    /// The next token; [`TokenKind::Eof`] at the end of the input, and
    /// again on every later call.
    ///
    /// Unterminated strings or bracketed names, malformed or non-finite
    /// numbers, and characters outside the grammar pull as
    /// [`TokenKind::Invalid`], with the [`Error::Parse`] in
    /// [`Lexer::error`]; every later call returns the same token.
    pub fn pull(&mut self) -> Token<'a> {
        self.lex()
    }

    /// [`Lexer::pull`] into `token`. The parser's lookahead is written
    /// in place, field by field, so reading it back never waits on a
    /// returned copy.
    pub(crate) fn pull_into(&mut self, token: &mut Token<'a>) {
        *token = self.lex();
    }

    #[inline(always)]
    fn lex(&mut self) -> Token<'a> {
        // Whitespace and `--` line comments. The position moves only
        // past a token: an invalid one is lexed again from here.
        let mut start = self.pos;
        loop {
            match self.byte(start) {
                Some(b) if is(b, SPACE) => start += 1,
                Some(b'-') if self.byte(start + 1) == Some(b'-') => {
                    start = self.find(start, b'\n').unwrap_or(self.input.len());
                }
                _ => break,
            }
        }
        let Some(c) = self.byte(start) else {
            return Token {
                kind: TokenKind::Eof,
                offset: start,
            };
        };
        let next = self.byte(start + 1);
        let (kind, end) = match c {
            _ if is(c, WORD_START) => {
                let end = self.run(start + 1, WORD);
                let kind = match self.keyword(start, end) {
                    Some(kw) => TokenKind::Keyword(kw),
                    None => TokenKind::Ident(self.text(start, end)),
                };
                (kind, end)
            }
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
                _ => return self.invalid(start, || "expected '=' after '!'".into()),
            },
            b'.' if !next.is_some_and(|b| is(b, DIGIT)) => (TokenKind::Dot, start + 1),
            // A leading sign is part of the literal: the grammar has no
            // binary minus.
            b'0'..=b'9' | b'+' | b'.' => return self.number(start),
            b'-' if next.is_some_and(|b| is(b, MANTISSA)) => return self.number(start),
            b'\'' => {
                let Some(close) = self.find(start + 1, b'\'') else {
                    return self.invalid(start, || "unterminated string literal".into());
                };
                (TokenKind::StringLit(self.text(start + 1, close)), close + 1)
            }
            // Bracketed identifiers [Name] (SQL Server style).
            b'[' => {
                let Some(close) = self.find(start + 1, b']') else {
                    return self.invalid(start, || "unterminated bracketed identifier".into());
                };
                (TokenKind::Ident(self.text(start + 1, close)), close + 1)
            }
            _ => {
                // Every token ends on an ASCII byte, so `start` is a
                // character boundary.
                let ch = self.text(start, self.input.len()).chars().next();
                let ch = ch.unwrap_or(char::REPLACEMENT_CHARACTER);
                return self.invalid(start, || format!("unexpected character {ch:?}"));
            }
        };
        self.pos = end;
        Token {
            kind,
            offset: start,
        }
    }

    /// The [`TokenKind::Invalid`] token at `start`, keeping the first
    /// error's `message`. The position stays at `start`, so every later
    /// pull lexes the same bytes to the same token.
    #[cold]
    fn invalid(&mut self, start: usize, message: impl FnOnce() -> String) -> Token<'a> {
        if self.error.is_none() {
            self.error = Some(Error::Parse {
                offset: start,
                message: message(),
            });
        }
        Token {
            kind: TokenKind::Invalid,
            offset: start,
        }
    }

    /// Lex the number at `start`: an optional sign, digits and dots, and
    /// an optional exponent; it must parse as a finite `f64`.
    #[inline]
    fn number(&mut self, start: usize) -> Token<'a> {
        let mut end = start;
        if matches!(self.byte(end), Some(b'+' | b'-')) {
            end += 1;
        }
        end = self.run(end, MANTISSA);
        if matches!(self.byte(end), Some(b'e' | b'E')) {
            let mut exp = end + 1;
            if matches!(self.byte(exp), Some(b'+' | b'-')) {
                exp += 1;
            }
            if self.byte(exp).is_some_and(|b| is(b, DIGIT)) {
                end = self.run(exp, DIGIT);
            }
        }
        let text = self.text(start, end);
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => {
                self.pos = end;
                Token {
                    kind: TokenKind::Number(value),
                    offset: start,
                }
            }
            _ => self.invalid(start, || format!("malformed number {text:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_types::Result;

    /// Every token of `input` up to [`TokenKind::Eof`], or the lexer's
    /// error at the first [`TokenKind::Invalid`].
    fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(input);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.pull();
            if token.kind == TokenKind::Invalid {
                return Err(lexer.error().cloned().unwrap());
            }
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("select SELECT SeLeCt"),
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Eof
            ]
        );
        // Longer than any keyword, or a keyword's prefix: identifiers.
        assert_eq!(kinds("betweens")[0], TokenKind::Ident("betweens"));
        assert_eq!(kinds("sel")[0], TokenKind::Ident("sel"));
    }

    #[test]
    fn identifiers_preserve_case() {
        let ks = kinds("PhotoObj modelMag_g _x a1");
        assert_eq!(ks[0], TokenKind::Ident("PhotoObj"));
        assert_eq!(ks[1], TokenKind::Ident("modelMag_g"));
        assert_eq!(ks[2], TokenKind::Ident("_x"));
        assert_eq!(ks[3], TokenKind::Ident("a1"));
    }

    #[test]
    fn bracketed_identifier() {
        let ks = kinds("[Photo Obj]");
        assert_eq!(ks[0], TokenKind::Ident("Photo Obj"));
        // A bracketed keyword is a name.
        assert_eq!(kinds("[select]")[0], TokenKind::Ident("select"));
    }

    #[test]
    fn numbers() {
        let ks = kinds("17 0.95 .5 1e3 2.5E-2");
        assert_eq!(ks[0], TokenKind::Number(17.0));
        assert_eq!(ks[1], TokenKind::Number(0.95));
        assert_eq!(ks[2], TokenKind::Number(0.5));
        assert_eq!(ks[3], TokenKind::Number(1000.0));
        assert_eq!(ks[4], TokenKind::Number(0.025));
    }

    #[test]
    fn non_finite_numbers_rejected() {
        for text in ["1e309", "-1e309", "1e400"] {
            let err = tokenize(text).unwrap_err();
            assert!(
                matches!(&err, Error::Parse { offset: 0, message } if message.contains("malformed number")),
                "{text}: {err}"
            );
        }
        // The largest finite double still lexes.
        assert_eq!(
            kinds("1.7976931348623157e308")[0],
            TokenKind::Number(f64::MAX)
        );
    }

    #[test]
    fn negative_numbers() {
        let ks = kinds("-12.25 -0.5 -.5");
        assert_eq!(ks[0], TokenKind::Number(-12.25));
        assert_eq!(ks[1], TokenKind::Number(-0.5));
        assert_eq!(ks[2], TokenKind::Number(-0.5));
        // A bare minus without a digit is still an error...
        assert!(tokenize("- x").is_err());
        // ...and double dash is still a comment.
        let ks = kinds("5 --neg\n6");
        assert_eq!(ks[0], TokenKind::Number(5.0));
        assert_eq!(ks[1], TokenKind::Number(6.0));
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= < > <= >= <> !="),
            vec![
                TokenKind::Eq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn punctuation_and_star() {
        assert_eq!(
            kinds("p.ra, (*)"),
            vec![
                TokenKind::Ident("p"),
                TokenKind::Dot,
                TokenKind::Ident("ra"),
                TokenKind::Comma,
                TokenKind::LParen,
                TokenKind::Star,
                TokenKind::RParen,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_literals() {
        let ks = kinds("'GALAXY'");
        assert_eq!(ks[0], TokenKind::StringLit("GALAXY"));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("'oops").unwrap_err();
        assert!(matches!(err, Error::Parse { offset: 0, .. }));
    }

    #[test]
    fn line_comments_skipped() {
        let ks = kinds("select -- comment here\n 5");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Select));
        assert_eq!(ks[1], TokenKind::Number(5.0));
        // A comment that runs to the end of the input.
        assert_eq!(
            kinds("5 -- to the end"),
            vec![TokenKind::Number(5.0), TokenKind::Eof]
        );
    }

    #[test]
    fn unexpected_byte_reports_offset() {
        let err = tokenize("select ;").unwrap_err();
        match err {
            Error::Parse { offset, .. } => assert_eq!(offset, 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unexpected_character_is_named_whole() {
        let err = tokenize("select é from T").unwrap_err();
        match err {
            Error::Parse { offset, message } => {
                assert_eq!(offset, 7);
                assert_eq!(message, "unexpected character 'é'");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("select ra").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
        assert_eq!(toks[2].offset, 9);
    }

    #[test]
    fn eof_repeats() {
        let mut lexer = Lexer::new("x");
        assert_eq!(lexer.pull().kind, TokenKind::Ident("x"));
        for _ in 0..3 {
            assert_eq!(lexer.pull().kind, TokenKind::Eof);
        }
        assert!(lexer.error().is_none());
    }

    /// After an invalid token the lexer stays put: every later pull
    /// returns the same token, and the first error is kept.
    #[test]
    fn invalid_repeats() {
        for (input, offset, message) in [
            ("x 'open", 2, "unterminated string literal"),
            ("x !", 2, "expected '=' after '!'"),
            ("x 1e999 y", 2, "malformed number \"1e999\""),
            ("x ; y", 2, "unexpected character ';'"),
        ] {
            let mut lexer = Lexer::new(input);
            assert_eq!(lexer.pull().kind, TokenKind::Ident("x"));
            for _ in 0..3 {
                let token = lexer.pull();
                assert_eq!((token.kind, token.offset), (TokenKind::Invalid, offset));
                let expected = Error::Parse {
                    offset,
                    message: message.into(),
                };
                assert_eq!(lexer.error(), Some(&expected), "{input}");
            }
        }
    }

    /// Every letter case of every keyword, and no word one byte off.
    #[test]
    fn keyword_words() {
        for (word, kw) in [
            ("select", Keyword::Select),
            ("between", Keyword::Between),
            ("in", Keyword::In),
            ("desc", Keyword::Desc),
        ] {
            let n = word.len();
            for mask in 0..1u32 << n {
                let spelled: Vec<u8> = word
                    .bytes()
                    .enumerate()
                    .map(|(i, b)| match mask >> i & 1 {
                        1 => b.to_ascii_uppercase(),
                        _ => b,
                    })
                    .collect();
                assert_eq!(Keyword::from_word(&spelled), Some(kw), "{spelled:?}");
            }
            // The keyword with a byte dropped, appended or changed to a
            // non-letter whose folded form is a letter's neighbour.
            for cut in 0..n {
                let mut shorter = word.as_bytes().to_vec();
                shorter.remove(cut);
                assert_ne!(Keyword::from_word(&shorter), Some(kw), "{shorter:?}");
            }
            for extra in [b"_", b"1", b"s", b"@"] {
                let longer = [word.as_bytes(), extra].concat();
                assert_eq!(Keyword::from_word(&longer), None, "{longer:?}");
            }
        }
        // Bytes that fold onto no letter, or off the word's length.
        for word in [
            &b"SELEC\x14"[..],
            b"select\0",
            b"\0select",
            b"sel_ct",
            b"",
            b"betweens",
        ] {
            assert_eq!(Keyword::from_word(word), None, "{word:?}");
        }
        // '@' | 0x20 is '`', '[' | 0x20 is '{': neighbours of the letters.
        assert_eq!(Keyword::from_word(b"@s"), None);
        assert_eq!(Keyword::from_word(b"a["), None);
    }

    #[test]
    fn bare_identifiers() {
        for name in ["ra", "PhotoObj", "_x", "a1"] {
            assert!(is_bare_identifier(name), "{name}");
        }
        for name in ["", "a b", "1a", "select", "From", "é", "a-b"] {
            assert!(!is_bare_identifier(name), "{name}");
        }
    }

    #[test]
    fn full_paper_query_tokenizes() {
        let sql = "select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift \
                   from SpecObj s, PhotoObj p \
                   where p.objID = s.objID and s.specClass = 2 and s.zConf > 0.95 \
                   and p.modelMag_g > 17.0 and s.z < 0.01";
        let toks = tokenize(sql).unwrap();
        assert!(toks.len() > 30);
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }
}
