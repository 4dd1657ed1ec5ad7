//! The lexer: source text → delimiter-matched token trees with spans.
//!
//! Comments vanish entirely; string/char/byte literals keep their kind
//! and span but drop their contents. That single property retires the
//! regex era's worst false-positive class: a rule matching on token
//! kinds and identifier text can never fire inside a comment or a
//! literal, because there is nothing there to match.

use std::fmt;

/// A 1-based source position (line, column in characters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column, counted in characters.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Bracketing delimiter of a [`Group`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delim {
    /// `( ... )`
    Paren,
    /// `[ ... ]`
    Bracket,
    /// `{ ... }`
    Brace,
}

/// What one leaf token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `CacheState`, `r#type` → `type`).
    Ident(String),
    /// Lifetime (`'a`, without the quote).
    Lifetime(String),
    /// Integer literal, lexical text preserved (`0xff`, `12_000u64`).
    Int(String),
    /// Float literal, lexical text preserved.
    Float(String),
    /// String/byte-string literal; contents dropped.
    Str,
    /// Char/byte literal; contents dropped.
    Char,
    /// One punctuation character. `joint` is true when the next token
    /// starts immediately after with another punctuation character —
    /// how `::`, `->`, `=>`, and `<<` are recognized downstream.
    Punct {
        /// The character.
        ch: char,
        /// True when glued to a following punctuation character.
        joint: bool,
    },
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this is punctuation character `ch`.
    pub fn is_punct(&self, want: char) -> bool {
        matches!(self, TokenKind::Punct { ch, .. } if *ch == want)
    }
}

/// One leaf token with its span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What it is.
    pub kind: TokenKind,
    /// Where it starts.
    pub span: Span,
}

/// A delimited token group (the contents of one `()`/`[]`/`{}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The delimiter kind.
    pub delim: Delim,
    /// Span of the opening delimiter.
    pub open: Span,
    /// The trees inside.
    pub trees: Vec<Tree>,
}

/// A token tree: a leaf token or a delimited group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tree {
    /// A leaf token.
    Leaf(Token),
    /// A delimited group.
    Group(Group),
}

impl Tree {
    /// The leaf token, if this is a leaf.
    pub fn leaf(&self) -> Option<&Token> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is a group.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }

    /// Span of the tree's first character.
    pub fn span(&self) -> Span {
        match self {
            Tree::Leaf(t) => t.span,
            Tree::Group(g) => g.open,
        }
    }
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    src: &'a str,
}

/// Lex `src` into top-level token trees.
///
/// # Errors
///
/// Unbalanced delimiters or an unterminated literal, with the span in
/// the message. Files that fail to lex surface as `parse-error`
/// findings rather than being silently skipped.
pub fn lex(src: &str) -> Result<Vec<Tree>, String> {
    let mut lexer = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        src,
    };
    let mut stack: Vec<(Delim, Span, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    while let Some((token, open_close)) = lexer.next_token()? {
        match open_close {
            OpenClose::Open(delim) => stack.push((delim, token.span, Vec::new())),
            OpenClose::Close(delim) => {
                let Some((open_delim, open_span, trees)) = stack.pop() else {
                    return Err(format!("unmatched closing delimiter at {}", token.span));
                };
                if open_delim != delim {
                    return Err(format!(
                        "mismatched delimiters: opened at {open_span}, closed at {}",
                        token.span
                    ));
                }
                let group = Tree::Group(Group {
                    delim,
                    open: open_span,
                    trees,
                });
                match stack.last_mut() {
                    Some((_, _, parent)) => parent.push(group),
                    None => top.push(group),
                }
            }
            OpenClose::Leaf => {
                let tree = Tree::Leaf(token);
                match stack.last_mut() {
                    Some((_, _, parent)) => parent.push(tree),
                    None => top.push(tree),
                }
            }
        }
    }
    if let Some((_, open_span, _)) = stack.last() {
        return Err(format!("unclosed delimiter opened at {open_span}"));
    }
    Ok(top)
}

enum OpenClose {
    Open(Delim),
    Close(Delim),
    Leaf,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn here(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    /// Skip whitespace and comments; error on an unterminated block
    /// comment.
    fn skip_trivia(&mut self) -> Result<(), String> {
        loop {
            match self.peek(0) {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek(1) == Some('/') => {
                    while let Some(c) = self.peek(0) {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek(1) == Some('*') => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    let mut depth = 1u32;
                    loop {
                        match (self.peek(0), self.peek(1)) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some('/'), Some('*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(format!("unterminated block comment at {start}"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn next_token(&mut self) -> Result<Option<(Token, OpenClose)>, String> {
        self.skip_trivia()?;
        let span = self.here();
        let Some(c) = self.peek(0) else {
            return Ok(None);
        };

        // Raw strings / raw identifiers / byte strings: r"", r#""#,
        // br"", b"", b'', r#ident.
        if (c == 'r' || c == 'b') && self.raw_or_byte_prefix() {
            return self.lex_prefixed_literal(span).map(Some);
        }

        if c == '_' || c.is_alphabetic() {
            let mut ident = String::new();
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    ident.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            return Ok(Some((
                Token {
                    kind: TokenKind::Ident(ident),
                    span,
                },
                OpenClose::Leaf,
            )));
        }

        if c.is_ascii_digit() {
            return self.lex_number(span).map(Some);
        }

        match c {
            '"' => {
                self.lex_string()?;
                Ok(Some((
                    Token {
                        kind: TokenKind::Str,
                        span,
                    },
                    OpenClose::Leaf,
                )))
            }
            '\'' => self.lex_quote(span).map(Some),
            '(' | '[' | '{' => {
                self.bump();
                let delim = match c {
                    '(' => Delim::Paren,
                    '[' => Delim::Bracket,
                    _ => Delim::Brace,
                };
                Ok(Some((
                    Token {
                        kind: TokenKind::Punct {
                            ch: c,
                            joint: false,
                        },
                        span,
                    },
                    OpenClose::Open(delim),
                )))
            }
            ')' | ']' | '}' => {
                self.bump();
                let delim = match c {
                    ')' => Delim::Paren,
                    ']' => Delim::Bracket,
                    _ => Delim::Brace,
                };
                Ok(Some((
                    Token {
                        kind: TokenKind::Punct {
                            ch: c,
                            joint: false,
                        },
                        span,
                    },
                    OpenClose::Close(delim),
                )))
            }
            _ => {
                self.bump();
                let joint = matches!(
                    self.peek(0),
                    Some(n) if !n.is_whitespace()
                        && !n.is_alphanumeric()
                        && n != '_'
                        && n != '"'
                        && n != '\''
                        && !matches!(n, '(' | ')' | '[' | ']' | '{' | '}')
                );
                Ok(Some((
                    Token {
                        kind: TokenKind::Punct { ch: c, joint },
                        span,
                    },
                    OpenClose::Leaf,
                )))
            }
        }
    }

    /// True when the cursor sits on `r`/`b` starting a raw/byte literal
    /// or raw identifier (rather than a plain identifier).
    fn raw_or_byte_prefix(&self) -> bool {
        let c = self.peek(0);
        match c {
            Some('r') => matches!(self.peek(1), Some('"') | Some('#')),
            Some('b') => match self.peek(1) {
                Some('"') | Some('\'') => true,
                Some('r') => matches!(self.peek(2), Some('"') | Some('#')),
                _ => false,
            },
            _ => false,
        }
    }

    fn lex_prefixed_literal(&mut self, span: Span) -> Result<(Token, OpenClose), String> {
        let first = self.bump().unwrap_or(' ');
        if first == 'b' && self.peek(0) == Some('\'') {
            // Byte literal b'x'.
            return self.lex_quote(span);
        }
        if first == 'b' && self.peek(0) == Some('"') {
            self.lex_string()?;
            return Ok((
                Token {
                    kind: TokenKind::Str,
                    span,
                },
                OpenClose::Leaf,
            ));
        }
        // `r` (or `br`) path: count hashes.
        if first == 'b' {
            self.bump(); // the `r`
        }
        let mut hashes = 0u32;
        while self.peek(0) == Some('#') {
            // `r#ident` (raw identifier): exactly one hash then
            // ident-start, and no quote.
            if hashes == 0
                && first == 'r'
                && matches!(self.peek(1), Some(c) if c == '_' || c.is_alphabetic())
            {
                self.bump();
                let mut ident = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        ident.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                return Ok((
                    Token {
                        kind: TokenKind::Ident(ident),
                        span,
                    },
                    OpenClose::Leaf,
                ));
            }
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some('"') {
            return Err(format!("malformed raw literal at {span}"));
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('"') => {
                    let mut matched = 0;
                    while matched < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        matched += 1;
                    }
                    if matched == hashes {
                        return Ok((
                            Token {
                                kind: TokenKind::Str,
                                span,
                            },
                            OpenClose::Leaf,
                        ));
                    }
                }
                Some(_) => {}
                None => return Err(format!("unterminated raw string at {span}")),
            }
        }
    }

    fn lex_string(&mut self) -> Result<(), String> {
        let span = self.here();
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('\\') => {
                    self.bump();
                }
                Some('"') => return Ok(()),
                Some(_) => {}
                None => return Err(format!("unterminated string at {span}")),
            }
        }
    }

    /// `'` starts either a char/byte literal or a lifetime.
    fn lex_quote(&mut self, span: Span) -> Result<(Token, OpenClose), String> {
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to closing quote.
                self.bump();
                self.bump(); // escape head (n, u, ', ...)
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                Ok((
                    Token {
                        kind: TokenKind::Char,
                        span,
                    },
                    OpenClose::Leaf,
                ))
            }
            Some(c) if c == '_' || c.is_alphabetic() => {
                // `'a'` is a char literal; `'a` (no closing quote) is a
                // lifetime. Identifier-like run, then look for `'`.
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek(0) == Some('\'') && name.chars().count() == 1 {
                    self.bump();
                    Ok((
                        Token {
                            kind: TokenKind::Char,
                            span,
                        },
                        OpenClose::Leaf,
                    ))
                } else {
                    Ok((
                        Token {
                            kind: TokenKind::Lifetime(name),
                            span,
                        },
                        OpenClose::Leaf,
                    ))
                }
            }
            Some(_) => {
                // Single non-alphabetic char literal, e.g. '-' or '('.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                Ok((
                    Token {
                        kind: TokenKind::Char,
                        span,
                    },
                    OpenClose::Leaf,
                ))
            }
            None => Err(format!("dangling quote at {span}")),
        }
    }

    fn lex_number(&mut self, span: Span) -> Result<(Token, OpenClose), String> {
        let start = self.pos;
        let mut is_float = false;
        // Integer part (incl. 0x/0b/0o bodies and suffixes).
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        // Fraction: a dot followed by a digit (so `1..2` and
        // `1.method()` stay integers).
        if self.peek(0) == Some('.') && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent sign: `1e-5` — the `-` is glued on after `e`.
        if matches!(
            self.chars.get(self.pos.saturating_sub(1)),
            Some('e') | Some('E')
        ) && matches!(self.peek(0), Some('+') | Some('-'))
            && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
        {
            is_float = true;
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let is_float = is_float || (text.contains('e') && !text.starts_with("0x"));
        let _ = self.src;
        Ok((
            Token {
                kind: if is_float {
                    TokenKind::Float(text)
                } else {
                    TokenKind::Int(text)
                },
                span,
            },
            OpenClose::Leaf,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(trees: &[Tree]) -> Vec<String> {
        let mut out = Vec::new();
        collect_idents(trees, &mut out);
        out
    }

    fn collect_idents(trees: &[Tree], out: &mut Vec<String>) {
        for t in trees {
            match t {
                Tree::Leaf(tok) => {
                    if let TokenKind::Ident(s) = &tok.kind {
                        out.push(s.clone());
                    }
                }
                Tree::Group(g) => collect_idents(&g.trees, out),
            }
        }
    }

    #[test]
    fn comments_and_strings_leave_no_identifiers() {
        let trees = lex("let x = \"unwrap()\"; // unwrap()\n/* panic!() */").unwrap();
        let ids = idents(&trees);
        assert_eq!(ids, vec!["let", "x"]);
    }

    #[test]
    fn nested_block_comments() {
        let trees = lex("a /* x /* unwrap */ y */ b").unwrap();
        assert_eq!(idents(&trees), vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let trees = lex("let s = r#\"panic!(\"x\")\"#; r#type").unwrap();
        assert_eq!(idents(&trees), vec!["let", "s", "type"]);
    }

    #[test]
    fn byte_literals() {
        let trees = lex("f(b'\\n', b\"bytes\", br#\"raw\"#)").unwrap();
        assert_eq!(idents(&trees), vec!["f"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let trees = lex("fn f<'a>(x: &'a str) -> char { 'u' }").unwrap();
        let ids = idents(&trees);
        assert!(ids.contains(&"str".to_string()));
        assert!(
            !ids.contains(&"u".to_string()),
            "char content dropped: {ids:?}"
        );
        let has_lifetime = {
            fn any_lt(trees: &[Tree]) -> bool {
                trees.iter().any(|t| match t {
                    Tree::Leaf(tok) => matches!(&tok.kind, TokenKind::Lifetime(n) if n == "a"),
                    Tree::Group(g) => any_lt(&g.trees),
                })
            }
            any_lt(&trees)
        };
        assert!(has_lifetime);
    }

    #[test]
    fn numbers_floats_and_method_calls() {
        let trees = lex("1.0 + 2 . max(3) + x.0 + 1e-5").unwrap();
        let mut floats = 0;
        let mut ints = 0;
        fn count(trees: &[Tree], floats: &mut u32, ints: &mut u32) {
            for t in trees {
                match t {
                    Tree::Leaf(tok) => match &tok.kind {
                        TokenKind::Float(_) => *floats += 1,
                        TokenKind::Int(_) => *ints += 1,
                        _ => {}
                    },
                    Tree::Group(g) => count(&g.trees, floats, ints),
                }
            }
        }
        count(&trees, &mut floats, &mut ints);
        assert_eq!(floats, 2, "1.0 and 1e-5");
        assert_eq!(ints, 3, "2, 3, and x.0's tuple index 0");
    }

    #[test]
    fn groups_nest_with_spans() {
        let trees = lex("fn f() {\n    g([1, 2]);\n}").unwrap();
        let body = trees
            .iter()
            .filter_map(|t| t.group())
            .find(|g| g.delim == Delim::Brace)
            .expect("brace group");
        assert_eq!(body.open.line, 1);
        let call = body.trees.iter().find_map(|t| t.group()).unwrap();
        assert_eq!(call.delim, Delim::Paren);
        assert_eq!(call.open.line, 2);
        let arr = call.trees.iter().find_map(|t| t.group()).unwrap();
        assert_eq!(arr.delim, Delim::Bracket);
    }

    #[test]
    fn joint_puncts() {
        let trees = lex("a::b -> c => d < e").unwrap();
        let joints: Vec<(char, bool)> = trees
            .iter()
            .filter_map(|t| t.leaf())
            .filter_map(|t| match t.kind {
                TokenKind::Punct { ch, joint } => Some((ch, joint)),
                _ => None,
            })
            .collect();
        assert_eq!(
            joints,
            vec![
                (':', true),
                (':', false),
                ('-', true),
                ('>', false),
                ('=', true),
                ('>', false),
                ('<', false),
            ]
        );
    }

    #[test]
    fn unbalanced_delimiters_error() {
        assert!(lex("fn f() {").is_err());
        assert!(lex("fn f() }").is_err());
        assert!(lex("(]").is_err());
    }

    #[test]
    fn shebang_like_attr_tokens_survive() {
        let trees = lex("#![warn(missing_docs)]\n#[derive(Clone)] struct S;").unwrap();
        assert!(idents(&trees).contains(&"derive".to_string()));
    }
}
