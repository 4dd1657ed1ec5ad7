//! Recursive-descent parser for the SDSS SELECT subset.
//!
//! Grammar (conjunctive; `OR` is rejected with a targeted error because the
//! trace workload never uses it and the yield model assumes conjuncts):
//!
//! ```text
//! query      := SELECT [TOP number] items FROM tables [WHERE conjuncts]
//! items      := item (',' item)*
//! item       := '*' | agg '(' ('*' | colref) ')' [AS ident] | colref [AS ident]
//! tables     := tableref (',' tableref)*
//! tableref   := ident [[AS] ident]
//! conjuncts  := predicate (AND predicate)*
//! predicate  := colref BETWEEN number AND number
//!             | colref op (number | string | colref)
//! colref     := ident ['.' ident]
//! ```

use super::ast::{Aggregate, ColumnRef, CompareOp, Predicate, Query, SelectItem, TableRef, Value};
use super::token::{tokenize, Keyword, Token, TokenKind};
use byc_types::{Error, Result};

/// Parse a single SELECT statement.
///
/// # Errors
///
/// [`Error::Parse`] with a byte offset and message on any deviation from
/// the grammar, including use of `OR`, `GROUP BY`, and `ORDER BY` (outside
/// the trace subset).
pub fn parse(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// 2^64: a `TOP` count must be below it to fit a `u64` exactly.
const TOP_LIMIT: f64 = 18_446_744_073_709_551_616.0;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword, what: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn error(&self, message: String) -> Error {
        Error::Parse {
            offset: self.offset(),
            message,
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        match self.peek() {
            TokenKind::Eof => Ok(()),
            TokenKind::Keyword(Keyword::GroupKw) => {
                Err(self.error("GROUP BY is outside the trace subset".into()))
            }
            TokenKind::Keyword(Keyword::OrderKw) => {
                Err(self.error("ORDER BY is outside the trace subset".into()))
            }
            other => Err(self.error(format!("unexpected trailing input: {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw(Keyword::Select, "SELECT")?;
        let top = if self.eat_kw(Keyword::Top) {
            match self.bump() {
                TokenKind::Number(n) if (0.0..TOP_LIMIT).contains(&n) && n.fract() == 0.0 => {
                    // Exact: integral and in range.
                    #[allow(clippy::cast_possible_truncation)]
                    Some(n as u64)
                }
                _ => return Err(self.error("expected non-negative integer after TOP".into())),
            }
        } else {
            None
        };
        let mut projection = vec![self.select_item()?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            projection.push(self.select_item()?);
        }
        self.expect_kw(Keyword::From, "FROM")?;
        let mut from = vec![self.table_ref()?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            from.push(self.table_ref()?);
        }
        let mut predicates = Vec::new();
        if self.eat_kw(Keyword::Where) {
            predicates.push(self.predicate()?);
            loop {
                if self.eat_kw(Keyword::And) {
                    predicates.push(self.predicate()?);
                } else if *self.peek() == TokenKind::Keyword(Keyword::Or) {
                    return Err(self.error(
                        "OR is outside the trace subset (conjunctive queries only)".into(),
                    ));
                } else {
                    break;
                }
            }
        }
        Ok(Query {
            top,
            projection,
            from,
            predicates,
        })
    }

    fn aggregate_kw(&self) -> Option<Aggregate> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Count) => Some(Aggregate::Count),
            TokenKind::Keyword(Keyword::Sum) => Some(Aggregate::Sum),
            TokenKind::Keyword(Keyword::Avg) => Some(Aggregate::Avg),
            TokenKind::Keyword(Keyword::Min) => Some(Aggregate::Min),
            TokenKind::Keyword(Keyword::Max) => Some(Aggregate::Max),
            _ => None,
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if *self.peek() == TokenKind::Star {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        if let Some(func) = self.aggregate_kw() {
            self.bump();
            if self.bump() != TokenKind::LParen {
                return Err(self.error("expected '(' after aggregate".into()));
            }
            let arg = if *self.peek() == TokenKind::Star {
                self.bump();
                if func != Aggregate::Count {
                    return Err(self.error("'*' argument is only valid for COUNT".into()));
                }
                None
            } else {
                Some(self.column_ref()?)
            };
            if self.bump() != TokenKind::RParen {
                return Err(self.error("expected ')' after aggregate argument".into()));
            }
            let alias = self.optional_alias()?;
            return Ok(SelectItem::Aggregate { func, arg, alias });
        }
        let column = self.column_ref()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Column { column, alias })
    }

    fn optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) {
            Ok(Some(self.ident("alias after AS")?))
        } else {
            Ok(None)
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident("table name")?;
        // Optional alias: `PhotoObj p` or `PhotoObj AS p`.
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident("alias after AS")?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident("alias")?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident("column reference")?;
        if *self.peek() == TokenKind::Dot {
            self.bump();
            let column = self.ident("column name after '.'")?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    fn compare_op(&mut self) -> Result<CompareOp> {
        let op = match self.peek() {
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::Ne => CompareOp::Ne,
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Gt => CompareOp::Gt,
            TokenKind::Ge => CompareOp::Ge,
            other => {
                return Err(self.error(format!("expected comparison operator, found {other:?}")))
            }
        };
        self.bump();
        Ok(op)
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let column = self.column_ref()?;
        if self.eat_kw(Keyword::Between) {
            let lo = match self.bump() {
                TokenKind::Number(n) => n,
                _ => return Err(self.error("expected number after BETWEEN".into())),
            };
            self.expect_kw(Keyword::And, "AND in BETWEEN")?;
            let hi = match self.bump() {
                TokenKind::Number(n) => n,
                _ => return Err(self.error("expected number after BETWEEN ... AND".into())),
            };
            if lo > hi {
                return Err(self.error(format!("BETWEEN bounds out of order: {lo} > {hi}")));
            }
            return Ok(Predicate::Between { column, lo, hi });
        }
        let op = self.compare_op()?;
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(Predicate::Compare {
                    column,
                    op,
                    value: Value::Number(n),
                })
            }
            TokenKind::StringLit(s) => {
                self.bump();
                Ok(Predicate::Compare {
                    column,
                    op,
                    value: Value::Text(s),
                })
            }
            TokenKind::Ident(_) => {
                if op != CompareOp::Eq {
                    return Err(
                        self.error("column-to-column predicates must use '=' (equi-join)".into())
                    );
                }
                let right = self.column_ref()?;
                Ok(Predicate::Join {
                    left: column,
                    right,
                })
            }
            other => Err(self.error(format!("expected literal or column, found {other:?}"))),
        }
    }
}
