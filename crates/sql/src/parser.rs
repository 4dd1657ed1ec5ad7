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

use crate::ast::{Aggregate, ColumnRef, CompareOp, Predicate, Query, SelectItem, TableRef, Value};
use crate::token::{tokenize, Keyword, Token, TokenKind};
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

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_QUERY: &str = "select p.objID, p.ra, p.dec, p.modelMag_g, s.z as redshift \
         from SpecObj s, PhotoObj p \
         where p.objID = s.objID and s.specClass = 2 and s.zConf > 0.95 \
         and p.modelMag_g > 17.0 and s.z < 0.01";

    #[test]
    fn parses_paper_query() {
        let q = parse(PAPER_QUERY).unwrap();
        assert_eq!(q.projection.len(), 5);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.predicates.len(), 5);
        assert!(matches!(q.predicates[0], Predicate::Join { .. }));
        assert!(q.top.is_none());
        match &q.projection[4] {
            SelectItem::Column { column, alias } => {
                assert_eq!(column, &ColumnRef::qualified("s", "z"));
                assert_eq!(alias.as_deref(), Some("redshift"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn roundtrips_through_display() {
        let q = parse(PAPER_QUERY).unwrap();
        let rendered = q.to_string();
        let q2 = parse(&rendered).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parses_top_and_wildcard() {
        let q = parse("select top 100 * from PhotoObj").unwrap();
        assert_eq!(q.top, Some(100));
        assert_eq!(q.projection, vec![SelectItem::Wildcard]);
        assert!(q.predicates.is_empty());
    }

    #[test]
    fn parses_between() {
        let q = parse("select ra from PhotoObj where ra between 180 and 185.5").unwrap();
        match &q.predicates[0] {
            Predicate::Between { lo, hi, .. } => {
                assert_eq!(*lo, 180.0);
                assert_eq!(*hi, 185.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn between_out_of_order_rejected() {
        assert!(parse("select ra from P where ra between 9 and 1").is_err());
    }

    #[test]
    fn parses_aggregates() {
        let q = parse("select count(*), avg(p.z) as meanz from SpecObj p").unwrap();
        assert!(q.is_aggregate_only());
        match &q.projection[0] {
            SelectItem::Aggregate { func, arg, .. } => {
                assert_eq!(*func, Aggregate::Count);
                assert!(arg.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match &q.projection[1] {
            SelectItem::Aggregate { func, arg, alias } => {
                assert_eq!(*func, Aggregate::Avg);
                assert_eq!(arg.as_ref().unwrap(), &ColumnRef::qualified("p", "z"));
                assert_eq!(alias.as_deref(), Some("meanz"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn star_arg_only_for_count() {
        assert!(parse("select sum(*) from T").is_err());
    }

    #[test]
    fn or_rejected_with_clear_message() {
        let err = parse("select ra from P where ra > 1 or ra < 0").unwrap_err();
        assert!(err.to_string().contains("OR"));
    }

    #[test]
    fn group_by_rejected() {
        let err = parse("select count(*) from P group by run").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn string_predicate() {
        let q = parse("select objID from SpecObj where class = 'GALAXY'").unwrap();
        match &q.predicates[0] {
            Predicate::Compare { value, .. } => {
                assert_eq!(value, &Value::Text("GALAXY".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alias_forms() {
        let q = parse("select x from T as t1, U u2, V").unwrap();
        assert_eq!(q.from[0].binding_name(), "t1");
        assert_eq!(q.from[1].binding_name(), "u2");
        assert_eq!(q.from[2].binding_name(), "V");
    }

    #[test]
    fn join_requires_equality() {
        assert!(parse("select x from T, U where T.a < U.b").is_err());
        assert!(parse("select x from T, U where T.a = U.b").is_ok());
    }

    #[test]
    fn missing_from_errors() {
        let err = parse("select ra").unwrap_err();
        assert!(err.to_string().contains("FROM"));
    }

    #[test]
    fn trailing_garbage_errors() {
        assert!(parse("select ra from P where ra > 1 extra").is_err());
    }

    #[test]
    fn top_requires_integer() {
        assert!(parse("select top 1.5 ra from P").is_err());
    }

    #[test]
    fn empty_input_errors() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }
}
