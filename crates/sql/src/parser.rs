//! Recursive-descent parser for the SDSS SELECT subset.
//!
//! The parser pulls one token at a time from the [`Lexer`] and keeps a
//! single lookahead token; tokens are `Copy` and borrow the query text,
//! so the only allocations a parse makes are the [`Query`]'s three lists,
//! and [`parse_into`] refills those in place.
//!
//! Moving the lookahead cannot fail: bytes the lexer cannot read pull as
//! [`TokenKind::Invalid`], which no grammar rule accepts, and every
//! error the parser reports is the lexer's once it has one. A parse
//! therefore fails with the lexer's offset and message exactly when the
//! grammar consumed the token before the unreadable bytes, as if the
//! error had been raised by that step.
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
use crate::token::{Keyword, Lexer, Token, TokenKind};
use byc_types::{Error, Result};

/// Parse a single SELECT statement. The [`Query`] borrows its names and
/// string literals from `input`.
///
/// # Errors
///
/// As [`parse_into`].
pub fn parse(input: &str) -> Result<Query<'_>> {
    let mut query = Query::default();
    parse_into(input, &mut query)?;
    Ok(query)
}

/// Parse a single SELECT statement into `query`, refilling its three
/// lists in place: a caller that parses many texts into one `Query`
/// allocates only when a text is wider than every one before it. On an
/// error `query` holds part of a parse; the next call overwrites it.
///
/// # Errors
///
/// [`Error::Parse`] with a byte offset and message on any deviation from
/// the grammar, including use of `OR`, `GROUP BY`, and `ORDER BY` (outside
/// the trace subset).
pub fn parse_into<'a>(input: &'a str, query: &mut Query<'a>) -> Result<()> {
    let mut lexer = Lexer::new(input);
    let next = lexer.pull();
    let mut p = Parser { lexer, next };
    p.query(query)?;
    p.expect_eof()
}

/// 2^64: a `TOP` count must be below it to fit a `u64` exactly.
const TOP_LIMIT: f64 = 18_446_744_073_709_551_616.0;

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead: the first token the grammar has not consumed.
    next: Token<'a>,
}

impl<'a> Parser<'a> {
    #[inline]
    fn peek(&self) -> TokenKind<'a> {
        self.next.kind
    }

    fn offset(&self) -> usize {
        self.next.offset
    }

    /// Consume the lookahead and pull the next token.
    #[inline]
    fn bump(&mut self) -> TokenKind<'a> {
        let kind = self.next.kind;
        self.lexer.pull_into(&mut self.next);
        kind
    }

    #[inline]
    fn eat(&mut self, kind: TokenKind<'a>) -> bool {
        let found = self.peek() == kind;
        if found {
            self.bump();
        }
        found
    }

    #[inline]
    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(TokenKind::Keyword(kw))
    }

    fn expect_kw(&mut self, kw: Keyword, what: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    /// The parse's error: the lexer's, once it pulled an invalid token,
    /// else `message` at the lookahead. No rule accepts an invalid
    /// token and the lexer returns it on every later pull, so a parse
    /// that pulled one fails at some later step; a lexer returning a
    /// `Result` per token would have failed at the step that pulled it,
    /// with its own error, which is therefore the one to report.
    #[cold]
    fn error(&self, message: String) -> Error {
        match self.lexer.error() {
            Some(e) => e.clone(),
            None => Error::Parse {
                offset: self.offset(),
                message,
            },
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

    #[inline(always)]
    fn ident(&mut self, what: &str) -> Result<&'a str> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn query(&mut self, q: &mut Query<'a>) -> Result<()> {
        q.projection.clear();
        q.from.clear();
        q.predicates.clear();
        self.expect_kw(Keyword::Select, "SELECT")?;
        q.top = if self.eat_kw(Keyword::Top) {
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
        loop {
            self.select_item(&mut q.projection)?;
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect_kw(Keyword::From, "FROM")?;
        loop {
            self.table_ref(&mut q.from)?;
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        if self.eat_kw(Keyword::Where) {
            loop {
                self.predicate(&mut q.predicates)?;
                if self.eat_kw(Keyword::And) {
                    continue;
                }
                if self.peek() == TokenKind::Keyword(Keyword::Or) {
                    return Err(self.error(
                        "OR is outside the trace subset (conjunctive queries only)".into(),
                    ));
                }
                break;
            }
        }
        Ok(())
    }

    #[inline]
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

    /// Parse one projection item onto `items`. Each step below pushes
    /// its value where it is built rather than returning it: a value
    /// built field by field and then moved whole is read back before
    /// its stores have landed.
    #[inline]
    fn select_item(&mut self, items: &mut Vec<SelectItem<'a>>) -> Result<()> {
        if self.eat(TokenKind::Star) {
            items.push(SelectItem::Wildcard);
            return Ok(());
        }
        if let Some(func) = self.aggregate_kw() {
            self.bump();
            if self.bump() != TokenKind::LParen {
                return Err(self.error("expected '(' after aggregate".into()));
            }
            let arg = if self.eat(TokenKind::Star) {
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
            items.push(SelectItem::Aggregate { func, arg, alias });
            return Ok(());
        }
        let column = self.column_ref()?;
        let alias = self.optional_alias()?;
        items.push(SelectItem::Column { column, alias });
        Ok(())
    }

    #[inline]
    fn optional_alias(&mut self) -> Result<Option<&'a str>> {
        if self.eat_kw(Keyword::As) {
            Ok(Some(self.ident("alias after AS")?))
        } else {
            Ok(None)
        }
    }

    #[inline]
    fn table_ref(&mut self, tables: &mut Vec<TableRef<'a>>) -> Result<()> {
        let table = self.ident("table name")?;
        // Optional alias: `PhotoObj p` or `PhotoObj AS p`.
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident("alias after AS")?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident("alias")?)
        } else {
            None
        };
        tables.push(TableRef { table, alias });
        Ok(())
    }

    #[inline(always)]
    fn column_ref(&mut self) -> Result<ColumnRef<'a>> {
        let first = self.ident("column reference")?;
        if self.eat(TokenKind::Dot) {
            let column = self.ident("column name after '.'")?;
            Ok(ColumnRef::qualified(first, column))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    #[inline]
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

    #[inline]
    fn predicate(&mut self, predicates: &mut Vec<Predicate<'a>>) -> Result<()> {
        let column = self.column_ref()?;
        if self.eat_kw(Keyword::Between) {
            let TokenKind::Number(lo) = self.bump() else {
                return Err(self.error("expected number after BETWEEN".into()));
            };
            self.expect_kw(Keyword::And, "AND in BETWEEN")?;
            let TokenKind::Number(hi) = self.bump() else {
                return Err(self.error("expected number after BETWEEN ... AND".into()));
            };
            if lo > hi {
                return Err(self.error(format!("BETWEEN bounds out of order: {lo} > {hi}")));
            }
            predicates.push(Predicate::Between { column, lo, hi });
            return Ok(());
        }
        let op = self.compare_op()?;
        let value = match self.peek() {
            TokenKind::Number(n) => Value::Number(n),
            TokenKind::StringLit(s) => Value::Text(s),
            TokenKind::Ident(_) => {
                if op != CompareOp::Eq {
                    return Err(
                        self.error("column-to-column predicates must use '=' (equi-join)".into())
                    );
                }
                let right = self.column_ref()?;
                predicates.push(Predicate::Join {
                    left: column,
                    right,
                });
                return Ok(());
            }
            other => return Err(self.error(format!("expected literal or column, found {other:?}"))),
        };
        self.bump();
        predicates.push(Predicate::Compare { column, op, value });
        Ok(())
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
    fn odd_names_roundtrip_in_brackets() {
        for sql in [
            "select [a b] from T",
            "select [select] from [from]",
            "select [from].[as] as [where], count(*) as [1st] from [group] [from]",
            "select [] from T",
        ] {
            let q = parse(sql).unwrap();
            assert_eq!(parse(&q.to_string()).unwrap(), q, "{sql} -> {q}");
        }
    }

    #[test]
    fn non_finite_literal_rejected() {
        let err = parse("select ra from T where ra between 1e308 and 1e309").unwrap_err();
        assert!(err.to_string().contains("malformed number"), "{err}");
        assert!(parse("select ra from T where ra between 1e307 and 1e308").is_ok());
    }

    #[test]
    fn names_borrow_the_text() {
        let sql = String::from("select p.ra from PhotoObj p where p.class = 'STAR'");
        let q = parse(&sql).unwrap();
        let text = sql.as_bytes().as_ptr_range();
        let SelectItem::Column { column, .. } = q.projection[0] else {
            panic!("unexpected {:?}", q.projection[0]);
        };
        assert!(text.contains(&column.column.as_ptr()));
        assert!(text.contains(&q.from[0].table.as_ptr()));
        let Predicate::Compare {
            value: Value::Text(s),
            ..
        } = q.predicates[0]
        else {
            panic!("unexpected {:?}", q.predicates[0]);
        };
        assert_eq!(s, "STAR");
        assert!(text.contains(&s.as_ptr()));
    }

    #[test]
    fn parse_into_refills_in_place() {
        let mut q = Query::default();
        parse_into(PAPER_QUERY, &mut q).unwrap();
        let capacities = (
            q.projection.capacity(),
            q.from.capacity(),
            q.predicates.capacity(),
        );
        for sql in ["select top 3 ra from T", "select x", PAPER_QUERY] {
            let fresh = parse(sql);
            let refilled = parse_into(sql, &mut q);
            match fresh {
                Ok(fresh) => assert_eq!(q, fresh, "{sql}"),
                Err(e) => assert_eq!(refilled, Err(e), "{sql}"),
            }
            assert_eq!(
                (
                    q.projection.capacity(),
                    q.from.capacity(),
                    q.predicates.capacity()
                ),
                capacities,
                "{sql}"
            );
        }
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
                assert_eq!(value, &Value::Text("GALAXY"));
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
