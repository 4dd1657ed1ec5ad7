//! Abstract syntax tree for the SDSS SELECT subset.
//!
//! The AST mirrors the trace grammar: a projection list (columns,
//! aggregates, or `*`), a comma-join `FROM` list with optional aliases, and
//! a conjunctive `WHERE` clause. Every name and string literal is a slice
//! of the query text the tree was parsed from (`'static` for the
//! generator's templates). `Display` renders back to SQL so that
//! synthesized traces are readable and parse⟲render round-trips: a name
//! that is not a plain identifier, or that spells a keyword, renders in
//! brackets.

use crate::token::is_bare_identifier;
use std::fmt;

/// A name as SQL text: bare when it lexes back as this identifier,
/// otherwise in brackets.
struct Name<'a>(&'a str);

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if is_bare_identifier(self.0) {
            f.write_str(self.0)
        } else {
            write!(f, "[{}]", self.0)
        }
    }
}

/// A possibly-qualified column reference, e.g. `p.ra` or `ra`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColumnRef<'a> {
    /// Table name or alias qualifier, if written.
    pub qualifier: Option<&'a str>,
    /// Column name.
    pub column: &'a str,
}

impl<'a> ColumnRef<'a> {
    /// An unqualified reference.
    pub fn bare(column: &'a str) -> Self {
        Self {
            qualifier: None,
            column,
        }
    }

    /// A qualified reference.
    pub fn qualified(qualifier: &'a str, column: &'a str) -> Self {
        Self {
            qualifier: Some(qualifier),
            column,
        }
    }
}

impl fmt::Display for ColumnRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(q) = self.qualifier {
            write!(f, "{}.", Name(q))?;
        }
        write!(f, "{}", Name(self.column))
    }
}

/// Aggregate functions in the trace grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl Aggregate {
    /// SQL spelling.
    pub const fn name(self) -> &'static str {
        match self {
            Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Avg => "avg",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
        }
    }
}

/// One item in the projection list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectItem<'a> {
    /// All columns of all tables in scope (`*`).
    Wildcard,
    /// A plain column, optionally renamed with `AS`.
    Column {
        /// The referenced column.
        column: ColumnRef<'a>,
        /// Output name, if given.
        alias: Option<&'a str>,
    },
    /// An aggregate over a column (or `*` for `COUNT`), optionally renamed.
    Aggregate {
        /// The aggregate function.
        func: Aggregate,
        /// Argument column; `None` means `*` (only valid for `COUNT`).
        arg: Option<ColumnRef<'a>>,
        /// Output name, if given.
        alias: Option<&'a str>,
    },
}

impl fmt::Display for SelectItem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Column { column, alias } => {
                write!(f, "{column}")?;
                if let Some(a) = alias {
                    write!(f, " as {}", Name(a))?;
                }
                Ok(())
            }
            SelectItem::Aggregate { func, arg, alias } => {
                match arg {
                    Some(c) => write!(f, "{}({c})", func.name())?,
                    None => write!(f, "{}(*)", func.name())?,
                }
                if let Some(a) = alias {
                    write!(f, " as {}", Name(a))?;
                }
                Ok(())
            }
        }
    }
}

/// A table in the `FROM` list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableRef<'a> {
    /// Base table name.
    pub table: &'a str,
    /// Alias, if given (`PhotoObj p`).
    pub alias: Option<&'a str>,
}

impl<'a> TableRef<'a> {
    /// A table reference without alias.
    pub fn new(table: &'a str) -> Self {
        Self { table, alias: None }
    }

    /// A table reference with alias.
    pub fn aliased(table: &'a str, alias: &'a str) -> Self {
        Self {
            table,
            alias: Some(alias),
        }
    }

    /// The name that qualifies columns of this table: the alias when
    /// present, otherwise the table name.
    pub fn binding_name(&self) -> &'a str {
        self.alias.unwrap_or(self.table)
    }
}

impl fmt::Display for TableRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Name(self.table))?;
        if let Some(a) = self.alias {
            write!(f, " {}", Name(a))?;
        }
        Ok(())
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// SQL spelling.
    pub const fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A literal value on the right-hand side of a comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value<'a> {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Text(&'a str),
}

impl fmt::Display for Value<'_> {
    // The cast is exact: the number is integral and below 1e15.
    #[allow(clippy::cast_possible_truncation)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

/// One conjunct of the `WHERE` clause.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Predicate<'a> {
    /// `col OP literal`.
    Compare {
        /// Left-hand column.
        column: ColumnRef<'a>,
        /// Operator.
        op: CompareOp,
        /// Literal right-hand side.
        value: Value<'a>,
    },
    /// `col BETWEEN lo AND hi`.
    Between {
        /// The constrained column.
        column: ColumnRef<'a>,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// `col = col` — an equi-join between two tables (or a same-table
    /// column equality, which the analyzer treats as a filter).
    Join {
        /// Left column.
        left: ColumnRef<'a>,
        /// Right column.
        right: ColumnRef<'a>,
    },
}

impl fmt::Display for Predicate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { column, op, value } => {
                write!(f, "{column} {} {value}", op.symbol())
            }
            Predicate::Between { column, lo, hi } => {
                write!(f, "{column} between {lo} and {hi}")
            }
            Predicate::Join { left, right } => write!(f, "{left} = {right}"),
        }
    }
}

/// A parsed SELECT query, borrowing its names and literals from the
/// query text. The default is the empty query [`crate::parse_into`]
/// refills.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Query<'a> {
    /// `TOP n` row limit, if present.
    pub top: Option<u64>,
    /// Projection list (non-empty).
    pub projection: Vec<SelectItem<'a>>,
    /// `FROM` list (non-empty).
    pub from: Vec<TableRef<'a>>,
    /// Conjunctive `WHERE` predicates (possibly empty).
    pub predicates: Vec<Predicate<'a>>,
}

impl Query<'_> {
    /// True iff every projection item is an aggregate. Aggregate-only
    /// queries return a single row, which matters to the yield model.
    pub fn is_aggregate_only(&self) -> bool {
        !self.projection.is_empty()
            && self
                .projection
                .iter()
                .all(|i| matches!(i, SelectItem::Aggregate { .. }))
    }
}

impl fmt::Display for Query<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        if let Some(n) = self.top {
            write!(f, "top {n} ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " from ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        if !self.predicates.is_empty() {
            write!(f, " where ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("ra").to_string(), "ra");
        assert_eq!(ColumnRef::qualified("p", "ra").to_string(), "p.ra");
    }

    #[test]
    fn odd_names_render_bracketed() {
        assert_eq!(ColumnRef::qualified("p", "a b").to_string(), "p.[a b]");
        assert_eq!(
            ColumnRef::qualified("from", "select").to_string(),
            "[from].[select]"
        );
        assert_eq!(
            TableRef::aliased("Photo Obj", "As").to_string(),
            "[Photo Obj] [As]"
        );
        assert_eq!(ColumnRef::bare("").to_string(), "[]");
        let item = SelectItem::Column {
            column: ColumnRef::bare("ra"),
            alias: Some("1st"),
        };
        assert_eq!(item.to_string(), "ra as [1st]");
    }

    #[test]
    fn table_ref_binding_name() {
        assert_eq!(TableRef::new("PhotoObj").binding_name(), "PhotoObj");
        assert_eq!(TableRef::aliased("PhotoObj", "p").binding_name(), "p");
    }

    #[test]
    fn value_display_integers_clean() {
        assert_eq!(Value::Number(2.0).to_string(), "2");
        assert_eq!(Value::Number(0.95).to_string(), "0.95");
        assert_eq!(Value::Text("GALAXY").to_string(), "'GALAXY'");
    }

    #[test]
    fn query_display_full() {
        let q = Query {
            top: Some(10),
            projection: vec![
                SelectItem::Column {
                    column: ColumnRef::qualified("p", "ra"),
                    alias: None,
                },
                SelectItem::Aggregate {
                    func: Aggregate::Count,
                    arg: None,
                    alias: Some("n"),
                },
            ],
            from: vec![TableRef::aliased("PhotoObj", "p")],
            predicates: vec![
                Predicate::Between {
                    column: ColumnRef::qualified("p", "ra"),
                    lo: 180.0,
                    hi: 190.0,
                },
                Predicate::Compare {
                    column: ColumnRef::qualified("p", "type"),
                    op: CompareOp::Eq,
                    value: Value::Number(3.0),
                },
            ],
        };
        assert_eq!(
            q.to_string(),
            "select top 10 p.ra, count(*) as n from PhotoObj p \
             where p.ra between 180 and 190 and p.type = 3"
        );
    }

    #[test]
    fn aggregate_only_detection() {
        let agg = Query {
            top: None,
            projection: vec![SelectItem::Aggregate {
                func: Aggregate::Count,
                arg: None,
                alias: None,
            }],
            from: vec![TableRef::new("PhotoObj")],
            predicates: vec![],
        };
        assert!(agg.is_aggregate_only());

        let mixed = Query {
            projection: vec![
                SelectItem::Aggregate {
                    func: Aggregate::Max,
                    arg: Some(ColumnRef::bare("z")),
                    alias: None,
                },
                SelectItem::Column {
                    column: ColumnRef::bare("plate"),
                    alias: None,
                },
            ],
            ..agg
        };
        assert!(!mixed.is_aggregate_only());
    }

    #[test]
    fn aggregate_names() {
        assert_eq!(Aggregate::Count.name(), "count");
        assert_eq!(Aggregate::Avg.name(), "avg");
    }

    #[test]
    fn op_symbols() {
        assert_eq!(CompareOp::Ge.symbol(), ">=");
        assert_eq!(CompareOp::Ne.symbol(), "<>");
    }
}
