//! Abstract syntax tree for the SDSS SELECT subset.
//!
//! The AST mirrors the trace grammar: a projection list (columns,
//! aggregates, or `*`), a comma-join `FROM` list with optional aliases, and
//! a conjunctive `WHERE` clause. `Display` renders back to SQL so that
//! synthesized traces are readable and parse⟲render round-trips.

use std::fmt;

// Unchanged by the borrowing rewrite, so shared with it.
pub use byc_sql::{Aggregate, CompareOp};

/// A possibly-qualified column reference, e.g. `p.ra` or `ra`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier, if written.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        Self {
            qualifier: None,
            column: column.into(),
        }
    }

    /// A qualified reference.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// One item in the projection list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// All columns of all tables in scope (`*`).
    Wildcard,
    /// A plain column, optionally renamed with `AS`.
    Column {
        /// The referenced column.
        column: ColumnRef,
        /// Output name, if given.
        alias: Option<String>,
    },
    /// An aggregate over a column (or `*` for `COUNT`), optionally renamed.
    Aggregate {
        /// The aggregate function.
        func: Aggregate,
        /// Argument column; `None` means `*` (only valid for `COUNT`).
        arg: Option<ColumnRef>,
        /// Output name, if given.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Column { column, alias } => {
                write!(f, "{column}")?;
                if let Some(a) = alias {
                    write!(f, " as {a}")?;
                }
                Ok(())
            }
            SelectItem::Aggregate { func, arg, alias } => {
                match arg {
                    Some(c) => write!(f, "{}({c})", func.name())?,
                    None => write!(f, "{}(*)", func.name())?,
                }
                if let Some(a) = alias {
                    write!(f, " as {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// A table in the `FROM` list.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Base table name.
    pub table: String,
    /// Alias, if given (`PhotoObj p`).
    pub alias: Option<String>,
}

impl TableRef {
    /// A table reference without alias.
    pub fn new(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            alias: None,
        }
    }

    /// A table reference with alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name that qualifies columns of this table: the alias when
    /// present, otherwise the table name.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {a}", self.table),
            None => write!(f, "{}", self.table),
        }
    }
}

/// A literal value on the right-hand side of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Text(String),
}

impl fmt::Display for Value {
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
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `col OP literal`.
    Compare {
        /// Left-hand column.
        column: ColumnRef,
        /// Operator.
        op: CompareOp,
        /// Literal right-hand side.
        value: Value,
    },
    /// `col BETWEEN lo AND hi`.
    Between {
        /// The constrained column.
        column: ColumnRef,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// `col = col` — an equi-join between two tables (or a same-table
    /// column equality, which the analyzer treats as a filter).
    Join {
        /// Left column.
        left: ColumnRef,
        /// Right column.
        right: ColumnRef,
    },
}

impl fmt::Display for Predicate {
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

/// A parsed SELECT query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// `TOP n` row limit, if present.
    pub top: Option<u64>,
    /// Projection list (non-empty).
    pub projection: Vec<SelectItem>,
    /// `FROM` list (non-empty).
    pub from: Vec<TableRef>,
    /// Conjunctive `WHERE` predicates (possibly empty).
    pub predicates: Vec<Predicate>,
}

impl Query {
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

impl fmt::Display for Query {
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
