//! Property tests for the SQL substrate: every syntactically valid AST
//! the grammar can express must render to SQL that re-parses to the same
//! AST (display/parse round-trip), and the parser must never panic on
//! arbitrary input.
//!
//! The ASTs are generated in the oracle's owning form (`oracle/ast.rs`)
//! and borrowed for rendering, so the same tree also renders through the
//! first `Display`: with plain names both renderings are the same bytes.

mod oracle;

use byc_sql::{parse, Aggregate, CompareOp};
use oracle::ast::{ColumnRef, Predicate, Query, SelectItem, TableRef, Value};
use oracle::borrowed;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// A name strategy: which names a generated AST may use.
type Names = fn() -> BoxedStrategy<String>;

/// Identifiers that can't collide with keywords: always end with '_'.
fn plain() -> BoxedStrategy<String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,10}_".boxed()
}

/// Names that only survive rendering in brackets: keywords in any case,
/// spaces, leading digits, non-ASCII, the empty name; and plain ones.
fn odd() -> BoxedStrategy<String> {
    prop_oneof![
        plain(),
        prop_oneof![
            Just("select"),
            Just("From"),
            Just("as"),
            Just("BETWEEN"),
            Just("count"),
            Just("or"),
        ]
        .prop_map(str::to_string),
        "[a-z]{1,3} [a-z]{1,3}",
        "[0-9][a-z_]{0,3}",
        "[a-z]{0,2}é[a-z]{0,2}",
        Just(String::new()),
    ]
    .boxed()
}

fn column_ref(name: Names) -> impl Strategy<Value = ColumnRef> {
    (proptest::option::of(name()), name())
        .prop_map(|(qualifier, column)| ColumnRef { qualifier, column })
}

fn literal_number() -> impl Strategy<Value = f64> {
    // Finite, display-stable numbers.
    (-1.0e12..1.0e12f64).prop_map(|v| (v * 1e6).round() / 1e6)
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        literal_number().prop_map(Value::Number),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Text),
    ]
}

fn compare_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ]
}

fn aggregate() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Count),
        Just(Aggregate::Sum),
        Just(Aggregate::Avg),
        Just(Aggregate::Min),
        Just(Aggregate::Max),
    ]
}

fn select_item(name: Names) -> impl Strategy<Value = SelectItem> {
    prop_oneof![
        Just(SelectItem::Wildcard),
        (column_ref(name), proptest::option::of(name()))
            .prop_map(|(column, alias)| SelectItem::Column { column, alias }),
        (aggregate(), column_ref(name), proptest::option::of(name())).prop_map(
            |(func, arg, alias)| SelectItem::Aggregate {
                func,
                arg: Some(arg),
                alias,
            }
        ),
        proptest::option::of(name()).prop_map(|alias| SelectItem::Aggregate {
            func: Aggregate::Count,
            arg: None,
            alias,
        }),
    ]
}

fn table_ref(name: Names) -> impl Strategy<Value = TableRef> {
    (name(), proptest::option::of(name())).prop_map(|(table, alias)| TableRef { table, alias })
}

fn predicate(name: Names) -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (column_ref(name), compare_op(), value())
            .prop_map(|(column, op, value)| { Predicate::Compare { column, op, value } }),
        (column_ref(name), literal_number(), 0.0..1e6f64).prop_map(|(column, lo, span)| {
            let lo = (lo * 1e6).round() / 1e6;
            let hi = ((lo + span) * 1e6).round() / 1e6;
            Predicate::Between { column, lo, hi }
        }),
        (column_ref(name), column_ref(name))
            .prop_map(|(left, right)| Predicate::Join { left, right }),
    ]
}

fn query(name: Names) -> impl Strategy<Value = Query> {
    (
        proptest::option::of(0u64..1_000_000),
        proptest::collection::vec(select_item(name), 1..6),
        proptest::collection::vec(table_ref(name), 1..4),
        proptest::collection::vec(predicate(name), 0..6),
    )
        .prop_map(|(top, projection, from, predicates)| Query {
            top,
            projection,
            from,
            predicates,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// display → parse is the identity on the AST, and with plain names
    /// the rendering is the first renderer's, byte for byte.
    #[test]
    fn render_parse_roundtrip(tree in query(plain)) {
        let q = borrowed(&tree);
        let sql = q.to_string();
        prop_assert_eq!(&sql, &tree.to_string());
        let reparsed = parse(&sql)
            .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {sql:?}: {e}"));
        prop_assert_eq!(reparsed, q);
    }

    /// Names that are keywords or not plain words render in brackets and
    /// still re-parse to the same AST.
    #[test]
    fn bracketed_names_roundtrip(tree in query(odd)) {
        let q = borrowed(&tree);
        let sql = q.to_string();
        let reparsed = parse(&sql)
            .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {sql:?}: {e}"));
        prop_assert_eq!(reparsed, q);
    }

    /// The parser returns (never panics) on arbitrary input.
    #[test]
    fn parser_total_on_garbage(input in "\\PC{0,120}") {
        let _ = parse(&input);
    }

    /// The parser returns on arbitrary *byte-ish* ASCII soup that looks
    /// vaguely like SQL.
    #[test]
    fn parser_total_on_sqlish_soup(
        input in "(select|from|where|and|between|,|\\*|\\(|\\)|[a-z]{1,4}|[0-9]{1,3}|'[a-z]*'| )*"
    ) {
        let _ = parse(&input);
    }
}
