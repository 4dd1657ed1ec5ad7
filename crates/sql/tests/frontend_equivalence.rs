//! The SQL front end against its oracle, on generated and corrupted
//! text.
//!
//! Every case writes a query from the grammar against the EDR catalog:
//! `TOP`, `*`, aggregates over `*` or a column, aliases with and without
//! `AS`, bracketed names, comma joins, `BETWEEN`, every comparison
//! operator, string literals, `--` comments, mixed-case keywords, and
//! numbers spelled `.5`, `-0`, `1e3` or `2.5E-2`. Then it mutates the
//! text: truncation at every character boundary, splices of two queries,
//! flipped bytes, inserted non-ASCII text and swapped keywords.
//!
//! Wherever the oracle (the first front end, in `oracle/`) parses a
//! text, the shipped parser must give the same AST, field for field;
//! wherever the oracle refuses it, the shipped parser must return an
//! `Err`. The one deliberate difference: a literal that is not finite
//! (`1e309`), which the oracle read as infinity, is refused. Where both
//! parse, `analyze` must give an equal `ResolvedQuery` (up to string
//! literals' text, which the shipped resolution does not keep) or fail
//! on both sides, and the yield decomposition must equal the first one's
//! below 2^53 and sum to the total above it. Neither side may panic.
//!
//! Every case of a run also goes through one long-lived `Query`,
//! `ResolvedQuery` and `YieldBreakdown`, refilled by `parse_into`,
//! `analyze_into` and `estimate_into`: each must equal what the fresh
//! calls return, errors included, whatever the cases before it left in
//! them.

mod oracle;

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::Catalog;
use byc_engine::{YieldBreakdown, YieldModel};
use byc_sql::{Query, ResolvedQuery};
use byc_types::SplitMix64;
use proptest::prelude::*;

const KEYWORDS: &[&str] = &[
    "select", "top", "from", "where", "and", "or", "as", "between", "count", "sum", "avg", "min",
    "max", "group", "order", "by", "asc", "desc", "not", "in",
];

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    usize::try_from(rng.next_bounded(n.max(1) as u64)).unwrap()
}

/// One `FROM` entry as written: the table, its alias, and the name
/// that binds it (the alias, else the table).
struct Entry {
    table: String,
    alias: Option<String>,
    binding: String,
}

/// Writes one query's text from the grammar.
struct Writer<'c> {
    rng: SplitMix64,
    catalog: &'c Catalog,
    out: String,
}

impl Writer<'_> {
    fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// Whitespace where the grammar needs some: mostly one space,
    /// sometimes tabs and newlines or a `--` comment.
    fn gap(&mut self) {
        match pick(&mut self.rng, 12) {
            0 => self.out.push_str("\n\t"),
            1 => self.out.push_str(" -- a comment, with 'quotes' and é\n"),
            2 => self.out.push_str("  \r\n "),
            _ => self.out.push(' '),
        }
    }

    /// Optional whitespace around punctuation.
    fn maybe_gap(&mut self) {
        if self.chance(0.5) {
            self.gap();
        }
    }

    /// A keyword in random letter case.
    fn kw(&mut self, word: &str) {
        self.gap();
        let mode = pick(&mut self.rng, 3);
        for c in word.chars() {
            let upper = match mode {
                0 => false,
                1 => true,
                _ => self.chance(0.5),
            };
            self.out
                .push(if upper { c.to_ascii_uppercase() } else { c });
        }
        self.gap();
    }

    /// A name: bare when it lexes as itself, else (and sometimes anyway)
    /// in brackets.
    fn name(&mut self, name: &str) {
        let plain = name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
            && !KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(name));
        if plain && !self.chance(0.1) {
            self.out.push_str(name);
        } else {
            self.out.push('[');
            self.out.push_str(name);
            self.out.push(']');
        }
    }

    /// A number in one of the spellings the lexer takes.
    fn number(&mut self, v: f64) {
        let text = match pick(&mut self.rng, 7) {
            0 => format!("{v:e}"),
            1 => format!("{v:E}"),
            2 if v == 0.0 => "-0".to_string(),
            3 if v.abs() < 1.0 && v != 0.0 => format!("{v}").replacen("0.", ".", 1),
            4 if v >= 0.0 => format!("+{v}"),
            5 if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.1}"),
            _ => format!("{v}"),
        };
        self.out.push_str(&text);
    }

    /// A value for a literal: mostly plain, rarely huge or not finite.
    fn value(&mut self) -> f64 {
        match pick(&mut self.rng, 40) {
            0 => 1e308,
            1 => f64::INFINITY, // spelled 1e309 below
            2 => 0.0,
            3 => 0.5,
            4 => 1000.0,
            5 => 0.025,
            _ => ((self.rng.next_f64() * 500.0 - 100.0) * 1e3).round() / 1e3,
        }
    }

    fn literal(&mut self, v: f64) {
        if v.is_infinite() {
            self.out
                .push_str(["1e309", "-1e400", "1E999"][pick(&mut self.rng, 3)]);
        } else {
            self.number(v);
        }
    }

    fn column(&mut self, from: &[Entry]) {
        let at = pick(&mut self.rng, from.len());
        let Some(entry) = from.get(at) else { return };
        let column = match self.catalog.table_by_name(&entry.table) {
            Ok(table) if !self.chance(0.08) => {
                let id = table.columns[pick(&mut self.rng, table.columns.len())];
                self.catalog.column(id).name.clone()
            }
            _ => ["nope", "objID", "ra", "a b"][pick(&mut self.rng, 4)].to_string(),
        };
        if self.chance(0.8) {
            let binding = if self.chance(0.05) {
                "q"
            } else {
                &entry.binding
            };
            let binding = binding.to_string();
            self.name(&binding);
            self.maybe_gap();
            self.out.push('.');
            self.maybe_gap();
        }
        self.name(&column);
    }

    fn alias(&mut self) -> String {
        match pick(&mut self.rng, 12) {
            0 => "from".to_string(),
            1 => "a b".to_string(),
            2 => "p".to_string(),
            _ => format!("t{}", pick(&mut self.rng, 6)),
        }
    }

    fn query(mut self) -> String {
        self.kw("select");
        if self.chance(0.2) {
            self.kw("top");
            let n = [0.0, 10.0, 1000.0, 1.5, 1e20][pick(&mut self.rng, 5)];
            self.number(n);
            self.gap();
        }
        // Choose the FROM list first so columns can name its entries.
        let tables = self.catalog.tables();
        let mut from = Vec::new();
        for _ in 0..=pick(&mut self.rng, 3) {
            let table = if self.chance(0.05) {
                "NoSuchTable".to_string()
            } else {
                tables[pick(&mut self.rng, tables.len())].name.clone()
            };
            let alias = self.chance(0.6).then(|| self.alias());
            from.push(Entry {
                binding: alias.clone().unwrap_or_else(|| table.clone()),
                table,
                alias,
            });
        }

        for i in 0..=pick(&mut self.rng, 4) {
            if i > 0 {
                self.maybe_gap();
                self.out.push(',');
                self.maybe_gap();
            }
            match pick(&mut self.rng, 10) {
                0 => self.out.push('*'),
                1 | 2 => {
                    let func = ["count", "sum", "avg", "min", "max"][pick(&mut self.rng, 5)];
                    self.kw(func);
                    self.out.push('(');
                    self.maybe_gap();
                    if func == "count" && self.chance(0.5) || self.chance(0.03) {
                        self.out.push('*');
                    } else {
                        self.column(&from);
                    }
                    self.maybe_gap();
                    self.out.push(')');
                    if self.chance(0.3) {
                        self.kw("as");
                        let alias = format!("n{i}");
                        self.name(&alias);
                    }
                }
                _ => {
                    self.column(&from);
                    if self.chance(0.2) {
                        self.kw("as");
                        let alias = if self.chance(0.2) { "where" } else { "out_" };
                        self.name(alias);
                    }
                }
            }
        }

        self.kw("from");
        for (i, entry) in from.iter().enumerate() {
            if i > 0 {
                self.maybe_gap();
                self.out.push(',');
                self.maybe_gap();
            }
            self.name(&entry.table);
            if let Some(alias) = &entry.alias {
                if self.chance(0.5) {
                    self.kw("as");
                } else {
                    self.gap();
                }
                self.name(alias);
            }
        }

        if self.chance(0.7) {
            self.kw("where");
            for i in 0..=pick(&mut self.rng, 3) {
                if i > 0 {
                    let and = if self.chance(0.03) { "or" } else { "and" };
                    self.kw(and);
                }
                self.predicate(&from);
            }
        }
        if self.chance(0.03) {
            self.kw("group");
            self.kw("by");
            self.out.push('x');
        }
        self.out
    }

    fn predicate(&mut self, from: &[Entry]) {
        self.column(from);
        match pick(&mut self.rng, 10) {
            0..=2 => {
                self.kw("between");
                let (a, b) = (self.value(), self.value());
                let (lo, hi) = if self.chance(0.9) {
                    (a.min(b), a.max(b))
                } else {
                    (a, b)
                };
                self.literal(lo);
                self.kw("and");
                self.literal(hi);
            }
            3 | 4 => {
                // Equi-join, now and then with a non-equality operator.
                self.maybe_gap();
                let op = if self.chance(0.9) { "=" } else { "<" };
                self.out.push_str(op);
                self.maybe_gap();
                self.column(from);
            }
            _ => {
                self.maybe_gap();
                let ops = ["=", "<>", "!=", "<", "<=", ">", ">="];
                let op = ops[pick(&mut self.rng, ops.len())];
                self.out.push_str(op);
                self.maybe_gap();
                if self.chance(0.15) {
                    let s = ["'GALAXY'", "''", "'two words'", "'é'"][pick(&mut self.rng, 4)];
                    self.out.push_str(s);
                } else {
                    let v = self.value();
                    self.literal(v);
                }
            }
        }
    }
}

/// A character boundary of `s`, at random.
fn boundary(rng: &mut SplitMix64, s: &str) -> usize {
    let mut at = pick(rng, s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Corrupted copies of `sql`: every truncation, splices with `other`,
/// flipped bytes, inserted non-ASCII text and swapped keywords.
fn mutants(sql: &str, other: &str, rng: &mut SplitMix64) -> Vec<String> {
    let mut out: Vec<String> = (0..=sql.len())
        .filter(|&i| sql.is_char_boundary(i))
        .map(|i| sql[..i].to_string())
        .collect();
    for _ in 0..8 {
        let (i, j) = (boundary(rng, sql), boundary(rng, other));
        out.push(format!("{}{}", &sql[..i], &other[j..]));
    }
    let flips = b" ,.()*=<>!'[]-+eE019abXZ_\t\n;%";
    for _ in 0..12 {
        let at = boundary(rng, sql);
        if sql.as_bytes().get(at).is_some_and(u8::is_ascii) {
            let mut bytes = sql.as_bytes().to_vec();
            bytes[at] = flips[pick(rng, flips.len())];
            out.push(String::from_utf8(bytes).unwrap());
        }
    }
    for _ in 0..4 {
        let at = boundary(rng, sql);
        let text = ["é", "😀", "\u{a0}", "日本", "\u{300}", "ß"][pick(rng, 6)];
        out.push(format!("{}{text}{}", &sql[..at], &sql[at..]));
    }
    let lower = sql.to_ascii_lowercase();
    for _ in 0..4 {
        let from = KEYWORDS[pick(rng, KEYWORDS.len())];
        let to = KEYWORDS[pick(rng, KEYWORDS.len())];
        if let Some(at) = lower.find(from) {
            out.push(format!("{}{to}{}", &sql[..at], &sql[at + from.len()..]));
        }
    }
    out
}

/// How far one text got on both sides.
#[derive(Default)]
struct Tally {
    parsed: usize,
    analyzed: usize,
    huge: usize,
}

/// The decomposition's promise: each sums to the total, unless the
/// query references no column (a bare `count(*)`), when every share is
/// zero.
fn sums_to_total(b: &YieldBreakdown) -> bool {
    let total = u128::from(b.total.raw());
    let tables: u128 = b.per_table.iter().map(|&(_, y)| u128::from(y.raw())).sum();
    let columns: u128 = b.per_column.iter().map(|&(_, y)| u128::from(y.raw())).sum();
    if b.per_column.is_empty() {
        tables == 0
    } else {
        tables == total && columns == total
    }
}

/// Run one text through both front ends and compare.
fn check(catalog: &Catalog, text: &str, tally: &mut Tally) {
    let shipped = byc_sql::parse(text);
    let expected = match oracle::parser::parse(text) {
        Err(_) => {
            assert!(
                shipped.is_err(),
                "parsed {text:?}, which the oracle refuses"
            );
            return;
        }
        Ok(q) if oracle::has_non_finite(&q) => {
            assert!(
                shipped.is_err(),
                "accepted a non-finite literal in {text:?}"
            );
            return;
        }
        Ok(q) => q,
    };
    let query =
        shipped.unwrap_or_else(|e| panic!("refused {text:?}, which the oracle parses: {e}"));
    assert_eq!(oracle::owned(&query), expected, "{text:?}");
    tally.parsed += 1;

    let shipped = byc_sql::analyze(catalog, &query);
    let expected = match oracle::analyzer::analyze(catalog, &expected) {
        Err(_) => {
            assert!(
                shipped.is_err(),
                "analyzed {text:?}, which the oracle refuses"
            );
            return;
        }
        Ok(r) => r,
    };
    let resolved =
        shipped.unwrap_or_else(|e| panic!("refused {text:?}, which the oracle analyzes: {e}"));
    assert_eq!(
        oracle::owned_resolved(&resolved),
        oracle::without_text(expected),
        "{text:?}"
    );
    tally.analyzed += 1;

    let breakdown = YieldModel::new(catalog).estimate(&resolved);
    if breakdown.total.raw() < 1 << 53 {
        assert_eq!(
            breakdown,
            oracle::yield_model::estimate(catalog, &resolved),
            "{text:?}"
        );
    } else {
        tally.huge += 1;
    }
    assert!(sums_to_total(&breakdown), "{text:?}: {breakdown:?}");
}

/// One value of each front-end stage that case after case refills.
#[derive(Default)]
struct Reused<'t> {
    query: Query<'t>,
    resolved: ResolvedQuery,
    breakdown: YieldBreakdown,
}

/// The fresh call's result and the refilled value's agree: equal
/// values, or equal errors. Returns the fresh value when both succeed.
fn same<T: PartialEq + std::fmt::Debug>(
    text: &str,
    fresh: byc_types::Result<T>,
    refilled: byc_types::Result<()>,
    value: &T,
) -> Option<T> {
    match (fresh, refilled) {
        (Ok(fresh), Ok(())) => {
            assert_eq!(value, &fresh, "{text:?}");
            Some(fresh)
        }
        (Err(fresh), Err(refilled)) => {
            assert_eq!(refilled, fresh, "{text:?}");
            None
        }
        (fresh, refilled) => panic!("{text:?}: fresh {fresh:?}, refilled {refilled:?}"),
    }
}

/// Run one text through the `_into` forms on `reused` and through the
/// fresh calls: every stage must agree.
fn check_reuse<'t>(catalog: &Catalog, text: &'t str, reused: &mut Reused<'t>) {
    let fresh = byc_sql::parse(text);
    let refilled = byc_sql::parse_into(text, &mut reused.query);
    let Some(query) = same(text, fresh, refilled, &reused.query) else {
        return;
    };
    let fresh = byc_sql::analyze(catalog, &query);
    let refilled = byc_sql::analyze_into(catalog, &reused.query, &mut reused.resolved);
    let Some(resolved) = same(text, fresh, refilled, &reused.resolved) else {
        return;
    };
    let model = YieldModel::new(catalog);
    model.estimate_into(&reused.resolved, &mut reused.breakdown);
    assert_eq!(reused.breakdown, model.estimate(&resolved), "{text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated queries and their mutants, on both front ends, and
    /// through one refilled value of each stage.
    #[test]
    fn front_end_matches_oracle(seed in any::<u64>()) {
        let catalog = build(SdssRelease::Edr, 0.01, 1);
        let mut rng = SplitMix64::new(seed);
        let write = |rng: &mut SplitMix64| Writer {
            rng: SplitMix64::new(rng.next_u64()),
            catalog: &catalog,
            out: String::new(),
        }
        .query();
        let mut texts = Vec::new();
        for _ in 0..4 {
            let sql = write(&mut rng);
            let other = write(&mut rng);
            let mutated = mutants(&sql, &other, &mut rng);
            texts.push(sql);
            texts.extend(mutated);
        }
        let mut tally = Tally::default();
        let mut reused = Reused::default();
        for text in &texts {
            check(&catalog, text, &mut tally);
            check_reuse(&catalog, text, &mut reused);
        }
    }
}

/// Over a fixed run, the generated queries reach every stage.
#[test]
fn generator_reaches_every_stage() {
    let catalog = build(SdssRelease::Edr, 0.01, 1);
    let mut rng = SplitMix64::new(17);
    let mut tally = Tally::default();
    let runs = 400;
    for _ in 0..runs {
        let sql = Writer {
            rng: SplitMix64::new(rng.next_u64()),
            catalog: &catalog,
            out: String::new(),
        }
        .query();
        check(&catalog, &sql, &mut tally);
    }
    assert!(
        tally.parsed > runs * 3 / 4,
        "parsed {} of {runs}",
        tally.parsed
    );
    assert!(
        tally.analyzed > runs / 3,
        "analyzed {} of {runs}",
        tally.analyzed
    );
    assert!(tally.huge > 0, "no total reached 2^53");
}

/// The two cross joins that overflowed the first decomposition: both
/// front ends agree up to the yield, and the shipped decomposition sums.
#[test]
fn cross_joins_sum_to_total() {
    let catalog = build(SdssRelease::Edr, 0.01, 1);
    let mut tally = Tally::default();
    for sql in [
        "select * from PhotoObj a, PhotoObj b, PhotoObj c",
        "select * from PhotoObj a, PhotoObj b, PhotoObj c, PhotoObj d",
    ] {
        check(&catalog, sql, &mut tally);
    }
    assert_eq!((tally.analyzed, tally.huge), (2, 2));
}
