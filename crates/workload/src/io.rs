//! Trace serialization: JSON-lines files.
//!
//! Format: one header object on the first line (`name`, `seed`,
//! `query_count`, `format_version`), then one [`TraceQuery`] per line.
//! Line-delimited JSON keeps huge traces streamable and lets externally
//! collected traces be converted with ordinary text tooling.
//!
//! [`TraceWriter`] writes every query line in one layout, spelled once
//! here (`key`), and a line in that layout is decoded in one straight
//! pass, where it lies in the reader's buffer, into whatever the caller
//! keeps: a [`TraceQuery`], or a replay trace's slices. Any other line
//! goes to the step-wise decoder on [`byc_types::json::Cursor`], the only
//! authority on what is accepted and the only source of error text: it
//! writes each field straight into a reused [`TraceQuery`] slot, members
//! may come in any order, unknown members are checked and skipped, and
//! the first of duplicate members wins.
//!
//! Every reader runs one loop over the lines of a byte range of the
//! file (`Lines`): [`TraceReader`] over the whole body, to end of file,
//! and [`read_trace`] and [`crate::ReplayTrace::read`] over one range
//! per core.

use crate::trace::{Trace, TraceQuery};
use byc_types::json::{self, plain_run, Cursor, Value};
use byc_types::{Bytes, ColumnId, Error, QueryId, Result, TableId};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;

/// Current file-format version.
pub const FORMAT_VERSION: u32 = 1;

#[derive(Clone, Debug)]
pub(crate) struct Header {
    format_version: u32,
    pub(crate) name: String,
    seed: u64,
    query_count: usize,
}

impl Header {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "format_version".into(),
                Value::u64(self.format_version.into()),
            ),
            ("name".into(), Value::str(&self.name)),
            ("seed".into(), Value::u64(self.seed)),
            ("query_count".into(), Value::u64(self.query_count as u64)),
        ])
    }
}

/// The writer's layout of a query line: `{`, then each member's key, with
/// the `,` before it and the `:` after it, and its value, in this order,
/// then `}` and `\n`. [`TraceWriter::write`] writes these bytes and the
/// one pass matches them.
mod key {
    pub(super) const ID: &str = "{\"id\":";
    pub(super) const SQL: &str = ",\"sql\":";
    pub(super) const TEMPLATE: &str = ",\"template\":";
    pub(super) const DATA_KEYS: &str = ",\"data_keys\":";
    pub(super) const TABLES: &str = ",\"tables\":";
    pub(super) const COLUMNS: &str = ",\"columns\":";
    pub(super) const TOTAL_YIELD: &str = ",\"total_yield\":";
    pub(super) const TABLE_YIELDS: &str = ",\"table_yields\":";
    pub(super) const COLUMN_YIELDS: &str = ",\"column_yields\":";
}

/// Append `q` to `out` as one line in the writer's layout, its `\n`
/// included. Integers are written as plain digit runs and the SQL text
/// through [`json::write_string`].
fn render(out: &mut String, q: &TraceQuery) -> std::fmt::Result {
    /// `[`, each item, separated by `,`, then `]`.
    fn list<T>(
        out: &mut String,
        items: &[T],
        mut item: impl FnMut(&mut String, &T) -> std::fmt::Result,
    ) -> std::fmt::Result {
        out.push('[');
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item(out, x)?;
        }
        out.push(']');
        Ok(())
    }
    write!(out, "{}{}{}", key::ID, q.id.raw(), key::SQL)?;
    json::write_string(out, &q.sql)?;
    write!(out, "{}{}{}", key::TEMPLATE, q.template, key::DATA_KEYS)?;
    list(out, &q.data_keys, |out, k| write!(out, "{k}"))?;
    out.push_str(key::TABLES);
    list(out, &q.tables, |out, t| write!(out, "{}", t.raw()))?;
    out.push_str(key::COLUMNS);
    list(out, &q.columns, |out, c| write!(out, "{}", c.raw()))?;
    let total = q.total_yield.raw();
    write!(out, "{}{total}{}", key::TOTAL_YIELD, key::TABLE_YIELDS)?;
    list(out, &q.table_yields, |out, (t, b)| {
        write!(out, "[{},{}]", t.raw(), b.raw())
    })?;
    out.push_str(key::COLUMN_YIELDS);
    list(out, &q.column_yields, |out, (c, b)| {
        write!(out, "[{},{}]", c.raw(), b.raw())
    })?;
    out.push_str("}\n");
    Ok(())
}

/// A decoding step's result: a message the reader prefixes with the line.
type Decoded<T> = std::result::Result<T, String>;

/// The members of a query line, in the order the writer emits them.
const QUERY_FIELDS: [&str; 9] = [
    "id",
    "sql",
    "template",
    "data_keys",
    "tables",
    "columns",
    "total_yield",
    "table_yields",
    "column_yields",
];

/// The members of the header line.
const HEADER_FIELDS: [&str; 4] = ["format_version", "name", "seed", "query_count"];

/// Decode one query line into `slot`, reusing its buffers: in one pass
/// when it is in the writer's layout, as the readers do, and otherwise
/// with the step-wise decoder.
///
/// Everything [`TraceReader`] accepts on a query line is accepted here:
/// members in any order, unknown members (checked, then skipped), the
/// first of duplicate members, escapes anywhere, and any integral
/// spelling of an integer that [`byc_types::json::Num::as_u64`] takes,
/// such as `5.0` or `-0`.
///
/// # Errors
///
/// [`Error::TraceFormat`] on malformed JSON, a missing member, a member
/// of the wrong type or an integer out of its field's range. `slot` is
/// then left partly overwritten.
pub fn decode_query(line: &[u8], slot: &mut TraceQuery) -> Result<()> {
    if decode_written(line, slot) {
        return Ok(());
    }
    decode_stepwise(line, slot)
}

/// [`decode_query`]'s one pass alone: `true` when `line` is a query line
/// in the writer's layout, with or without its line end, decoded into
/// `slot`. On `false` `slot` is left partly overwritten.
#[doc(hidden)]
pub fn decode_written(line: &[u8], slot: &mut TraceQuery) -> bool {
    let mut sink = Queries {
        slot: std::mem::take(slot),
        queries: Vec::new(),
    };
    // The body of the pass alone: the slot is all the caller keeps, so
    // the line is not copied out at its end.
    let taken = layout(line, true, &mut sink).is_some();
    *slot = sink.slot;
    taken
}

/// [`decode_query`]'s step-wise decoder alone, whatever the line's
/// layout.
///
/// # Errors
///
/// As [`decode_query`].
#[doc(hidden)]
pub fn decode_stepwise(line: &[u8], slot: &mut TraceQuery) -> Result<()> {
    decode_line(line, slot, &mut String::new()).map_err(Error::TraceFormat)
}

fn decode_line(line: &[u8], q: &mut TraceQuery, key: &mut String) -> Decoded<()> {
    let mut cursor = Cursor::new(line);
    if cursor.peek() != Some(b'{') {
        return Err("query is not an object".into());
    }
    decode_object(&mut cursor, key, &QUERY_FIELDS, |field, cursor| {
        match field {
            0 => q.id = QueryId::new(u32_of(cursor)?),
            1 => cursor.string(&mut q.sql)?,
            2 => q.template = u32_of(cursor)?,
            3 => list(cursor, &mut q.data_keys, u64_of)?,
            4 => list(cursor, &mut q.tables, |c| u32_of(c).map(TableId::new))?,
            5 => list(cursor, &mut q.columns, |c| u32_of(c).map(ColumnId::new))?,
            6 => q.total_yield = Bytes::new(u64_of(cursor)?),
            7 => list(cursor, &mut q.table_yields, |c| {
                pair(c).map(|(id, b)| (TableId::new(id), b))
            })?,
            _ => list(cursor, &mut q.column_yields, |c| {
                pair(c).map(|(id, b)| (ColumnId::new(id), b))
            })?,
        }
        Ok(())
    })?;
    cursor.done()
}

fn decode_header(line: &[u8]) -> Decoded<Header> {
    let mut header = Header {
        format_version: 0,
        name: String::new(),
        seed: 0,
        query_count: 0,
    };
    let mut cursor = Cursor::new(line);
    decode_object(
        &mut cursor,
        &mut String::new(),
        &HEADER_FIELDS,
        |field, cursor| {
            match field {
                0 => header.format_version = u32_of(cursor)?,
                1 => cursor.string(&mut header.name)?,
                2 => header.seed = u64_of(cursor)?,
                _ => {
                    let count = u64_of(cursor)?;
                    header.query_count =
                        usize::try_from(count).map_err(|_| format!("{count} is not a usize"))?;
                }
            }
            Ok(())
        },
    )?;
    cursor.done()?;
    Ok(header)
}

/// Step through one object: `read(i, cursor)` reads the value of the
/// first member named `fields[i]`; every other member is skipped. Each
/// of `fields` (at most 32) must be present.
fn decode_object(
    cursor: &mut Cursor<'_>,
    key: &mut String,
    fields: &[&str],
    mut read: impl FnMut(usize, &mut Cursor<'_>) -> Decoded<()>,
) -> Decoded<()> {
    cursor.object()?;
    let mut seen = 0u32;
    while cursor.member(key)? {
        let field = fields.iter().zip(0..).find(|(name, _)| **name == *key);
        match field {
            Some((name, i)) if seen & 1 << i == 0 => {
                seen |= 1 << i;
                read(i, cursor).map_err(|e| format!("field {name:?}: {e}"))?;
            }
            _ => cursor.skip_value()?,
        }
    }
    match fields.iter().zip(0..).find(|&(_, i)| seen & 1 << i == 0) {
        Some((name, _)) => Err(format!("missing field {name:?}")),
        None => Ok(()),
    }
}

fn u64_of(cursor: &mut Cursor<'_>) -> Decoded<u64> {
    cursor
        .number()?
        .as_u64()
        .ok_or_else(|| "not a u64".to_string())
}

fn u32_of(cursor: &mut Cursor<'_>) -> Decoded<u32> {
    let v = u64_of(cursor)?;
    u32::try_from(v).map_err(|_| format!("{v} is not a u32"))
}

/// Refill `out` from an array, one `item` per element.
fn list<T>(
    cursor: &mut Cursor<'_>,
    out: &mut Vec<T>,
    mut item: impl FnMut(&mut Cursor<'_>) -> Decoded<T>,
) -> Decoded<()> {
    out.clear();
    cursor.array()?;
    while cursor.element()? {
        out.push(item(cursor)?);
    }
    Ok(())
}

/// One `[id, bytes]` yield pair.
fn pair(cursor: &mut Cursor<'_>) -> Decoded<(u32, Bytes)> {
    const SHAPE: &str = "entries must be [id, bytes] pairs";
    cursor.array()?;
    if !cursor.element()? {
        return Err(SHAPE.into());
    }
    let id = u32_of(cursor)?;
    if !cursor.element()? {
        return Err(SHAPE.into());
    }
    let bytes = u64_of(cursor)?;
    if cursor.element()? {
        return Err(SHAPE.into());
    }
    Ok((id, Bytes::new(bytes)))
}

/// Where a query line goes, member by member, in the order the writer
/// emits them: from the one pass over a line in the writer's layout, or
/// from a query the step-wise decoder filled ([`Self::query`]). A sink
/// may drop a member, as the default methods do: it has been checked as
/// the step-wise decoder checks it. The pass calls [`Self::start`] once
/// it has the line's id, and then either [`Self::end`], once the whole
/// line is read, or [`Self::undo`], where it gives up. Before `start` it
/// may call `undo` alone.
pub(crate) trait Sink {
    /// A line with query `id` begins.
    fn start(&mut self, id: QueryId);
    /// The SQL text.
    fn sql(&mut self, _sql: &str) {}
    /// The template number.
    fn template(&mut self, _template: u32) {}
    /// One data key.
    fn data_key(&mut self, _key: u64) {}
    /// One referenced table.
    fn table(&mut self, _table: TableId) {}
    /// One referenced column.
    fn column(&mut self, _column: ColumnId) {}
    /// The total yield.
    fn total_yield(&mut self, bytes: Bytes);
    /// One table's yield.
    fn table_yield(&mut self, table: TableId, bytes: Bytes);
    /// One column's yield.
    fn column_yield(&mut self, column: ColumnId, bytes: Bytes);
    /// The line was read whole.
    fn end(&mut self);
    /// The pass gave up: nothing of this line may be left behind.
    fn undo(&mut self);

    /// The step-wise decoder's query, for a line the pass did not take,
    /// written member by member as the pass writes a line.
    fn query(&mut self, query: &TraceQuery) {
        self.start(query.id);
        self.sql(&query.sql);
        self.template(query.template);
        for &key in &query.data_keys {
            self.data_key(key);
        }
        for &table in &query.tables {
            self.table(table);
        }
        for &column in &query.columns {
            self.column(column);
        }
        self.total_yield(query.total_yield);
        for &(table, bytes) in &query.table_yields {
            self.table_yield(table, bytes);
        }
        for &(column, bytes) in &query.column_yields {
            self.column_yield(column, bytes);
        }
        self.end();
    }
}

/// Whole queries: each line is decoded into one reused slot, and copied
/// out with buffers of its exact size once it is read whole. A slot the
/// pass gives up on is left partly overwritten, as the step-wise decoder
/// leaves it.
#[derive(Default)]
struct Queries {
    slot: TraceQuery,
    queries: Vec<TraceQuery>,
}

impl Sink for Queries {
    fn start(&mut self, id: QueryId) {
        let q = &mut self.slot;
        q.id = id;
        q.data_keys.clear();
        q.tables.clear();
        q.columns.clear();
        q.table_yields.clear();
        q.column_yields.clear();
    }
    fn sql(&mut self, sql: &str) {
        self.slot.sql.clear();
        self.slot.sql.push_str(sql);
    }
    fn template(&mut self, template: u32) {
        self.slot.template = template;
    }
    fn data_key(&mut self, key: u64) {
        self.slot.data_keys.push(key);
    }
    fn table(&mut self, table: TableId) {
        self.slot.tables.push(table);
    }
    fn column(&mut self, column: ColumnId) {
        self.slot.columns.push(column);
    }
    fn total_yield(&mut self, bytes: Bytes) {
        self.slot.total_yield = bytes;
    }
    fn table_yield(&mut self, table: TableId, bytes: Bytes) {
        self.slot.table_yields.push((table, bytes));
    }
    fn column_yield(&mut self, column: ColumnId, bytes: Bytes) {
        self.slot.column_yields.push((column, bytes));
    }
    fn end(&mut self) {
        self.queries.push(self.slot.clone());
    }
    fn undo(&mut self) {}
}

/// Decode the query line at the start of `bytes` into `sink` in one pass,
/// if it is in the writer's layout ([`key`]), then `\n`; when `bytes` are
/// the `whole` line, nothing or `\n` alone. Returns the bytes the line
/// took, its `\n` included.
///
/// The pass takes only text the step-wise decoder reads to the same
/// query: each key with its separators as one literal, an integer as a
/// plain run of at most 19 digits within its field's range, and the SQL
/// as one plain run of valid UTF-8. On any other byte it gives up, and
/// the line is left to the step-wise decoder.
fn pass(bytes: &[u8], whole: bool, sink: &mut impl Sink) -> Option<usize> {
    let len = layout(bytes, whole, sink);
    match len {
        Some(_) => sink.end(),
        None => sink.undo(),
    }
    len
}

/// The body of [`pass`].
#[inline]
fn layout(bytes: &[u8], whole: bool, sink: &mut impl Sink) -> Option<usize> {
    let mut at = Written { rest: bytes };
    at.literal(key::ID)?;
    sink.start(QueryId::new(at.u32()?));
    at.literal(key::SQL)?;
    sink.sql(at.plain_string()?);
    at.literal(key::TEMPLATE)?;
    sink.template(at.u32()?);
    at.literal(key::DATA_KEYS)?;
    at.list(|at| at.u64().map(|key| sink.data_key(key)))?;
    at.literal(key::TABLES)?;
    at.list(|at| at.u32().map(|table| sink.table(TableId::new(table))))?;
    at.literal(key::COLUMNS)?;
    at.list(|at| at.u32().map(|column| sink.column(ColumnId::new(column))))?;
    at.literal(key::TOTAL_YIELD)?;
    sink.total_yield(Bytes::new(at.u64()?));
    at.literal(key::TABLE_YIELDS)?;
    at.list(|at| {
        at.pair()
            .map(|(table, bytes)| sink.table_yield(TableId::new(table), bytes))
    })?;
    at.literal(key::COLUMN_YIELDS)?;
    at.list(|at| {
        at.pair()
            .map(|(column, bytes)| sink.column_yield(ColumnId::new(column), bytes))
    })?;
    at.literal("}")?;
    let read = bytes.len() - at.rest.len();
    match (at.rest, whole) {
        ([b'\n', ..], false) | ([b'\n'], true) => Some(read + 1),
        ([], true) => Some(read),
        _ => None,
    }
}

/// The bytes left to [`pass`]: each step reads exactly what the writer
/// writes there, or returns `None`.
struct Written<'a> {
    rest: &'a [u8],
}

impl<'a> Written<'a> {
    #[inline]
    fn literal(&mut self, text: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(text.as_bytes())?;
        Some(())
    }

    /// A run of 1 to 19 digits, folded as [`Cursor::number`] folds it:
    /// 19 nines are below `u64::MAX`. The layout puts `,`, `]` or `}`
    /// after every number, so a 20th digit, or any of `-.eE+` after the
    /// run, which the step-wise decoder reads as a number of another
    /// spelling, ends the pass at the next step.
    #[inline]
    fn u64(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut len = 0;
        for &b in self.rest.iter().take(19) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value * 10 + u64::from(digit);
            len += 1;
        }
        if len == 0 {
            return None;
        }
        self.rest = self.rest.get(len..)?;
        Some(value)
    }

    #[inline]
    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.u64()?).ok()
    }

    /// A string: `"`, one plain run of valid UTF-8, then `"`.
    #[inline]
    fn plain_string(&mut self) -> Option<&'a str> {
        self.literal("\"")?;
        let (text, rest) = self.rest.split_at_checked(plain_run(self.rest))?;
        self.rest = rest.strip_prefix(b"\"")?;
        std::str::from_utf8(text).ok()
    }

    /// `[`, then `item` for each element, separated by `,`, then `]`.
    #[inline]
    fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.literal("[")?;
        if self.literal("]").is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            let (&next, rest) = self.rest.split_first()?;
            self.rest = rest;
            match next {
                b',' => {}
                b']' => return Some(()),
                _ => return None,
            }
        }
    }

    /// One `[id,bytes]` yield pair.
    #[inline]
    fn pair(&mut self) -> Option<(u32, Bytes)> {
        self.literal("[")?;
        let id = self.u32()?;
        self.literal(",")?;
        let bytes = self.u64()?;
        self.literal("]")?;
        Some((id, Bytes::new(bytes)))
    }
}

/// A line of whitespace only, as `str::trim` counts it: skipped.
fn is_blank(line: &[u8]) -> bool {
    line.first() != Some(&b'{') && std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// Why a range of lines stopped short.
enum Fault {
    /// Reading failed.
    Io(io::Error),
    /// The `line`-th line of the range is malformed: the step-wise
    /// decoder's message.
    Bad { line: usize, message: String },
}

impl From<io::Error> for Fault {
    fn from(e: io::Error) -> Self {
        Fault::Io(e)
    }
}

impl Fault {
    /// The error, naming a malformed line by its number in the file,
    /// where `before` lines precede its range.
    fn after(self, before: usize) -> Error {
        match self {
            Fault::Io(e) => e.into(),
            Fault::Bad { line, message } => {
                Error::TraceFormat(format!("bad query on line {}: {message}", before + line))
            }
        }
    }
}

/// The query lines whose first bytes lie in one byte range of a trace
/// file, read in order off a buffered input: the one loop every reader
/// runs. A line belongs to the range its first byte is in, and may run
/// past the range's end. A line in the writer's layout that the buffer
/// holds whole is decoded where it lies; any other line is copied out
/// first.
///
/// The cursor counts the lines it reads, blank ones included. A
/// malformed line's number in the file is one (the header) plus the
/// lines of every range before this one plus its own place in this one.
struct Lines<R> {
    input: R,
    /// The offset in the file of the next line.
    at: u64,
    /// The range's end: a line that starts here or later is not its own.
    end: u64,
    /// Lines read, blank and malformed ones included.
    read: usize,
    /// Queries decoded.
    queries: usize,
    /// The line being read, when it had to be copied; reused.
    line: Vec<u8>,
    /// Member keys are unescaped here, reused for every key.
    key: String,
    /// The step-wise decoder decodes each query here, into buffers
    /// reused for every line.
    slot: TraceQuery,
}

impl<R: BufRead> Lines<R> {
    /// The lines of `range`, read off `input`, which stands at its start.
    fn new(input: R, range: Range<u64>) -> Self {
        Self {
            input,
            at: range.start,
            end: range.end,
            read: 0,
            queries: 0,
            line: Vec::new(),
            key: String::new(),
            slot: TraceQuery::default(),
        }
    }

    /// True once every line of the range is read, or the input is.
    fn exhausted(&self) -> bool {
        self.at >= self.end
    }

    /// Decode up to `max` more query lines into `sink`, skipping blank
    /// lines, and stop early once the range is exhausted.
    ///
    /// # Errors
    ///
    /// [`Fault::Bad`] on a malformed line; the lines after it are left
    /// unread.
    fn decode(&mut self, max: usize, sink: &mut impl Sink) -> std::result::Result<(), Fault> {
        let stop = self.queries.saturating_add(max);
        while self.queries < stop && !self.exhausted() {
            self.next_into(sink)?;
        }
        Ok(())
    }

    /// Read the next line, count it and decode it into `sink`: the pass
    /// on the buffer's bytes, and on a line the buffer does not hold
    /// whole, copied out; the step-wise decoder and [`Sink::query`] on a
    /// line the pass does not take. The end of the input exhausts the
    /// range.
    fn next_into(&mut self, sink: &mut impl Sink) -> std::result::Result<(), Fault> {
        let held = self.input.fill_buf()?;
        let buffered = held.len();
        if let Some(len) = pass(held, false, sink) {
            self.input.consume(len);
            self.count_line(len);
            self.queries += 1;
            return Ok(());
        }
        let line = &mut self.line;
        line.clear();
        let len = self.input.read_until(b'\n', line)?;
        if len == 0 {
            self.end = self.at;
            return Ok(());
        }
        self.count_line(len);
        let line = &self.line;
        // The pass has seen every byte of a line the buffer held whole and
        // that ends in a newline.
        let seen = len <= buffered && line.last() == Some(&b'\n');
        if !seen && pass(line, true, sink).is_some() {
            self.queries += 1;
        } else if !is_blank(line) {
            let place = self.read;
            decode_line(line, &mut self.slot, &mut self.key).map_err(|message| Fault::Bad {
                line: place,
                message,
            })?;
            sink.query(&self.slot);
            self.queries += 1;
        }
        Ok(())
    }

    /// Move past one line of `len` bytes.
    fn count_line(&mut self, len: usize) {
        self.at = self
            .at
            .saturating_add(u64::try_from(len).unwrap_or(u64::MAX));
        self.read += 1;
    }
}

impl Lines<BufReader<File>> {
    /// The lines of `range`, a part of the body of the trace file at
    /// `path` that starts at `body`, through a handle of its own.
    fn open_range(path: &Path, range: Range<u64>, body: u64) -> io::Result<Self> {
        // A line starts at `range.start` only if the byte before it ends
        // the line before, so reading resumes one byte early and drops
        // everything up to the first newline.
        let mut at = range.start.saturating_sub(1).max(body);
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(at))?;
        let mut input = BufReader::new(file);
        if at < range.start {
            let dropped = input.skip_until(b'\n')?;
            at = at.saturating_add(u64::try_from(dropped).unwrap_or(u64::MAX));
        }
        Ok(Lines::new(input, at..range.end))
    }
}

/// The end-of-file check: the file held the queries its header promised.
fn check_count(promised: usize, found: usize) -> Result<()> {
    if promised != found {
        return Err(Error::TraceFormat(format!(
            "header promises {promised} queries, file has {found}"
        )));
    }
    Ok(())
}

/// A trace file, opened and its header checked: the header, and where
/// the query lines are.
pub(crate) struct TraceFile {
    pub(crate) header: Header,
    /// Where the query lines are, from just past the header line to the
    /// end of the file; `None` when the file is not a regular file, such
    /// as a pipe, whose length is not known before it is read.
    body: Option<Range<u64>>,
}

impl TraceFile {
    /// Open `path` and check its header. Returns the file and a cursor
    /// over its whole body, to end of file, on the handle the header was
    /// read from.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a missing or malformed
    /// header or a format-version mismatch.
    fn open(path: &Path) -> Result<(Self, Lines<BufReader<File>>)> {
        let mut input = BufReader::new(File::open(path)?);
        let mut line = Vec::new();
        if input.read_until(b'\n', &mut line)? == 0 {
            return Err(Error::TraceFormat("empty trace file".into()));
        }
        let header =
            decode_header(&line).map_err(|e| Error::TraceFormat(format!("bad header: {e}")))?;
        if header.format_version != FORMAT_VERSION {
            return Err(Error::TraceFormat(format!(
                "unsupported format version {} (expected {FORMAT_VERSION})",
                header.format_version
            )));
        }
        let start = u64::try_from(line.len()).unwrap_or(u64::MAX);
        let meta = input.get_ref().metadata()?;
        let body = meta.is_file().then(|| start.min(meta.len())..meta.len());
        Ok((Self { header, body }, Lines::new(input, start..u64::MAX)))
    }
}

/// A streaming trace writer: the header (with the final query count)
/// goes out first, then one query per [`TraceWriter::write`] call.
/// Nothing is buffered beyond the `BufWriter` block, so
/// `gen-trace --queries 100000000` writes in constant memory.
///
/// The query count is part of the header, so it must be known up front;
/// [`TraceWriter::finish`] refuses a short file and [`TraceWriter::write`]
/// refuses an over-long one, keeping every produced file readable by
/// [`TraceReader`].
pub struct TraceWriter {
    w: BufWriter<File>,
    /// The line being written; reused.
    line: String,
    promised: usize,
    written: usize,
}

impl TraceWriter {
    /// Open `path` for writing and emit the header line.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn create(path: &Path, name: &str, seed: u64, query_count: usize) -> Result<Self> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        let header = Header {
            format_version: FORMAT_VERSION,
            name: name.to_string(),
            seed,
            query_count,
        };
        writeln!(w, "{}", header.to_json())?;
        Ok(Self {
            w,
            line: String::new(),
            promised: query_count,
            written: 0,
        })
    }

    /// Number of queries written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Append one query line.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] when more queries arrive than
    /// the header promised.
    pub fn write(&mut self, q: &TraceQuery) -> Result<()> {
        if self.written >= self.promised {
            return Err(Error::TraceFormat(format!(
                "header promises {} queries; refusing to write more",
                self.promised
            )));
        }
        self.line.clear();
        // Writing into a `String` cannot fail.
        let _ = render(&mut self.line, q);
        self.w.write_all(self.line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Flush and close the file, checking the header's promise.
    ///
    /// # Errors
    ///
    /// [`Error::TraceFormat`] when fewer queries were written than the
    /// header promised; I/O errors from the final flush.
    pub fn finish(mut self) -> Result<()> {
        if self.written != self.promised {
            return Err(Error::TraceFormat(format!(
                "header promises {} queries, wrote {}",
                self.promised, self.written
            )));
        }
        self.w.flush()?;
        Ok(())
    }
}

/// A chunked trace reader: parses the header eagerly, then streams
/// queries on demand via [`TraceReader::next_chunk`] or
/// [`crate::ReplayTrace::refill`] without ever materializing the whole
/// trace. The replay engine's streaming path feeds on this to keep
/// 100M-query replays in constant memory.
///
/// It is a `TraceFile` and one cursor over the file's whole body, read
/// to end of file: the loop every reader runs.
pub struct TraceReader {
    file: TraceFile,
    lines: Lines<BufReader<File>>,
}

impl TraceReader {
    /// Open `path` and parse the header line.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a missing or malformed
    /// header or a format-version mismatch.
    pub fn open(path: &Path) -> Result<Self> {
        let (file, lines) = TraceFile::open(path)?;
        Ok(Self { file, lines })
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.file.header.name
    }

    /// The generator seed from the header.
    pub fn seed(&self) -> u64 {
        self.file.header.seed
    }

    /// Total query count promised by the header.
    pub fn query_count(&self) -> usize {
        self.file.header.query_count
    }

    /// Queries handed out so far.
    pub fn delivered(&self) -> usize {
        self.lines.queries
    }

    /// Read up to `max` queries (at least 1 is attempted), each decoded
    /// into one reused slot and copied out with buffers of its exact
    /// size. An empty vector means end of file; at that point the
    /// header's query count has been verified against what the file
    /// actually held.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a malformed line (naming
    /// it) or a final count that disagrees with the header.
    pub fn next_chunk(&mut self, max: usize) -> Result<Vec<TraceQuery>> {
        let mut chunk = Queries::default();
        self.decode_into(max, &mut chunk)?;
        Ok(chunk.queries)
    }

    /// Decode up to `max` more queries (at least 1 is attempted) into
    /// `sink`. The call that reaches end of file checks the header's
    /// query count; every later call decodes nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::next_chunk`]. The queries decoded before the error are
    /// in `sink`.
    pub(crate) fn decode_into(&mut self, max: usize, sink: &mut impl Sink) -> Result<()> {
        if self.lines.exhausted() {
            return Ok(());
        }
        let lines = &mut self.lines;
        // The header is line 1.
        lines
            .decode(max.max(1), sink)
            .map_err(|fault| fault.after(1))?;
        if lines.exhausted() {
            check_count(self.file.header.query_count, lines.queries)?;
        }
        Ok(())
    }
}

/// Read the trace file at `path` on the byte ranges between the offsets
/// `cuts(body)` returns, ascending from the body's start to its end. Each
/// range is decoded into a sink of its own, `sink(share)`, where `share`
/// is a little over the range's share of the header's query count (at
/// most 2^20 are reserved). The first range is read on this thread, off
/// the handle its header was read from; every other on a scoped thread
/// through a handle of its own. A body of unknown length, such as a
/// pipe's, is one range, read in order to end of file.
///
/// The first error in file order wins, a malformed line named by its
/// line number in the file, and the header's query count is checked
/// once every range is in. Returns the file and the sinks, in file
/// order.
///
/// # Errors
///
/// I/O errors; [`Error::TraceFormat`] on a bad header, the first
/// malformed line, or a query count that disagrees with the header.
pub(crate) fn read_split<S: Sink + Send>(
    path: &Path,
    cuts: impl FnOnce(Range<u64>) -> Vec<u64>,
    sink: impl Fn(usize) -> S + Sync,
) -> Result<(TraceFile, Vec<S>)> {
    let (file, head) = TraceFile::open(path)?;
    let ranges: Vec<Range<u64>> = match &file.body {
        Some(body) => cuts(body.clone())
            .windows(2)
            .filter_map(|pair| match *pair {
                [start, end] => Some(start..end),
                _ => None,
            })
            .collect(),
        None => std::iter::once(head.at..head.end).collect(),
    };
    let promised = u128::try_from(file.header.query_count.min(1 << 20)).unwrap_or(0);
    let read = |lines: io::Result<Lines<BufReader<File>>>, range: Range<u64>| {
        // Reserve this range's share of the promised queries, and a
        // little over: a sink that outgrows its reservation doubles.
        let share = match &file.body {
            Some(body) => {
                promised * u128::from(range.end.saturating_sub(range.start))
                    / u128::from((body.end - body.start).max(1))
            }
            None => promised,
        };
        let share = usize::try_from(share + share / 16 + 16).unwrap_or(0);
        let mut sink = sink(share.min(file.header.query_count));
        let mut lines = lines?;
        lines.decode(usize::MAX, &mut sink)?;
        Ok((sink, lines))
    };
    let body = head.at;
    let parts: Vec<std::result::Result<_, Fault>> = std::thread::scope(|scope| {
        let mut ranges = ranges.into_iter();
        let first = ranges.next();
        let handles: Vec<_> = ranges
            .map(|range| {
                scope.spawn(move || read(Lines::open_range(path, range.clone(), body), range))
            })
            .collect();
        first
            .map(|range| {
                let head = Lines {
                    end: range.end,
                    ..head
                };
                read(Ok(head), range)
            })
            .into_iter()
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    });
    // The header is line 1.
    let (mut before, mut queries) = (1, 0);
    let mut sinks = Vec::with_capacity(parts.len());
    for part in parts {
        let (sink, lines) = part.map_err(|fault| fault.after(before))?;
        before += lines.read;
        queries += lines.queries;
        sinks.push(sink);
    }
    check_count(file.header.query_count, queries)?;
    Ok((file, sinks))
}

/// The cuts of a body into `workers` byte ranges of (nearly) equal
/// length, for [`read_split`].
pub(crate) fn even_cuts(workers: usize) -> impl FnOnce(Range<u64>) -> Vec<u64> {
    let workers = workers.max(1);
    move |body| {
        let len = u128::from(body.end - body.start);
        let count = u128::try_from(workers).unwrap_or(1);
        (0..=workers)
            .map(|i| {
                let step = u128::try_from(i).unwrap_or(0) * len / count;
                body.start + u64::try_from(step).unwrap_or(0)
            })
            .collect()
    }
}

/// One worker per core, as [`read_trace`] and [`crate::ReplayTrace::read`]
/// split a file.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Write `trace` to `path` in JSON-lines format.
///
/// # Errors
///
/// I/O errors and serialization failures as [`Error::TraceFormat`].
pub fn write_trace(trace: &Trace, path: &Path) -> Result<()> {
    let mut w = TraceWriter::create(path, &trace.name, trace.seed, trace.queries.len())?;
    for q in &trace.queries {
        w.write(q)?;
    }
    w.finish()
}

/// Read a trace previously written by [`write_trace`], on one thread per
/// core (see `read_split`).
///
/// # Errors
///
/// [`Error::TraceFormat`] on version mismatch, malformed lines, or a
/// query count that disagrees with the header.
pub fn read_trace(path: &Path) -> Result<Trace> {
    read_trace_on(path, workers())
}

/// [`read_trace`] on `workers` byte ranges of (nearly) equal length.
pub(crate) fn read_trace_on(path: &Path, workers: usize) -> Result<Trace> {
    let (file, parts) = read_split(path, even_cuts(workers), |share| Queries {
        slot: TraceQuery::default(),
        queries: Vec::with_capacity(share),
    })?;
    let mut parts = parts.into_iter().map(|part| part.queries);
    let mut queries = parts.next().unwrap_or_default();
    for mut part in parts {
        queries.append(&mut part);
    }
    Ok(Trace {
        name: file.header.name,
        seed: file.header.seed,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorkloadConfig};
    use byc_catalog::sdss::{build, SdssRelease};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("byc-test-{}-{name}", std::process::id()));
        p
    }

    fn yield_pairs(pairs: &[(u32, Bytes)]) -> Value {
        Value::Array(
            pairs
                .iter()
                .map(|&(id, b)| Value::Array(vec![Value::u64(id.into()), Value::u64(b.raw())]))
                .collect(),
        )
    }

    /// A query as a `Value` tree, members in the writer's order: the
    /// writer's oracle.
    fn query_to_json(q: &TraceQuery) -> Value {
        Value::Object(vec![
            ("id".into(), Value::u64(q.id.raw().into())),
            ("sql".into(), Value::str(&q.sql)),
            ("template".into(), Value::u64(q.template.into())),
            (
                "data_keys".into(),
                Value::Array(q.data_keys.iter().map(|&k| Value::u64(k)).collect()),
            ),
            (
                "tables".into(),
                Value::Array(
                    q.tables
                        .iter()
                        .map(|t| Value::u64(t.raw().into()))
                        .collect(),
                ),
            ),
            (
                "columns".into(),
                Value::Array(
                    q.columns
                        .iter()
                        .map(|c| Value::u64(c.raw().into()))
                        .collect(),
                ),
            ),
            ("total_yield".into(), Value::u64(q.total_yield.raw())),
            (
                "table_yields".into(),
                yield_pairs(
                    &q.table_yields
                        .iter()
                        .map(|&(t, b)| (t.raw(), b))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "column_yields".into(),
                yield_pairs(
                    &q.column_yields
                        .iter()
                        .map(|&(c, b)| (c.raw(), b))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    /// The layout's keys are the step-wise decoder's field names, in its
    /// order.
    #[test]
    fn the_layout_spells_the_field_names() {
        let keys = [
            key::ID,
            key::SQL,
            key::TEMPLATE,
            key::DATA_KEYS,
            key::TABLES,
            key::COLUMNS,
            key::TOTAL_YIELD,
            key::TABLE_YIELDS,
            key::COLUMN_YIELDS,
        ];
        for (i, (key, name)) in keys.iter().zip(QUERY_FIELDS).enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            assert_eq!(*key, format!("{open}\"{name}\":"));
        }
    }

    /// A file written into a pipe and read off it by `/dev/fd/N`.
    #[cfg(target_os = "linux")]
    fn piped<T: Send>(bytes: &[u8], read: impl FnOnce(&Path) -> T + Send) -> T {
        use std::os::fd::AsRawFd;
        let (reader, mut writer) = std::io::pipe().unwrap();
        let path = std::path::PathBuf::from(format!("/dev/fd/{}", reader.as_raw_fd()));
        std::thread::scope(|scope| {
            let fed = scope.spawn(move || {
                // A reader that stops early closes the pipe under the
                // writer: that is not the test's failure.
                writer.write_all(bytes).ok();
            });
            let got = read(&path);
            drop(reader);
            fed.join().unwrap();
            got
        })
    }

    /// A body that is not a regular file is one range read to its end:
    /// a pipe reads as the same bytes in a file do, through `read_trace`,
    /// `TraceReader` and `ReplayTrace::read`, errors included.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_piped_trace_reads_as_its_file() {
        use crate::ReplayTrace;
        use byc_catalog::{Granularity, ObjectCatalog};
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(53, 120)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let path = tmp("piped.jsonl");
        write_trace(&trace, &path).unwrap();
        let text = std::fs::read(&path).unwrap();
        let mut bad = String::from_utf8(text.clone()).unwrap();
        let at = bad.match_indices('\n').nth(70).unwrap().0 + 1;
        bad.insert_str(at, " \r\n\u{3000}\nnot json\n");
        let short = String::from_utf8(text.clone()).unwrap().replacen(
            "\"query_count\":120",
            "\"query_count\":121",
            1,
        );
        for (name, bytes) in [
            ("plain", text),
            ("bad", bad.into_bytes()),
            ("short", short.into_bytes()),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let file = read_trace(&path).map_err(|e| e.to_string());
            assert_eq!(
                piped(&bytes, |p| read_trace(p)).map_err(|e| e.to_string()),
                file,
                "{name}"
            );
            let streamed = piped(&bytes, |p| {
                let mut reader = TraceReader::open(p)?;
                let mut queries = Vec::new();
                loop {
                    let chunk = reader.next_chunk(25)?;
                    if chunk.is_empty() {
                        return Ok(queries);
                    }
                    queries.extend(chunk);
                }
            });
            let whole = file.clone().map(|t| t.queries);
            assert_eq!(streamed.map_err(|e: Error| e.to_string()), whole, "{name}");
            let replay = |p: &Path| ReplayTrace::read(p, &objects).map_err(|e| e.to_string());
            assert_eq!(piped(&bytes, replay), replay(&path), "{name}");
            match name {
                "plain" => assert_eq!(file, Ok(trace.clone())),
                "bad" => assert!(
                    file.as_ref()
                        .unwrap_err()
                        .contains("bad query on line 74: "),
                    "{file:?}"
                ),
                _ => assert!(
                    file.as_ref()
                        .unwrap_err()
                        .ends_with("header promises 121 queries, file has 120"),
                    "{file:?}"
                ),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(29, 200)).unwrap();
        let path = tmp("roundtrip.jsonl");
        write_trace(&trace, &path).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(matches!(err, Error::TraceFormat(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let path = tmp("version.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":99,\"name\":\"x\",\"seed\":0,\"query_count\":0}\n",
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("version"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn count_mismatch_rejected() {
        let path = tmp("count.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":3}\n",
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("promises 3"));
        std::fs::remove_file(&path).ok();
    }

    const HEADER_1: &str = "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":1}\n";

    /// `read_trace` of a one-query file whose query line is `line`.
    fn read_one(name: &str, line: &[u8]) -> Result<Trace> {
        let path = tmp(name);
        let mut bytes = HEADER_1.as_bytes().to_vec();
        bytes.extend_from_slice(line);
        std::fs::write(&path, bytes).unwrap();
        let read = read_trace(&path);
        std::fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn malformed_query_line_rejected() {
        let err = read_one("malformed.jsonl", b"not-json\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        // Invalid UTF-8 is a format error that names its line, as is a
        // missing member, and the message says so once.
        let good = "{\"id\":0,\"sql\":\"select 1\",\"template\":0,\"data_keys\":[],\"tables\":[],\
                    \"columns\":[],\"total_yield\":0,\"table_yields\":[],\"column_yields\":[]}";
        let bad_utf8 = good
            .replace("select 1", "select \u{FFFD}")
            .replace('\u{FFFD}', "\u{1}");
        let mut bytes = bad_utf8.into_bytes();
        let at = bytes.iter().position(|&b| b == 1).unwrap();
        bytes[at] = 0xFF;
        for (name, line) in [
            ("utf8.jsonl", bytes),
            (
                "missing.jsonl",
                good.replace("\"sql\":\"select 1\",", "").into_bytes(),
            ),
        ] {
            let err = read_one(name, &line).unwrap_err();
            let text = err.to_string();
            assert!(matches!(err, Error::TraceFormat(_)), "{name}: {text}");
            assert!(
                text.starts_with("trace format error: bad query on line 2: "),
                "{text}"
            );
            assert_eq!(text.matches("trace format error").count(), 1, "{text}");
        }
    }

    #[test]
    fn out_of_range_integers_rejected() {
        let good = "{\"id\":0,\"sql\":\"s\",\"template\":0,\"data_keys\":[],\"tables\":[],\
                    \"columns\":[],\"total_yield\":7,\"table_yields\":[],\"column_yields\":[]}\n";
        let seven = read_one("in-range.jsonl", good.replace(":7", ":7.0").as_bytes()).unwrap();
        assert_eq!(seven.queries[0].total_yield, Bytes::new(7));
        for spelling in ["18446744073709551616", "9007199254740993.0", "-1", "7.5"] {
            let line = good.replace("\"total_yield\":7", &format!("\"total_yield\":{spelling}"));
            let err = read_one("range.jsonl", line.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains("field \"total_yield\""),
                "{spelling}: {err}"
            );
        }
        let line = good.replace("\"id\":0", "\"id\":4294967296");
        let err = read_one("id-range.jsonl", line.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("field \"id\""), "{err}");
    }

    #[test]
    fn members_in_reverse_order_decode_alike() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, 20)).unwrap();
        let mut slot = TraceQuery::default();
        for q in &trace.queries {
            let Value::Object(mut fields) = query_to_json(q) else {
                panic!("a query is an object");
            };
            // Reversed, no member is the one the decoder expects next.
            fields.reverse();
            decode_query(Value::Object(fields).to_string().as_bytes(), &mut slot).unwrap();
            assert_eq!(&slot, q);
        }
    }

    /// A whole line in the writer's layout ends at its `}` or at the one
    /// `\n` after it; any other ending is the step-wise decoder's to judge.
    #[test]
    fn a_whole_line_ends_at_its_newline() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(47, 2)).unwrap();
        let [first, second] = [0, 1].map(|i| query_to_json(&trace.queries[i]).to_string());
        let mut slot = TraceQuery::default();
        for ending in ["", "\n", "\r\n", "\n\n", " \n\t"] {
            let line = format!("{first}{ending}");
            assert_eq!(decode_written(line.as_bytes(), &mut slot), ending.len() < 2);
            decode_query(line.as_bytes(), &mut slot).unwrap();
            assert_eq!(slot, trace.queries[0], "{ending:?}");
        }
        let joined = format!("{first}\n{second}");
        assert!(!decode_written(joined.as_bytes(), &mut slot));
        assert!(decode_query(joined.as_bytes(), &mut slot).is_err());
    }

    #[test]
    fn deep_nesting_rejected() {
        let depth = 100_000;
        let line = format!("{{\"x\":{}{}}}\n", "[".repeat(depth), "]".repeat(depth));
        let err = read_one("deep.jsonl", line.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn crlf_and_blank_lines_decode() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(41, 20)).unwrap();
        let path = tmp("crlf.jsonl");
        write_trace(&trace, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let crlf = text
            .replace('\n', "\r\n")
            .replacen("\r\n", "\r\n \t\r\n\u{3000}\n", 2);
        std::fs::write(&path, crlf).unwrap();
        assert_eq!(read_trace(&path).unwrap(), trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace(Path::new("/nonexistent/nope.jsonl")).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn streamed_write_then_chunked_read_roundtrips() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(31, 150)).unwrap();
        let path = tmp("stream-roundtrip.jsonl");
        let mut w = TraceWriter::create(&path, &trace.name, trace.seed, trace.len()).unwrap();
        for q in &trace.queries {
            w.write(q).unwrap();
        }
        assert_eq!(w.written(), 150);
        w.finish().unwrap();

        // Chunk sizes around the edges: 1, a non-divisor, and larger
        // than the whole trace must all reassemble the same queries.
        for chunk in [1usize, 7, 1000] {
            let mut r = TraceReader::open(&path).unwrap();
            assert_eq!(r.name(), trace.name);
            assert_eq!(r.seed(), trace.seed);
            assert_eq!(r.query_count(), 150);
            let mut back = Vec::new();
            loop {
                let got = r.next_chunk(chunk).unwrap();
                if got.is_empty() {
                    break;
                }
                assert!(got.len() <= chunk);
                back.extend(got);
            }
            assert_eq!(back, trace.queries, "chunk size {chunk}");
            assert_eq!(r.delivered(), 150);
            // EOF is sticky.
            assert!(r.next_chunk(chunk).unwrap().is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_streams_cleanly() {
        let path = tmp("stream-empty.jsonl");
        let w = TraceWriter::create(&path, "empty", 9, 0).unwrap();
        w.finish().unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.query_count(), 0);
        assert!(r.next_chunk(64).unwrap().is_empty());
        let back = read_trace(&path).unwrap();
        assert!(back.queries.is_empty());
        assert_eq!(back.name, "empty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_enforces_promised_count() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(37, 3)).unwrap();
        let path = tmp("promise-short.jsonl");
        let mut w = TraceWriter::create(&path, "t", 0, 3).unwrap();
        w.write(&trace.queries[0]).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("wrote 1"));

        let mut w = TraceWriter::create(&path, "t", 0, 1).unwrap();
        w.write(&trace.queries[0]).unwrap();
        let err = w.write(&trace.queries[1]).unwrap_err();
        assert!(err.to_string().contains("refusing to write more"));
        std::fs::remove_file(&path).ok();
    }

    /// `TraceWriter` writes, byte for byte, the header and then each
    /// query rendered as a `Value` tree by [`query_to_json`].
    #[test]
    fn the_writer_writes_the_value_rendering() {
        let mut traces = Vec::new();
        for release in [SdssRelease::Edr, SdssRelease::Dr1] {
            let cat = build(release, 1e-3, 2);
            for seed in [5, 23] {
                let preset = match release {
                    SdssRelease::Edr => WorkloadConfig::edr(seed),
                    SdssRelease::Dr1 => WorkloadConfig::dr1(seed),
                };
                let config = WorkloadConfig {
                    query_count: 200,
                    ..preset
                };
                traces.push(generate(&cat, &config).unwrap());
            }
        }
        let edge = |id: u32, wide: u64, sql: &str| TraceQuery {
            id: QueryId::new(id),
            sql: sql.into(),
            template: id,
            data_keys: vec![wide, 0, wide],
            tables: vec![TableId::new(id), TableId::new(0)],
            columns: vec![ColumnId::new(id)],
            total_yield: Bytes::new(wide),
            table_yields: vec![(TableId::new(id), Bytes::new(wide))],
            column_yields: vec![
                (ColumnId::new(0), Bytes::new(0)),
                (ColumnId::new(id), Bytes::new(wide)),
            ],
        };
        traces.push(Trace {
            name: "edges \"\\\n\u{1}é".into(),
            seed: u64::MAX,
            queries: vec![
                edge(0, 0, ""),
                edge(
                    u32::MAX,
                    u64::MAX,
                    "select \"a\\b\"\n\r\t\u{1}\u{7f} from T",
                ),
                edge(7, 1 << 53, "où ∑ \u{1F600} \u{0} \u{1f}"),
                TraceQuery::default(),
            ],
        });
        let path = tmp("writer-bytes.jsonl");
        for trace in &traces {
            write_trace(trace, &path).unwrap();
            let header = Header {
                format_version: FORMAT_VERSION,
                name: trace.name.clone(),
                seed: trace.seed,
                query_count: trace.len(),
            };
            let mut want = format!("{}\n", header.to_json());
            for q in &trace.queries {
                want.push_str(&format!("{}\n", query_to_json(q)));
            }
            let have = std::fs::read_to_string(&path).unwrap();
            assert_eq!(have, want, "{}", trace.name);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_detects_short_file_at_eof() {
        let path = tmp("stream-short.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":3}\n",
        )
        .unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = r.next_chunk(16).unwrap_err();
        assert!(err.to_string().contains("promises 3"));
        std::fs::remove_file(&path).ok();
    }
}
