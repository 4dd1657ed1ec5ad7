//! Trace serialization: JSON-lines files.
//!
//! Format: one header object on the first line (`name`, `seed`,
//! `query_count`, `format_version`), then one [`TraceQuery`] per line.
//! Line-delimited JSON keeps huge traces streamable and lets externally
//! collected traces be converted with ordinary text tooling.
//!
//! A query line in the writer's own layout is decoded in one straight
//! pass, where it lies in the reader's buffer, into whatever the caller
//! keeps: a [`TraceQuery`] slot, or a replay trace's slices.
//! Any other line goes to the step-wise decoder on
//! [`byc_types::json::Cursor`], the only authority on what is accepted
//! and the only source of error text: it writes each field straight into
//! a reused [`TraceQuery`] slot, members may come in any order, unknown
//! members are checked and skipped, and the first of duplicate members
//! wins.

use crate::trace::{Trace, TraceQuery};
use byc_types::json::{plain_run, Cursor, Value};
use byc_types::{Bytes, ColumnId, Error, QueryId, Result, TableId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

/// Current file-format version.
pub const FORMAT_VERSION: u32 = 1;

#[derive(Clone, Debug)]
struct Header {
    format_version: u32,
    name: String,
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

fn yield_pairs(pairs: &[(u32, Bytes)]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|&(id, b)| Value::Array(vec![Value::u64(id.into()), Value::u64(b.raw())]))
            .collect(),
    )
}

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
    pass(line, true, slot).is_some()
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
/// may drop a member: it has been checked as the step-wise decoder
/// checks it. The pass calls [`Self::start`] once it has the line's id,
/// and then either [`Self::end`], once the whole line is read, or
/// [`Self::undo`], where it gives up. Before `start` it may call `undo`
/// alone.
pub(crate) trait Sink {
    /// A line with query `id` begins.
    fn start(&mut self, id: QueryId);
    /// The SQL text.
    fn sql(&mut self, sql: &str);
    /// The template number.
    fn template(&mut self, template: u32);
    /// One data key.
    fn data_key(&mut self, key: u64);
    /// One referenced table.
    fn table(&mut self, table: TableId);
    /// One referenced column.
    fn column(&mut self, column: ColumnId);
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

impl Sink for TraceQuery {
    fn start(&mut self, id: QueryId) {
        self.id = id;
        self.data_keys.clear();
        self.tables.clear();
        self.columns.clear();
        self.table_yields.clear();
        self.column_yields.clear();
    }
    fn sql(&mut self, sql: &str) {
        self.sql.clear();
        self.sql.push_str(sql);
    }
    fn template(&mut self, template: u32) {
        self.template = template;
    }
    fn data_key(&mut self, key: u64) {
        self.data_keys.push(key);
    }
    fn table(&mut self, table: TableId) {
        self.tables.push(table);
    }
    fn column(&mut self, column: ColumnId) {
        self.columns.push(column);
    }
    fn total_yield(&mut self, bytes: Bytes) {
        self.total_yield = bytes;
    }
    fn table_yield(&mut self, table: TableId, bytes: Bytes) {
        self.table_yields.push((table, bytes));
    }
    fn column_yield(&mut self, column: ColumnId, bytes: Bytes) {
        self.column_yields.push((column, bytes));
    }
    fn end(&mut self) {}
    // A slot is left partly overwritten, as the step-wise decoder leaves it.
    fn undo(&mut self) {}
}

/// Decode the query line at the start of `bytes` into `sink` in one pass,
/// if it is in the writer's layout: `{"id":N,"sql":"…","template":N,`
/// `"data_keys":[N,…],"tables":[N,…],"columns":[N,…],"total_yield":N,`
/// `"table_yields":[[N,N],…],"column_yields":[[N,N],…]}`, then `\n`;
/// when `bytes` are the `whole` line, nothing or `\n` alone. Returns the
/// bytes the line took, its `\n` included.
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
    at.literal(b"{\"id\":")?;
    sink.start(QueryId::new(at.u32()?));
    at.literal(b",\"sql\":\"")?;
    sink.sql(at.plain_string()?);
    at.literal(b",\"template\":")?;
    sink.template(at.u32()?);
    at.literal(b",\"data_keys\":")?;
    at.list(|at| at.u64().map(|key| sink.data_key(key)))?;
    at.literal(b",\"tables\":")?;
    at.list(|at| at.u32().map(|table| sink.table(TableId::new(table))))?;
    at.literal(b",\"columns\":")?;
    at.list(|at| at.u32().map(|column| sink.column(ColumnId::new(column))))?;
    at.literal(b",\"total_yield\":")?;
    sink.total_yield(Bytes::new(at.u64()?));
    at.literal(b",\"table_yields\":")?;
    at.list(|at| {
        at.pair()
            .map(|(table, bytes)| sink.table_yield(TableId::new(table), bytes))
    })?;
    at.literal(b",\"column_yields\":")?;
    at.list(|at| {
        at.pair()
            .map(|(column, bytes)| sink.column_yield(ColumnId::new(column), bytes))
    })?;
    at.literal(b"}")?;
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
    fn literal(&mut self, text: &[u8]) -> Option<()> {
        self.rest = self.rest.strip_prefix(text)?;
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

    /// The rest of a string whose `"` is already read: one plain run of
    /// valid UTF-8, then its closing `"`.
    #[inline]
    fn plain_string(&mut self) -> Option<&'a str> {
        let (text, rest) = self.rest.split_at_checked(plain_run(self.rest))?;
        self.rest = rest.strip_prefix(b"\"")?;
        std::str::from_utf8(text).ok()
    }

    /// `[`, then `item` for each element, separated by `,`, then `]`.
    #[inline]
    fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.literal(b"[")?;
        if self.literal(b"]").is_some() {
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
        self.literal(b"[")?;
        let id = self.u32()?;
        self.literal(b",")?;
        let bytes = self.u64()?;
        self.literal(b"]")?;
        Some((id, Bytes::new(bytes)))
    }
}

/// A line of whitespace only, as `str::trim` counts it: skipped.
fn is_blank(line: &[u8]) -> bool {
    line.first() != Some(&b'{') && std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// What one read off [`Lines`] found.
enum Line {
    /// The end of the input.
    End,
    /// A blank line, skipped.
    Blank,
    /// A query, decoded into the sink.
    Query,
    /// A line the step-wise decoder refused, with its message.
    Bad(String),
}

/// The query lines of a buffered input. A line in the writer's layout
/// that the buffer holds whole is decoded where it lies; any other line
/// is copied out first.
struct Lines<R> {
    input: R,
    /// The line being read, when it had to be copied; reused.
    line: Vec<u8>,
    /// Member keys are unescaped here, reused for every key.
    key: String,
    /// The step-wise decoder decodes each query here, into buffers
    /// reused for every line.
    slot: TraceQuery,
}

impl<R: BufRead> Lines<R> {
    fn new(input: R) -> Self {
        Self {
            input,
            line: Vec::new(),
            key: String::new(),
            slot: TraceQuery::default(),
        }
    }

    /// Read the next line and decode it into `sink`, in one pass if it
    /// is in the writer's layout, else through the step-wise decoder and
    /// [`Sink::query`]. Returns what was found and the bytes the line
    /// took, its line end included.
    fn next_into(&mut self, sink: &mut impl Sink) -> io::Result<(Line, usize)> {
        let (key, slot) = (&mut self.key, &mut self.slot);
        read_line(&mut self.input, &mut self.line, sink, |line, sink| {
            decode_line(line, slot, key)?;
            sink.query(slot);
            Ok(())
        })
    }

    /// [`Self::next_into`] into the slot, with no copy.
    fn next_slot(&mut self) -> io::Result<(Line, usize)> {
        let key = &mut self.key;
        read_line(
            &mut self.input,
            &mut self.line,
            &mut self.slot,
            |line, slot| decode_line(line, slot, key),
        )
    }
}

/// The body of [`Lines::next_into`]: the pass on the buffer's bytes, and on a
/// line the buffer does not hold whole, copied into `line`; `stepwise`
/// on a line the pass does not take.
fn read_line<S: Sink>(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
    sink: &mut S,
    stepwise: impl FnOnce(&[u8], &mut S) -> Decoded<()>,
) -> io::Result<(Line, usize)> {
    let held = input.fill_buf()?;
    let buffered = held.len();
    if let Some(len) = pass(held, false, sink) {
        input.consume(len);
        return Ok((Line::Query, len));
    }
    line.clear();
    let read = input.read_until(b'\n', line)?;
    // The pass has seen every byte of a line the buffer held whole and
    // that ends in a newline.
    let seen = read <= buffered && line.last() == Some(&b'\n');
    let found = if read == 0 {
        Line::End
    } else if !seen && pass(line, true, sink).is_some() {
        Line::Query
    } else if is_blank(line) {
        Line::Blank
    } else {
        match stepwise(line, sink) {
            Ok(()) => Line::Query,
            Err(e) => Line::Bad(e),
        }
    };
    Ok((found, read))
}

/// Read the header line off `input` into `line` and check it.
fn read_header(input: &mut impl BufRead, line: &mut Vec<u8>) -> Result<Header> {
    if input.read_until(b'\n', line)? == 0 {
        return Err(Error::TraceFormat("empty trace file".into()));
    }
    let header = decode_header(line).map_err(|e| Error::TraceFormat(format!("bad header: {e}")))?;
    if header.format_version != FORMAT_VERSION {
        return Err(Error::TraceFormat(format!(
            "unsupported format version {} (expected {FORMAT_VERSION})",
            header.format_version
        )));
    }
    Ok(header)
}

/// The end-of-file check: the file held the queries its header promised.
pub(crate) fn check_count(promised: usize, found: usize) -> Result<()> {
    if promised != found {
        return Err(Error::TraceFormat(format!(
            "header promises {promised} queries, file has {found}"
        )));
    }
    Ok(())
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
        writeln!(self.w, "{}", query_to_json(q))?;
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
pub struct TraceReader {
    lines: Lines<BufReader<File>>,
    name: String,
    seed: u64,
    query_count: usize,
    delivered: usize,
    line_no: usize,
    finished: bool,
}

impl TraceReader {
    /// Open `path` and parse the header line.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a missing or malformed
    /// header or a format-version mismatch.
    pub fn open(path: &Path) -> Result<Self> {
        let mut input = BufReader::new(File::open(path)?);
        let mut line = Vec::new();
        let header = read_header(&mut input, &mut line)?;
        Ok(Self {
            lines: Lines::new(input),
            name: header.name,
            seed: header.seed,
            query_count: header.query_count,
            delivered: 0,
            line_no: 1,
            finished: false,
        })
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generator seed from the header.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total query count promised by the header.
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Queries handed out so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Read up to `max` queries (at least 1 is attempted), each decoded
    /// into the reader's one reused slot and copied out with buffers of
    /// its exact size. An empty vector means end of file; at that point
    /// the header's query count has been verified against what the file
    /// actually held.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a malformed line (naming
    /// it) or a final count that disagrees with the header.
    pub fn next_chunk(&mut self, max: usize) -> Result<Vec<TraceQuery>> {
        let mut chunk = Vec::new();
        for _ in 0..max.max(1) {
            let Some(query) = self.decode_next()? else {
                break;
            };
            chunk.push(query.clone());
        }
        Ok(chunk)
    }

    /// Decode the next query into the reader's slot; `None` at end of
    /// file, once the header's query count has been checked.
    pub(crate) fn decode_next(&mut self) -> Result<Option<&TraceQuery>> {
        while !self.finished {
            let (line, _) = self.lines.next_slot()?;
            if self.count(line)? {
                return Ok(Some(&self.lines.slot));
            }
        }
        Ok(None)
    }

    /// Decode the next query into `sink`; `false` at end of file, once
    /// the header's query count has been checked.
    pub(crate) fn decode_into(&mut self, sink: &mut impl Sink) -> Result<bool> {
        while !self.finished {
            let (line, _) = self.lines.next_into(sink)?;
            if self.count(line)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Count one line read: `true` for a query.
    fn count(&mut self, line: Line) -> Result<bool> {
        if let Line::End = line {
            self.finished = true;
            check_count(self.query_count, self.delivered)?;
            return Ok(false);
        }
        self.line_no += 1;
        match line {
            Line::Query => {
                self.delivered += 1;
                Ok(true)
            }
            Line::Bad(e) => Err(Error::TraceFormat(format!(
                "bad query on line {}: {e}",
                self.line_no
            ))),
            Line::End | Line::Blank => Ok(false),
        }
    }
}

/// A trace file read in byte ranges, each through its own file handle,
/// so that several threads can decode one file: the header, and the
/// bytes its query lines occupy. A line belongs to the range its first
/// byte is in, so ranges that partition the body partition its lines.
pub(crate) struct TraceFile<'p> {
    path: &'p Path,
    /// The trace name from the header.
    pub(crate) name: String,
    /// The query count the header promises.
    pub(crate) query_count: usize,
    /// Where the query lines are: from just past the header line to the
    /// end of the file.
    pub(crate) body: Range<u64>,
}

impl<'p> TraceFile<'p> {
    /// Open `path` and check its header, as [`TraceReader::open`] does.
    ///
    /// # Errors
    ///
    /// Exactly [`TraceReader::open`]'s.
    pub(crate) fn open(path: &'p Path) -> Result<Self> {
        let mut input = BufReader::new(File::open(path)?);
        let mut line = Vec::new();
        let header = read_header(&mut input, &mut line)?;
        let end = input.get_ref().metadata()?.len();
        let start = u64::try_from(line.len()).unwrap_or(u64::MAX).min(end);
        Ok(Self {
            path,
            name: header.name,
            query_count: header.query_count,
            body: start..end,
        })
    }

    /// Decode, in file order, each query line whose first byte is in
    /// `range` (a line may run past its end) into `sink`. Blank lines are
    /// skipped, as [`TraceReader`] skips them. Returns the number of
    /// queries.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on the first malformed line,
    /// naming it by its line number in the whole file, with the text
    /// [`TraceReader`] gives the same line.
    pub(crate) fn decode_range(&self, range: Range<u64>, sink: &mut impl Sink) -> Result<usize> {
        if range.start >= range.end {
            return Ok(0);
        }
        // A line starts at `range.start` only if the byte before it ends
        // the line before, so reading resumes one byte early and drops
        // everything up to the first newline.
        let mut at = range.start.saturating_sub(1).max(self.body.start);
        let mut file = File::open(self.path)?;
        file.seek(SeekFrom::Start(at))?;
        let mut input = BufReader::new(file);
        let mut line = Vec::new();
        if at < range.start {
            at += u64::try_from(input.read_until(b'\n', &mut line)?).unwrap_or(u64::MAX);
        }
        let mut lines = Lines::new(input);
        let mut decoded = 0;
        while at < range.end {
            let start = at;
            let (line, read) = lines.next_into(sink)?;
            at += u64::try_from(read).unwrap_or(u64::MAX);
            match line {
                Line::End => break,
                Line::Blank => {}
                Line::Query => decoded += 1,
                Line::Bad(e) => {
                    return Err(Error::TraceFormat(format!(
                        "bad query on line {}: {e}",
                        self.line_at(start)?
                    )))
                }
            }
        }
        Ok(decoded)
    }

    /// The 1-based number of the line that starts at byte `offset`: one
    /// more than the newlines before it. Read off the file only for an
    /// error message.
    #[cold]
    fn line_at(&self, offset: u64) -> Result<usize> {
        let mut input = BufReader::new(File::open(self.path)?.take(offset));
        let mut newlines = 0;
        loop {
            let buf = input.fill_buf()?;
            if buf.is_empty() {
                return Ok(newlines + 1);
            }
            newlines += buf.iter().filter(|&&b| b == b'\n').count();
            let read = buf.len();
            input.consume(read);
        }
    }
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

/// Read a trace previously written by [`write_trace`].
///
/// # Errors
///
/// [`Error::TraceFormat`] on version mismatch, malformed lines, or a
/// query count that disagrees with the header.
pub fn read_trace(path: &Path) -> Result<Trace> {
    let mut r = TraceReader::open(path)?;
    let mut queries = Vec::with_capacity(r.query_count().min(1 << 20));
    while let Some(query) = r.decode_next()? {
        queries.push(query.clone());
    }
    Ok(Trace {
        name: r.name().to_string(),
        seed: r.seed(),
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
