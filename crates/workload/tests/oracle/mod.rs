//! The reference the trace decoder is checked against: the first
//! decoder, kept verbatim in its rules. It parses each line into a
//! generic [`Value`] tree, then copies the fields out of the tree by
//! name, so every rule is one `get` or one type check a reader can see.
//!
//! * [`query_from_json`] — one parsed line to a [`TraceQuery`]: every
//!   field required, the first of duplicate keys wins (`Value::get`
//!   finds the first), unknown keys ignored;
//! * [`read_line`] — one raw line as the line-by-line reader saw it:
//!   invalid UTF-8 fails, a blank line (by `str::trim`) is skipped;
//! * [`read_file`] — a whole file: the header, each line in turn, and
//!   the header's promised count.

#![allow(dead_code)]

use byc_types::json::Value;
use byc_types::{Bytes, ColumnId, Error, QueryId, Result, TableId};
use byc_workload::TraceQuery;

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| Error::TraceFormat(format!("missing field {key:?}")))
}

fn field_u64(v: &Value, key: &str) -> Result<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u64")))
}

fn field_u32(v: &Value, key: &str) -> Result<u32> {
    field(v, key)?
        .as_u32()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u32")))
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a string")))
}

fn field_array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value]> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not an array")))
}

fn parse_yield_pairs(v: &Value, key: &str) -> Result<Vec<(u32, Bytes)>> {
    field_array(v, key)?
        .iter()
        .map(|pair| {
            let (id_v, bytes_v) = match pair.as_array() {
                Some([id, bytes]) => (id, bytes),
                _ => {
                    return Err(Error::TraceFormat(format!(
                        "field {key:?} entries must be [id, bytes] pairs"
                    )))
                }
            };
            let id = id_v
                .as_u32()
                .ok_or_else(|| Error::TraceFormat(format!("bad id in {key:?}")))?;
            let bytes = bytes_v
                .as_u64()
                .ok_or_else(|| Error::TraceFormat(format!("bad byte count in {key:?}")))?;
            Ok((id, Bytes::new(bytes)))
        })
        .collect()
}

/// One parsed query line to a [`TraceQuery`].
pub fn query_from_json(v: &Value) -> Result<TraceQuery> {
    if !v.is_object() {
        return Err(Error::TraceFormat("query is not an object".into()));
    }
    let u64_list = |key: &str| -> Result<Vec<u64>> {
        field_array(v, key)?
            .iter()
            .map(|item| {
                item.as_u64()
                    .ok_or_else(|| Error::TraceFormat(format!("bad entry in {key:?}")))
            })
            .collect()
    };
    let id_list = |key: &str| -> Result<Vec<u32>> {
        field_array(v, key)?
            .iter()
            .map(|item| {
                item.as_u32()
                    .ok_or_else(|| Error::TraceFormat(format!("bad id in {key:?}")))
            })
            .collect()
    };
    Ok(TraceQuery {
        id: QueryId::new(field_u32(v, "id")?),
        sql: field_str(v, "sql")?.to_string(),
        template: field_u32(v, "template")?,
        data_keys: u64_list("data_keys")?,
        tables: id_list("tables")?.into_iter().map(TableId::new).collect(),
        columns: id_list("columns")?.into_iter().map(ColumnId::new).collect(),
        total_yield: Bytes::new(field_u64(v, "total_yield")?),
        table_yields: parse_yield_pairs(v, "table_yields")?
            .into_iter()
            .map(|(id, b)| (TableId::new(id), b))
            .collect(),
        column_yields: parse_yield_pairs(v, "column_yields")?
            .into_iter()
            .map(|(id, b)| (ColumnId::new(id), b))
            .collect(),
    })
}

/// One raw line (without its `\n`): `None` for a blank line.
pub fn read_line(line: &[u8]) -> Result<Option<TraceQuery>> {
    let text = std::str::from_utf8(line)
        .map_err(|_| Error::Io("stream did not contain valid UTF-8".into()))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let v = Value::parse(text).map_err(Error::TraceFormat)?;
    query_from_json(&v).map(Some)
}

/// Why a whole file was refused.
#[derive(Debug, PartialEq)]
pub enum FileError {
    /// The query on this 1-based line was refused.
    Line(usize),
    /// Every line decoded, but their count is not the header's.
    Count,
}

/// A whole file with a well-formed header: the queries, or the first
/// refusal.
pub fn read_file(bytes: &[u8]) -> std::result::Result<Vec<TraceQuery>, FileError> {
    let mut lines = bytes.split(|&b| b == b'\n');
    let header = lines.next().unwrap_or_default();
    let header = Value::parse(std::str::from_utf8(header).unwrap()).unwrap();
    let promised = header.get("query_count").and_then(Value::as_usize).unwrap();
    // `split` yields an empty piece after a final newline; a reader
    // sees no line there.
    let mut body: Vec<&[u8]> = lines.collect();
    if body.last().is_some_and(|line| line.is_empty()) {
        body.pop();
    }
    let mut queries = Vec::new();
    for (i, line) in body.iter().enumerate() {
        match read_line(line) {
            Ok(Some(q)) => queries.push(q),
            Ok(None) => {}
            Err(_) => return Err(FileError::Line(i + 2)),
        }
    }
    if queries.len() == promised {
        Ok(queries)
    } else {
        Err(FileError::Count)
    }
}
