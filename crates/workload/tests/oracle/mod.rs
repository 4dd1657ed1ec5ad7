//! The reference the trace decoder is checked against: the first
//! decoder, kept verbatim in its rules, on a lexer of its own. It parses
//! each line into a small [`Json`] tree, then copies the fields out of
//! the tree by name, so every rule is one `get` or one type check a
//! reader can see.
//!
//! The lexer shares no step with the shipped `byc_types::json::Cursor`:
//! integers go through `str::parse::<u64>` (and `i64`), other numbers
//! through `str::parse::<f64>` under the documented integer rules, and
//! strings through its own unescape, which decodes runs of `\u` escapes
//! with `char::decode_utf16`. It accepts the same text as the cursor:
//! JSON, plus a number token that is any run of `-`, digits, `.`, `e`,
//! `E` and `+` those parsers take, a lone surrogate escape as U+FFFD,
//! and at most 128 nested containers.
//!
//! * [`query_from_json`] — one parsed line to a [`TraceQuery`]: every
//!   field required, the first of duplicate keys wins (`Json::get`
//!   finds the first), unknown keys ignored;
//! * [`read_line`] — one raw line as the line-by-line reader saw it:
//!   invalid UTF-8 fails, a blank line (by `str::trim`) is skipped;
//! * [`read_file`] — a whole file: the header, each line in turn, and
//!   the header's promised count.

#![allow(dead_code)]

use byc_types::{Bytes, ColumnId, Error, QueryId, Result, TableId};
use byc_workload::TraceQuery;

/// A parsed JSON value. A number keeps what the field rules ask of it:
/// the `u64` it names, if any.
#[derive(Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Number(Option<u64>),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// One whole JSON text.
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let mut lexer = Lexer {
            rest: text,
            depth: 0,
        };
        let value = lexer.value()?;
        lexer.skip_space();
        match lexer.rest.is_empty() {
            true => Ok(value),
            false => Err(format!("trailing content: {:?}", lexer.rest)),
        }
    }

    fn is_object(&self) -> bool {
        matches!(self, Json::Object(_))
    }

    /// The first member named `key`.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => *n,
            _ => None,
        }
    }

    fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects accepted.
const MAX_DEPTH: usize = 128;

/// A recursive-descent lexer over the text not yet read.
struct Lexer<'a> {
    rest: &'a str,
    depth: usize,
}

impl Lexer<'_> {
    fn skip_space(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    /// Consume `c` after whitespace, if it is next.
    fn eat(&mut self, c: char) -> bool {
        self.skip_space();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn expect(&mut self, c: char) -> std::result::Result<(), String> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(format!("expected {c:?} at {:?}", self.rest)),
        }
    }

    fn next_char(&mut self) -> Option<char> {
        let mut chars = self.rest.chars();
        let c = chars.next()?;
        self.rest = chars.as_str();
        Some(c)
    }

    fn value(&mut self) -> std::result::Result<Json, String> {
        self.skip_space();
        match self.rest.chars().next() {
            Some('{' | '[') => self.container(),
            Some('"') => self.string().map(Json::String),
            Some('-' | '0'..='9') => self.number(),
            Some(_) => {
                for (word, value) in [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ] {
                    if let Some(rest) = self.rest.strip_prefix(word) {
                        self.rest = rest;
                        return Ok(value);
                    }
                }
                Err(format!("unexpected {:?}", self.rest))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// An object or an array: items separated by commas, no trailing
    /// comma.
    fn container(&mut self) -> std::result::Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err("nested too deep".into());
        }
        self.depth += 1;
        let object = self.eat('{');
        if !object {
            self.expect('[')?;
        }
        let close = if object { '}' } else { ']' };
        let (mut fields, mut items) = (Vec::new(), Vec::new());
        if !self.eat(close) {
            loop {
                if object {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(':')?;
                    fields.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                if self.eat(close) {
                    break;
                }
                self.expect(',')?;
            }
        }
        self.depth -= 1;
        Ok(match object {
            true => Json::Object(fields),
            false => Json::Array(items),
        })
    }

    /// A string, unescaped. A run of `\u` escapes is UTF-16: pairs join,
    /// and an unpaired surrogate becomes U+FFFD.
    fn string(&mut self) -> std::result::Result<String, String> {
        self.rest = self
            .rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a string at {:?}", self.rest))?;
        let mut out = String::new();
        loop {
            match self.next_char().ok_or("unterminated string")? {
                '"' => return Ok(out),
                '\\' if self.rest.starts_with('u') => {
                    let mut units = Vec::new();
                    loop {
                        let hex = self.rest.get(1..5).ok_or("short \\u escape")?;
                        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                            return Err(format!("bad \\u escape {hex:?}"));
                        }
                        units.push(u16::from_str_radix(hex, 16).map_err(|e| e.to_string())?);
                        self.rest = &self.rest[5..];
                        match self.rest.strip_prefix("\\u") {
                            Some(_) => self.rest = &self.rest[1..],
                            None => break,
                        }
                    }
                    out.extend(
                        char::decode_utf16(units).map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER)),
                    );
                }
                '\\' => out.push(match self.next_char().ok_or("dangling escape")? {
                    '"' => '"',
                    '\\' => '\\',
                    '/' => '/',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    other => return Err(format!("unknown escape {other:?}")),
                }),
                c if c < ' ' => return Err(format!("control character {c:?} in a string")),
                c => out.push(c),
            }
        }
    }

    /// A number token: the longest run of `-`, digits, `.`, `e`, `E` and
    /// `+`. Digits alone (after an optional `-`) are an integer, exact
    /// when `u64` or `i64` holds it; any other token is an `f64`, which
    /// names a `u64` only when it is non-negative, integral and below
    /// 2^53, where every integer is exact.
    fn number(&mut self) -> std::result::Result<Json, String> {
        let len = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
            .unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(len);
        self.rest = rest;
        let digits = token.strip_prefix('-').unwrap_or(token);
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::Number(Some(n)));
            }
            if let Ok(n) = token.parse::<i64>() {
                return Ok(Json::Number(u64::try_from(n).ok()));
            }
        }
        let v: f64 = token.parse().map_err(|_| format!("bad number {token:?}"))?;
        let exact = (0.0..9_007_199_254_740_992.0).contains(&v) && v == v.trunc();
        Ok(Json::Number(exact.then_some(v as u64)))
    }
}

fn field<'v>(v: &'v Json, key: &str) -> Result<&'v Json> {
    v.get(key)
        .ok_or_else(|| Error::TraceFormat(format!("missing field {key:?}")))
}

fn field_u64(v: &Json, key: &str) -> Result<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u64")))
}

fn field_u32(v: &Json, key: &str) -> Result<u32> {
    field(v, key)?
        .as_u32()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u32")))
}

fn field_str<'v>(v: &'v Json, key: &str) -> Result<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a string")))
}

fn field_array<'v>(v: &'v Json, key: &str) -> Result<&'v [Json]> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not an array")))
}

fn parse_yield_pairs(v: &Json, key: &str) -> Result<Vec<(u32, Bytes)>> {
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
pub fn query_from_json(v: &Json) -> Result<TraceQuery> {
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
    let v = Json::parse(text).map_err(Error::TraceFormat)?;
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
    let header = Json::parse(std::str::from_utf8(header).unwrap()).unwrap();
    let promised = header.get("query_count").and_then(Json::as_usize).unwrap();
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
