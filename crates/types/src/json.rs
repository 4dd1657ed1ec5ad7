//! A minimal, dependency-free JSON cursor, value, and writer.
//!
//! The workspace serializes traces and reports as line-delimited JSON.
//! Doing it here — rather than through an external crate — keeps the
//! workspace fully buildable offline and keeps serialization
//! deterministic: objects preserve insertion order (no hash-map
//! iteration), and integers round-trip exactly through [`Num::U`]/[`Num::I`]
//! instead of being squeezed through `f64`.
//!
//! [`Cursor`] is the one grammar. [`Value::parse`] builds a tree on it;
//! consumers that know their schema, like the trace decoder, read
//! fields off it directly.

use std::fmt;

/// A JSON number, kept in its exact lexical class.
///
/// Byte counters and seeds are `u64`; routing them through `f64` would
/// silently lose precision above 2^53 and corrupt the paper's WAN-byte
/// accounting. Integers therefore stay integers end to end.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A number with a fraction or exponent.
    F(f64),
}

impl Num {
    /// The value as `u64`, if non-negative integral.
    ///
    /// A float (fraction or exponent syntax, or an integer too large for
    /// `u64`) converts only when it is integral and below 2^53. `f64`
    /// holds every integer up to 2^53 exactly, but 2^53 is also what
    /// 2^53 + 1 rounds to, so from there on an integral float no longer
    /// names one integer.
    // The cast is guarded: v is non-negative, integral, and < 2^53.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Num::U(v) => Some(v),
            Num::I(v) => u64::try_from(v).ok(),
            Num::F(v) if v >= 0.0 && v.fract() == 0.0 && v < EXACT => Some(v as u64),
            Num::F(_) => None,
        }
    }

    /// The value as `f64` (lossy for large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(v) => v as f64,
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }
}

/// A parsed JSON value.
///
/// Objects are ordered key/value vectors: serialization is reproducible
/// and never depends on hash-map iteration order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Num),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Wrap a `u64`.
    pub fn u64(v: u64) -> Value {
        Value::Number(Num::U(v))
    }

    /// Wrap an `f64`.
    pub fn f64(v: f64) -> Value {
        Value::Number(Num::F(v))
    }

    /// Wrap a string slice.
    pub fn str(s: &str) -> Value {
        Value::String(s.to_string())
    }

    /// True iff this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u32`, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| u32::try_from(v).ok())
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document from `input`.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut cursor = Cursor::new(input.as_bytes());
        let v = cursor.value()?;
        cursor.done()?;
        Ok(v)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member access; missing keys and non-objects yield [`Value::Null`].
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// Write `s` as a JSON string, quotes included: `"`, `\` and control
/// characters escaped, everything else as is. [`Value`]'s `Display` and
/// the trace writer both write strings through it.
///
/// # Errors
///
/// Only `out`'s own; writing into a `String` cannot fail.
pub fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Value {
    /// Compact serialization (no whitespace), `serde_json`-compatible.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Num::U(v)) => write!(f, "{v}"),
            Value::Number(Num::I(v)) => write!(f, "{v}"),
            Value::Number(Num::F(v)) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; mirror serde_json's `null`.
                    f.write_str("null")
                }
            }
            Value::String(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The deepest nesting of arrays and objects a [`Cursor`] enters
/// (serde_json's limit). Both consumers recurse once per level, so the
/// limit bounds their stack whatever the input: deeper text is an `Err`.
pub const MAX_DEPTH: usize = 128;

/// A pull cursor over one JSON text: the workspace's one JSON grammar.
///
/// A consumer asks for what it expects next, in document order, and the
/// cursor checks the text against it. [`Value::parse`] builds a tree
/// with it; the trace decoder in `byc-workload` writes each field
/// straight into a typed slot and builds none.
///
/// The grammar is JSON's, with two leniencies kept so that every file
/// the workspace has accepted still parses: a number is any run of `-`,
/// digits, `.`, `e`, `E` and `+` that Rust's `u64`, `i64` or `f64`
/// parser accepts (so `007` and `1.` pass), classified as a [`Num`];
/// and a `\u` escape of a lone surrogate decodes to U+FFFD. Strings must be valid UTF-8, and at
/// most [`MAX_DEPTH`] arrays and objects nest.
///
/// Every read skips the whitespace before it, testing the byte at the
/// cursor before it loops, and a plain integer of up to 19 digits folds
/// in one pass. Errors are messages that name the byte offset.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Set between opening a container and the first step into it, the
    /// one step that may meet the closing bracket without a comma.
    fresh: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// The next byte after whitespace, not consumed; `None` at the end.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        match self.bytes.get(self.pos) {
            Some(&b) if !is_space(b) => Some(b),
            _ => self.skip_space(),
        }
    }

    /// [`Self::peek`] past whitespace at the cursor.
    fn skip_space(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !is_space(b) {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Open an object; step through its members with [`Self::member`].
    ///
    /// # Errors
    ///
    /// No `{` next, or the object would nest deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn object(&mut self) -> Result<(), String> {
        self.enter(b'{')
    }

    /// Step to the next member of the innermost open object: its key is
    /// unescaped into `key` and its `:` consumed, so its value is read
    /// next. `false` once the object's `}` is consumed.
    ///
    /// # Errors
    ///
    /// Malformed separators or key.
    #[inline]
    pub fn member(&mut self, key: &mut String) -> Result<bool, String> {
        if !self.advance(b'}')? {
            return Ok(false);
        }
        self.string(key)?;
        self.expect(b':')?;
        Ok(true)
    }

    /// Open an array; step through its elements with [`Self::element`].
    ///
    /// # Errors
    ///
    /// No `[` next, or the array would nest deeper than [`MAX_DEPTH`].
    #[inline]
    pub fn array(&mut self) -> Result<(), String> {
        self.enter(b'[')
    }

    /// Step to the next element of the innermost open array, which is
    /// read next. `false` once the array's `]` is consumed.
    ///
    /// # Errors
    ///
    /// A missing comma or bracket.
    #[inline]
    pub fn element(&mut self) -> Result<bool, String> {
        self.advance(b']')
    }

    /// A string, unescaped into `out` in place of its old content.
    ///
    /// # Errors
    ///
    /// No string next, invalid UTF-8, a bad escape or a raw control
    /// character.
    #[inline]
    pub fn string(&mut self, out: &mut String) -> Result<(), String> {
        self.expect(b'"')?;
        out.clear();
        let bytes = self.bytes;
        loop {
            let rest = bytes.get(self.pos..).unwrap_or_default();
            let plain = plain_run(rest);
            let (run, tail) = rest.split_at(plain);
            match std::str::from_utf8(run) {
                Ok(text) => out.push_str(text),
                Err(e) => {
                    return Err(format!(
                        "invalid UTF-8 at byte {}",
                        self.pos + e.valid_up_to()
                    ))
                }
            }
            self.pos += plain;
            match tail.first() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// A number, classified by [`Num`]'s rules: a plain integer that
    /// fits is [`Num::U`] or [`Num::I`], anything else [`Num::F`].
    ///
    /// # Errors
    ///
    /// No number next, or a run the number parsers refuse.
    #[inline]
    pub fn number(&mut self) -> Result<Num, String> {
        self.peek();
        let start = self.pos;
        // The common case, a plain run of at most 19 digits, folds in one
        // pass: 19 nines are below `u64::MAX`, so the fold cannot overflow.
        let digits = self.bytes.get(start..).unwrap_or_default();
        let mut len = 0;
        let mut v = 0u64;
        for &b in digits.iter().take(19) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            v = v * 10 + u64::from(digit);
            len += 1;
        }
        match digits.get(len) {
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') => self.number_text(start),
            _ if len == 0 => self.number_text(start),
            _ => {
                self.pos = start + len;
                Ok(Num::U(v))
            }
        }
    }

    /// Any other number: lexed and classified through the text.
    #[cold]
    fn number_text(&mut self, start: usize) -> Result<Num, String> {
        let rest = self.bytes.get(start..).unwrap_or_default();
        if !matches!(rest.first(), Some(b'-' | b'0'..=b'9')) {
            return Err(format!("expected a number at byte {start}"));
        }
        let sign = usize::from(rest.first() == Some(&b'-'));
        let len = sign
            + rest
                .iter()
                .skip(sign)
                .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .count();
        let token = rest.get(..len).unwrap_or_default();
        self.pos = start + len;
        // ASCII by construction.
        let text = std::str::from_utf8(token).unwrap_or_default();
        if token.iter().skip(sign).all(u8::is_ascii_digit) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Num::U(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Num::I(v));
            }
        }
        text.parse::<f64>()
            .map(Num::F)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    /// Skip one value of any kind, checked as [`Value::parse`] checks it.
    ///
    /// # Errors
    ///
    /// Whatever [`Value::parse`] would refuse in the value.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    /// Check that nothing but whitespace is left.
    ///
    /// # Errors
    ///
    /// Trailing content after the value.
    #[inline]
    pub fn done(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing content at byte {}", self.pos)),
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    #[inline]
    fn enter(&mut self, bracket: u8) -> Result<(), String> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            ));
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step into the innermost open container: `true` when an item
    /// follows, `false` once `close` is consumed.
    #[inline]
    fn advance(&mut self, close: u8) -> Result<bool, String> {
        let next = self.peek();
        if std::mem::take(&mut self.fresh) {
            if next != Some(close) {
                return Ok(true);
            }
        } else if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        } else if next != Some(close) {
            return Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.pos
            ));
        }
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
        Ok(false)
    }

    /// The character an escape stands for; the backslash is consumed.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let esc = *self
            .bytes
            .get(at)
            .ok_or_else(|| format!("dangling escape at byte {at}"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => self.unicode()?,
            _ => return Err(format!("unknown escape {:?} at byte {at}", esc as char)),
        })
    }

    /// The code point of a `\u` escape, joined with the low surrogate
    /// escape that follows a high one. Lone surrogates become U+FFFD.
    fn unicode(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return Ok(char::from_u32(hi).unwrap_or(char::REPLACEMENT_CHARACTER));
        }
        let after = self.pos;
        if self
            .bytes
            .get(after..)
            .is_some_and(|rest| rest.starts_with(b"\\u"))
        {
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            // Not a low half: it is an escape of its own.
            self.pos = after;
        }
        Ok(char::REPLACEMENT_CHARACTER)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| format!("short \\u escape at byte {at}"))?;
        let code = digits.iter().try_fold(0u32, |code, &d| {
            char::from(d).to_digit(16).map(|v| code << 4 | v)
        });
        self.pos += 4;
        code.ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    /// One value as a tree: the body of [`Value::parse`]. Recursion is
    /// bounded by [`MAX_DEPTH`], checked as each container opens.
    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                self.object()?;
                let mut fields = Vec::new();
                let mut key = String::new();
                while self.member(&mut key)? {
                    let value = self.value()?;
                    fields.push((std::mem::take(&mut key), value));
                }
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                self.array()?;
                let mut items = Vec::new();
                while self.element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => {
                let mut s = String::new();
                self.string(&mut s)?;
                Ok(Value::String(s))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }
}

/// JSON's whitespace.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// The length of the run at the start of `bytes` that a string copies
/// as is: no `"`, no `\\` and no control character. Eight bytes are
/// tested at a time with the word-wise "has a byte below n" test, which
/// never misses such a byte; a word it flags is scanned byte by byte.
///
/// A string whose content is such a run and valid UTF-8, then `"`, reads
/// as [`Cursor::string`] reads it.
pub fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_in = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let mut run = 0;
    for word in bytes.chunks_exact(8) {
        let Ok(word) = <[u8; 8]>::try_from(word).map(u64::from_le_bytes) else {
            break;
        };
        // Bytes below 0x20, and bytes equal to `"` or `\\`.
        let special = (word.wrapping_sub(ONES * 0x20) & !word & HIGHS)
            | zero_in(word ^ (ONES * u64::from(b'"')))
            | zero_in(word ^ (ONES * u64::from(b'\\')));
        if special != 0 {
            break;
        }
        run += 8;
    }
    let tail = bytes.get(run..).unwrap_or_default();
    run + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(tail.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::u64(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Number(Num::I(-7)));
        assert_eq!(Value::parse("2.5").unwrap(), Value::f64(2.5));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn large_u64_roundtrips_exactly() {
        let v = u64::MAX - 1;
        let parsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(v));
        assert_eq!(parsed.to_string(), v.to_string());
    }

    #[test]
    fn arrays_and_objects_roundtrip() {
        let text = "{\"a\":[1,2,3],\"b\":{\"c\":\"x\"},\"d\":null}";
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert!(v.is_object());
        assert_eq!(v["a"].as_array().unwrap().len(), 3);
        assert_eq!(v["b"]["c"], "x");
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Value::Object(vec![
            ("z".into(), Value::u64(1)),
            ("a".into(), Value::u64(2)),
        ]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash";
        let v = Value::String(original.to_string());
        let text = v.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(Value::parse("\"\\u0041\"").unwrap(), "A");
        // Surrogate pair for U+1F600.
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nope").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v["a"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Deep enough to overflow the stack of an unbounded recursion.
        let deep = format!("{{\"x\":{}}}", nested(100_000));
        assert!(Value::parse(&deep).is_err());
        let mut cursor = Cursor::new(deep.as_bytes());
        assert!(cursor.skip_value().is_err());
    }

    #[test]
    fn integers_stay_exact() {
        let u = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(u("5.0"), Some(5));
        assert_eq!(u("5e0"), Some(5));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("007"), Some(7));
        assert_eq!(u("9007199254740991.0"), Some(9_007_199_254_740_991));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        // One past u64::MAX lexes as a float: it must not saturate.
        assert_eq!(u("18446744073709551616"), None);
        // 2^53 + 1 rounds to 2^53 as a float: it must not read as 2^53.
        assert_eq!(u("9007199254740993.0"), None);
        assert_eq!(u("9007199254740992.0"), None);
        assert_eq!(u("2.5"), None);
        assert_eq!(u("-1"), None);
    }

    #[test]
    fn cursor_steps_through_members() {
        let text = br#" {"a": [1, {"b": "x"}], "c": "\u00e9"} "#;
        let mut cursor = Cursor::new(text);
        let mut key = String::new();
        let mut s = String::new();
        cursor.object().unwrap();
        assert!(cursor.member(&mut key).unwrap());
        assert_eq!(key, "a");
        cursor.array().unwrap();
        assert!(cursor.element().unwrap());
        assert_eq!(cursor.number().unwrap(), Num::U(1));
        assert!(cursor.element().unwrap());
        cursor.skip_value().unwrap();
        assert!(!cursor.element().unwrap());
        assert!(cursor.member(&mut key).unwrap());
        assert_eq!(key, "c");
        cursor.string(&mut s).unwrap();
        assert_eq!(s, "\u{e9}");
        assert!(!cursor.member(&mut key).unwrap());
        cursor.done().unwrap();
    }

    #[test]
    fn integer_step_boundaries() {
        let number = |text: &str| Cursor::new(text.as_bytes()).number();
        // 19 digits fold; a 20th goes to the general path.
        assert_eq!(
            number("9999999999999999999"),
            Ok(Num::U(9_999_999_999_999_999_999))
        );
        assert_eq!(
            number("10000000000000000000"),
            Ok(Num::U(10_000_000_000_000_000_000))
        );
        assert_eq!(number("18446744073709551615"), Ok(Num::U(u64::MAX)));
        let past = number("18446744073709551616").unwrap();
        assert!(matches!(past, Num::F(_)), "{past:?}");
        assert_eq!(past.as_u64(), None);
        // The fold and the general lexer agree on every digit run around
        // 19 digits, whatever follows it, and stop at the same byte.
        for len in 1..=24 {
            for fill in ["0", "1", "9"] {
                for tail in ["", ",", "]", "}", " ", ".5", "e2", "E0", "+", "-1", "x"] {
                    let text = format!("{}{tail}", fill.repeat(len));
                    let mut fast = Cursor::new(text.as_bytes());
                    let mut general = Cursor::new(text.as_bytes());
                    assert_eq!(fast.number(), general.number_text(0), "{text}");
                    assert_eq!(fast.pos, general.pos, "{text}");
                }
            }
        }
    }

    #[test]
    fn cursor_refuses_what_parse_refuses() {
        for bad in [
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "\"\\x\"",
            "\"\\u12G4\"",
            "1 2",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad}");
            let mut cursor = Cursor::new(bad.as_bytes());
            assert!(
                cursor.skip_value().and_then(|()| cursor.done()).is_err(),
                "{bad}"
            );
        }
        assert!(Cursor::new(b"\"\xff\"").string(&mut String::new()).is_err());
        assert!(Cursor::new(b"x").number().is_err());
    }

    #[test]
    fn plain_run_stops_at_every_special_byte() {
        let naive = |bytes: &[u8]| {
            bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len())
        };
        for fill in [b'a', 0x80, 0xff] {
            for special in 0..=255u8 {
                for at in 0..20 {
                    let mut bytes = vec![fill; 20];
                    bytes[at] = special;
                    assert_eq!(plain_run(&bytes), naive(&bytes), "{fill} {special} at {at}");
                }
            }
        }
    }

    #[test]
    fn lone_surrogates_become_replacement_characters() {
        assert_eq!(Value::parse("\"\\ud800\"").unwrap(), "\u{FFFD}");
        assert_eq!(Value::parse("\"\\udc00\"").unwrap(), "\u{FFFD}");
        // A high half before an escape that is not a low half.
        assert_eq!(Value::parse("\"\\ud800\\u0041\"").unwrap(), "\u{FFFD}A");
    }

    #[test]
    fn accessor_conversions() {
        let v = Value::parse("{\"n\":7,\"f\":1.5,\"s\":\"x\"}").unwrap();
        assert_eq!(v["n"].as_u32(), Some(7));
        assert_eq!(v["f"].as_f64(), Some(1.5));
        assert_eq!(v["f"].as_u64(), None);
        assert_eq!(v["s"].as_str(), Some("x"));
        assert_eq!(v["s"].as_u64(), None);
    }
}
