//! The trace decoder against its oracle, on generated and corrupted
//! lines.
//!
//! Every case generates a trace, writes it with `TraceWriter`, and then
//! mutates the written lines: reordered, duplicated and unknown (nested)
//! members, escaped keys and SQL, respelled integers, out-of-range ids,
//! missing and mistyped members, truncation at every byte, spliced lines,
//! flipped bytes, and one whitespace byte at each token boundary in turn. Wherever the oracle (the first decoder, in
//! `oracle/`) decodes a line, the shipped decoder must give the same
//! `TraceQuery`; wherever the oracle refuses it, the shipped decoder must
//! return an `Err`. Neither may panic. Whole files go through
//! `TraceReader::next_chunk` at chunk sizes 1, 7 and 1024, and through
//! `ReplayTrace::read`, which must
//! accept or refuse each file as `read_trace` does, with the same error
//! text, and when it accepts equal the conversion of `read_trace`'s
//! trace at both granularities.

mod oracle;

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_types::json::{Num, Value};
use byc_types::SplitMix64;
use byc_workload::io::{decode_query, read_trace};
use byc_workload::{generate, ReplayTrace, TraceQuery, TraceReader, TraceWriter, WorkloadConfig};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str, seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "byc-decoder-{}-{name}-{seed}.jsonl",
        std::process::id()
    ));
    p
}

/// A generated trace as `TraceWriter` writes it: the header line and
/// the query lines, without their newlines.
fn written_lines(seed: u64, queries: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let cat = build(SdssRelease::Edr, 1e-4, 1);
    let trace = generate(&cat, &WorkloadConfig::smoke(seed, queries)).unwrap();
    let path = tmp("written", seed);
    let mut w = TraceWriter::create(&path, &trace.name, trace.seed, trace.len()).unwrap();
    for q in &trace.queries {
        w.write(q).unwrap();
    }
    w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut lines: Vec<Vec<u8>> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect();
    let header = lines.remove(0);
    (header, lines)
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    usize::try_from(rng.next_bounded(n.max(1) as u64)).unwrap()
}

/// Whitespace JSON allows between tokens, never a newline.
fn ws(rng: &mut SplitMix64, out: &mut String) {
    if rng.chance(0.1) {
        for _ in 0..=pick(rng, 2) {
            out.push([' ', '\t', '\r'][pick(rng, 3)]);
        }
    }
}

/// `s` as a JSON string, some characters escaped that need not be.
fn escaped(s: &str, rng: &mut SplitMix64, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.chance(0.3) => out.push_str("\\/"),
            c if (c as u32) < 0x20 || rng.chance(0.15) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A non-negative integer in one of the spellings both decoders take.
fn respelled(n: u64, rng: &mut SplitMix64, out: &mut String) {
    match pick(rng, 8) {
        0 => out.push_str(&format!("{n}.0")),
        1 => out.push_str(&format!("{n}e0")),
        2 => out.push_str(&format!("{n}0e-1")),
        3 => out.push_str(&format!("00{n}")),
        4 if n == 0 => out.push_str(["-0", "-0.0", "0e5"][pick(rng, 3)]),
        _ => out.push_str(&n.to_string()),
    }
}

/// `v` as JSON text, with random whitespace and, when `respell`,
/// escapes and integer spellings.
fn render(v: &Value, respell: bool, rng: &mut SplitMix64, out: &mut String) {
    ws(rng, out);
    match v {
        Value::Number(Num::U(n)) if respell => respelled(*n, rng, out),
        Value::String(s) if respell => escaped(s, rng, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, respell, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                if respell {
                    escaped(k, rng, out);
                } else {
                    out.push_str(&Value::String(k.clone()).to_string());
                }
                ws(rng, out);
                out.push(':');
                render(item, respell, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
    ws(rng, out);
}

/// A random JSON value for an unknown member, up to `depth` deep.
fn junk(rng: &mut SplitMix64, depth: usize) -> Value {
    match pick(rng, if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::u64(rng.next_u64() >> pick(rng, 64)),
        3 => Value::f64(rng.next_f64() * 1e6 - 5e5),
        4 => Value::str(["", "x", "é\"\\/\u{1F600}", "\u{0}\n\t", "{\"id\":1}"][pick(rng, 5)]),
        5 => Value::Array((0..pick(rng, 4)).map(|_| junk(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..pick(rng, 4))
                .map(|i| (format!("k{i}"), junk(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A member value of the wrong type, or out of its field's range.
fn wrong(rng: &mut SplitMix64) -> Value {
    let pair = |n: u64| Value::Array((1..=n).map(Value::u64).collect());
    match pick(rng, 9) {
        0 => Value::Null,
        1 => Value::str("7"),
        2 => Value::Number(Num::I(-1)),
        3 => Value::f64(2.5),
        4 => Value::u64(u64::from(u32::MAX) + 1),
        5 => Value::Array(vec![pair(2), pair(1)]),
        6 => Value::Array(vec![pair(2), pair(3)]),
        7 => Value::Array(vec![Value::u64(1), Value::Null]),
        _ => Value::Object(vec![]),
    }
}

/// Structural mutations of a written query line. Without `breaking`
/// the line still decodes, perhaps to other values; with it, missing,
/// mistyped and out-of-range members can make it fail.
fn mutated(line: &[u8], others: &[Vec<u8>], breaking: bool, rng: &mut SplitMix64) -> String {
    let Value::Object(mut fields) = Value::parse(std::str::from_utf8(line).unwrap()).unwrap()
    else {
        unreachable!("the writer writes objects");
    };
    for _ in 0..=pick(rng, 3) {
        match pick(rng, if breaking { 7 } else { 4 }) {
            // Reorder.
            0 => {
                for i in (1..fields.len()).rev() {
                    fields.swap(i, pick(rng, i + 1));
                }
            }
            // An unknown, possibly nested member anywhere.
            1 => {
                let at = pick(rng, fields.len() + 1);
                let key = ["zz", "ID", "sql ", "tables2", ""][pick(rng, 5)].to_string();
                fields.insert(at, (key, junk(rng, 4)));
            }
            // A later duplicate of a member, with any value: the first wins.
            2 if !fields.is_empty() => {
                let (key, _) = fields[pick(rng, fields.len())].clone();
                let value = if rng.chance(0.5) {
                    junk(rng, 2)
                } else {
                    wrong(rng)
                };
                fields.push((key, value));
            }
            // A duplicate taken from another line, placed first: it wins.
            3 if !others.is_empty() => {
                let other = &others[pick(rng, others.len())];
                if let Value::Object(theirs) =
                    Value::parse(std::str::from_utf8(other).unwrap()).unwrap()
                {
                    if let Some(member) = theirs.get(pick(rng, theirs.len())).cloned() {
                        fields.insert(0, member);
                    }
                }
            }
            // A member dropped.
            4 if !fields.is_empty() => {
                fields.remove(pick(rng, fields.len()));
            }
            // A member of the wrong type or out of range.
            5 if !fields.is_empty() => {
                let at = pick(rng, fields.len());
                fields[at].1 = wrong(rng);
            }
            // Not an object at all.
            6 => return ["[]", "5", "\"q\"", "null"][pick(rng, 4)].to_string(),
            _ => {}
        }
    }
    let mut out = String::new();
    render(&Value::Object(fields), rng.chance(0.7), rng, &mut out);
    if breaking && rng.chance(0.5) {
        out = respell_a_number(&out, rng);
    }
    out
}

/// Replace one number token with an edge spelling: out of `u32` or
/// `u64` range, at and past 2^53, negative, fractional or overflowing.
fn respell_a_number(text: &str, rng: &mut SplitMix64) -> String {
    const EDGES: [&str; 12] = [
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "9007199254740991.0",
        "9007199254740992.0",
        "9007199254740993.0",
        "-1",
        "1.5",
        "1e400",
        "-0",
        "1e19",
    ];
    let bytes = text.as_bytes();
    let starts: Vec<usize> = (1..bytes.len())
        .filter(|&i| {
            matches!(bytes[i - 1], b':' | b'[' | b',') && matches!(bytes[i], b'0'..=b'9' | b'-')
        })
        .collect();
    let Some(&start) = starts.get(pick(rng, starts.len())) else {
        return text.to_string();
    };
    let end = start
        + bytes[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
    format!(
        "{}{}{}",
        &text[..start],
        EDGES[pick(rng, EDGES.len())],
        &text[end..]
    )
}

/// Byte-level damage: a flipped byte, a cut, or a splice with another
/// line.
fn damaged(line: &[u8], others: &[Vec<u8>], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = line.to_vec();
    match pick(rng, 3) {
        0 if !out.is_empty() => {
            const INTERESTING: &[u8] = b"\"\\{}[],:0123456789.eE+- \t\rntfu\x00\x7f\x80\xc3\xff";
            let at = pick(rng, out.len());
            out[at] = if rng.chance(0.5) {
                INTERESTING[pick(rng, INTERESTING.len())]
            } else {
                u8::try_from(rng.next_bounded(256)).unwrap()
            };
            if out[at] == b'\n' {
                out[at] = b' ';
            }
        }
        1 => out.truncate(pick(rng, out.len() + 1)),
        _ if !others.is_empty() => {
            let other = &others[pick(rng, others.len())];
            out.truncate(pick(rng, out.len() + 1));
            out.extend_from_slice(&other[pick(rng, other.len() + 1)..]);
        }
        _ => {}
    }
    out
}

/// One line through both decoders: equal queries where the oracle
/// decodes, an `Err` where it refuses. `slot` is reused across calls,
/// so a slot left over from a longer query must not leak into this one.
fn agree(line: &[u8], slot: &mut TraceQuery) {
    let shipped = decode_query(line, slot);
    match oracle::read_line(line) {
        Ok(Some(expected)) => {
            assert!(
                shipped.is_ok(),
                "oracle decodes, shipped refuses ({:?}): {:?}",
                shipped,
                String::from_utf8_lossy(line)
            );
            assert_eq!(*slot, expected, "{:?}", String::from_utf8_lossy(line));
        }
        // Blank lines are the reader's business, not the decoder's.
        Ok(None) => {}
        Err(_) => assert!(
            shipped.is_err(),
            "oracle refuses, shipped decodes: {:?}",
            String::from_utf8_lossy(line)
        ),
    }
}

/// Every byte offset of `line` between two JSON tokens, and its two
/// ends: where whitespace may go without changing what it says.
fn token_boundaries(line: &[u8]) -> Vec<usize> {
    let mut at = vec![0, line.len()];
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in line.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    in_string = false;
                    at.push(i + 1);
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => {
                in_string = true;
                at.push(i);
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' => at.extend([i, i + 1]),
            _ => {}
        }
    }
    at.sort_unstable();
    at.dedup();
    at
}

/// A whole file read `chunk` queries at a time: the queries it held, or
/// the error it stopped at.
fn read_chunked(path: &std::path::Path, chunk: usize) -> Result<Vec<TraceQuery>, String> {
    let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    loop {
        let got = reader.next_chunk(chunk).map_err(|e| e.to_string())?;
        if got.is_empty() {
            return Ok(out);
        }
        assert!(got.len() <= chunk);
        out.extend(got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mutated lines decode as the oracle decodes them, or fail where
    /// it fails.
    #[test]
    fn mutated_lines_match_oracle(seed in any::<u64>(), queries in 2usize..12) {
        let (_, lines) = written_lines(seed, queries);
        let mut rng = SplitMix64::new(seed);
        let mut slot = TraceQuery::default();
        for line in &lines {
            agree(line, &mut slot);
            let respelled = mutated(line, &lines, false, &mut rng);
            agree(respelled.as_bytes(), &mut slot);
            let broken = mutated(line, &lines, true, &mut rng);
            agree(broken.as_bytes(), &mut slot);
            agree(&damaged(respelled.as_bytes(), &lines, &mut rng), &mut slot);
            agree(&damaged(line, &lines, &mut rng), &mut slot);
        }
        // Every cut of one line.
        let line = mutated(&lines[pick(&mut rng, lines.len())], &lines, false, &mut rng);
        for cut in 0..=line.len() {
            agree(&line.as_bytes()[..cut], &mut slot);
        }
    }

    /// One whitespace byte at each token boundary of a written line, one
    /// boundary at a time: wherever the decoder meets other bytes than
    /// the writer's, it must still return the oracle's query.
    #[test]
    fn whitespace_at_every_token_boundary(seed in any::<u64>(), queries in 1usize..4) {
        let (_, lines) = written_lines(seed, queries);
        let mut slot = TraceQuery::default();
        for line in &lines {
            let expected = oracle::read_line(line).unwrap().unwrap();
            for (n, at) in token_boundaries(line).into_iter().enumerate() {
                let mut spaced = line.clone();
                spaced.insert(at, b" \t\r\n"[n % 4]);
                let text = String::from_utf8_lossy(&spaced).into_owned();
                prop_assert_eq!(
                    oracle::read_line(&spaced).unwrap(),
                    Some(expected.clone()),
                    "{}",
                    text
                );
                prop_assert!(decode_query(&spaced, &mut slot).is_ok(), "{}", text);
                prop_assert_eq!(&slot, &expected, "{}", text);
            }
        }
    }

    /// Whole files, with CRLF endings, blank lines and at most one
    /// damaged line, read the same at every chunk size and stop at the
    /// oracle's line.
    #[test]
    fn chunked_files_match_oracle(seed in any::<u64>(), queries in 1usize..40) {
        let (header, lines) = written_lines(seed, queries);
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let broken = rng.chance(0.5).then(|| pick(&mut rng, lines.len()));
        let mut file = header.clone();
        file.push(b'\n');
        for (i, line) in lines.iter().enumerate() {
            let text = match broken {
                Some(b) if b == i => damaged(
                    mutated(line, &lines, true, &mut rng).as_bytes(),
                    &lines,
                    &mut rng,
                ),
                _ => mutated(line, &lines, false, &mut rng).into_bytes(),
            };
            file.extend_from_slice(&text);
            file.extend_from_slice(if rng.chance(0.3) { b"\r\n" } else { b"\n" });
            if rng.chance(0.1) {
                file.extend_from_slice([&b" \t\n"[..], b"\r\n", "\u{3000}\n".as_bytes()][pick(&mut rng, 3)]);
            }
        }
        let path = tmp("chunked", seed);
        std::fs::write(&path, &file).unwrap();
        let read = read_trace(&path);
        let catalog = build(SdssRelease::Edr, 1e-4, 1);
        for granularity in [Granularity::Table, Granularity::Column] {
            let objects = ObjectCatalog::uniform(&catalog, granularity);
            match (&read, ReplayTrace::read(&path, &objects)) {
                (Ok(trace), Ok(replay)) => {
                    prop_assert_eq!(replay, ReplayTrace::from_trace(trace, &objects));
                }
                (Err(want), Err(have)) => prop_assert_eq!(want.to_string(), have.to_string()),
                (want, have) => prop_assert!(
                    false,
                    "read_trace {:?}, ReplayTrace::read {:?}",
                    want.as_ref().map(|t| t.len()),
                    have.map(|r| r.len())
                ),
            }
        }
        let expected = oracle::read_file(&file);
        for chunk in [1usize, 7, 1024] {
            let got = read_chunked(&path, chunk);
            let consistent = match (&expected, &got) {
                (Ok(want), Ok(have)) => want == have,
                (Err(oracle::FileError::Line(n)), Err(msg)) => {
                    msg.starts_with(&format!("trace format error: bad query on line {n}: "))
                }
                (Err(oracle::FileError::Count), Err(msg)) => msg.contains("header promises"),
                _ => false,
            };
            prop_assert!(consistent, "chunk {}: oracle {:?}, reader {:?}", chunk, expected, got);
        }
        std::fs::remove_file(&path).ok();
    }
}
