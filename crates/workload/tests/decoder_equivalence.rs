//! The trace decoder against its oracle, on generated and corrupted
//! lines.
//!
//! Every case generates a trace, writes it with `TraceWriter`, and then
//! mutates the written lines: reordered, duplicated and unknown (nested)
//! members, escaped keys and SQL, respelled integers, out-of-range ids,
//! missing and mistyped members, truncation at every byte, spliced lines,
//! flipped bytes, and one whitespace byte at each token boundary in
//! turn. Wherever the oracle (the first decoder, in `oracle/`) decodes a
//! line, the shipped decoder must give the same `TraceQuery`; wherever
//! the oracle refuses it, the shipped decoder must return an `Err`.
//! Neither may panic.
//!
//! The shipped decoder is a one-pass decoder for the writer's layout in
//! front of the step-wise one. Wherever the pass takes one of these
//! lines, the step-wise decoder must take it too, to an equal
//! `TraceQuery`, and the replay view the pass resolves must equal the
//! conversion of the step-wise query at both granularities. The pass
//! must take every line the writer writes.
//!
//! Whole files go through `TraceReader::next_chunk`, and through
//! `ReplayTrace::refill`, at chunk sizes 1, 7 and 1024, and through the
//! split reads `read_trace` and `ReplayTrace::read`. Each must accept or
//! refuse a file as the streamed `next_chunk` does, with the same error
//! text, and when it accepts give the same queries (the replay traces at
//! both granularities). A file whose lines cross the readers' buffer
//! refills at every byte offset reads the same.

mod oracle;

use byc_catalog::sdss::{build, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_types::json::{Num, Value};
use byc_types::{Bytes, ObjectId, QueryId, SplitMix64};
use byc_workload::io::{decode_query, decode_stepwise, decode_written, read_trace};
use byc_workload::{
    generate, ReplayTrace, Trace, TraceQuery, TraceReader, TraceWriter, Unresolved, WorkloadConfig,
};
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
    written_release(SdssRelease::Edr, seed, queries)
}

/// [`written_lines`] for a trace of `release`, with its preset.
fn written_release(release: SdssRelease, seed: u64, queries: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let cat = build(release, 1e-4, 1);
    let preset = match release {
        SdssRelease::Edr => WorkloadConfig::edr(seed),
        SdssRelease::Dr1 => WorkloadConfig::dr1(seed),
    };
    let config = WorkloadConfig {
        name: format!("smoke-{queries}"),
        query_count: queries,
        ..preset
    };
    let trace = generate(&cat, &config).unwrap();
    let path = tmp(&format!("written-{release:?}-{queries}"), seed);
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
/// The line goes through the one pass alone too (see [`Taken`]).
fn agree(line: &[u8], slot: &mut TraceQuery, taken: &mut Taken) {
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
    taken.check(line);
}

/// The lines the one pass took, each with the step-wise decoder's query.
#[derive(Default)]
struct Taken {
    lines: Vec<Vec<u8>>,
    queries: Vec<TraceQuery>,
    /// The pass's slot, reused across lines.
    slot: TraceQuery,
}

impl Taken {
    /// The pass alone on `line`: where it takes the line, the step-wise
    /// decoder must take it too, to the same query.
    fn check(&mut self, line: &[u8]) {
        if !decode_written(line, &mut self.slot) {
            return;
        }
        let mut stepwise = TraceQuery::default();
        let decoded = decode_stepwise(line, &mut stepwise);
        let text = String::from_utf8_lossy(line);
        assert!(
            decoded.is_ok(),
            "the pass takes, the step-wise decoder refuses ({decoded:?}): {text:?}"
        );
        assert_eq!(self.slot, stepwise, "{text:?}");
        self.lines
            .push(line.strip_suffix(b"\n").unwrap_or(line).to_vec());
        self.queries.push(stepwise);
    }

    /// The lines taken, as one file: read through `ReplayTrace::read`
    /// and `ReplayTrace::refill` at both granularities, where the pass
    /// resolves each line's slices, they must equal the conversion of the
    /// step-wise queries.
    fn views_agree(&self, seed: u64) {
        let name = "taken";
        let mut file = format!(
            "{{\"format_version\":1,\"name\":\"{name}\",\"seed\":0,\"query_count\":{}}}\n",
            self.lines.len()
        )
        .into_bytes();
        for line in &self.lines {
            file.extend_from_slice(line);
            file.push(b'\n');
        }
        let path = tmp(name, seed);
        std::fs::write(&path, &file).unwrap();
        let trace = Trace {
            name: name.into(),
            seed: 0,
            queries: self.queries.clone(),
        };
        let catalog = build(SdssRelease::Edr, 1e-4, 1);
        for granularity in [Granularity::Table, Granularity::Column] {
            let objects = ObjectCatalog::uniform(&catalog, granularity);
            let want = ReplayTrace::from_trace(&trace, &objects);
            assert_eq!(ReplayTrace::read(&path, &objects).unwrap(), want);
            for chunk in [1, 1024] {
                assert_eq!(refilled(&path, &objects, chunk), Ok(content(&want)));
            }
        }
        std::fs::remove_file(&path).ok();
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

/// A whole file read off one `TraceReader`, 1024 queries at a time: the
/// trace, or the error it stopped at. The reference of the split reads.
fn streamed(path: &std::path::Path) -> Result<Trace, String> {
    let reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    Ok(Trace {
        name: reader.name().to_string(),
        seed: reader.seed(),
        queries: read_chunked(path, 1024)?,
    })
}

/// What a replay reads of each query (its id, total yield and slices),
/// and the references that named no object.
type Content = (Vec<(QueryId, Bytes, Vec<(ObjectId, Bytes)>)>, Unresolved);

fn content(replay: &ReplayTrace) -> Content {
    let queries = replay
        .iter()
        .map(|(q, slices)| (q.id, q.total_yield, slices.to_vec()))
        .collect();
    (queries, replay.unresolved())
}

/// A whole file refilled into one replay trace `chunk` queries at a
/// time: the content of every chunk in turn, or the error it stopped at.
fn refilled(
    path: &std::path::Path,
    objects: &ObjectCatalog,
    chunk: usize,
) -> Result<Content, String> {
    let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let mut replay = ReplayTrace::new(reader.name(), objects);
    let (mut queries, mut unresolved) = (Vec::new(), Unresolved::default());
    loop {
        replay
            .refill(&mut reader, objects, chunk)
            .map_err(|e| e.to_string())?;
        if replay.is_empty() {
            return Ok((queries, unresolved));
        }
        assert!(replay.len() <= chunk);
        let (got, skipped) = content(&replay);
        queries.extend(got);
        unresolved.add(skipped);
    }
}

/// The pass takes every line the writer writes, for both releases and
/// several seeds (no generated SQL holds an escape or a non-ASCII byte).
#[test]
fn the_pass_takes_every_written_line() {
    for release in [SdssRelease::Edr, SdssRelease::Dr1] {
        for seed in [1, 2, 7, 11, 29] {
            let (_, lines) = written_release(release, seed, 300);
            let mut slot = TraceQuery::default();
            for line in &lines {
                let text = String::from_utf8_lossy(line);
                assert!(
                    decode_written(line, &mut slot),
                    "{release:?} {seed}: {text}"
                );
                assert_eq!(Ok(Some(slot.clone())), oracle::read_line(line), "{text}");
                let mut ended = line.clone();
                ended.push(b'\n');
                assert!(decode_written(&ended, &mut slot), "{text}");
            }
        }
    }
}

/// A blank line of `k` bytes ahead of the query lines moves every line
/// `k` bytes further into the file. As `k` runs over the longest line's
/// length, some line crosses the end of each reader's first 8 KiB buffer
/// fill (std's `BufReader` default) at each of its bytes, so a pass
/// that gives up at the buffer's end and a line read again after the
/// refill show. `next_chunk`, `refill`, `ReplayTrace::read` and
/// `read_trace` read the queries the writer wrote, whatever `k` is.
#[test]
fn lines_across_the_first_buffer_refill() {
    let (header, lines) = written_lines(23, 80);
    let longest = lines.iter().map(Vec::len).max().unwrap() + 1;
    // Lines enough to run past the first buffer by two of the longest.
    let mut count = 0;
    let mut len = header.len() + longest;
    while len < 8192 + 2 * longest {
        len += lines[count].len() + 1;
        count += 1;
    }
    let lines = &lines[..count];
    let header = String::from_utf8(header).unwrap();
    let name = Value::parse(&header).unwrap()["name"]
        .as_str()
        .unwrap()
        .to_string();
    let header = header.replace("\"query_count\":80", &format!("\"query_count\":{count}"));
    let trace = Trace {
        name,
        seed: 23,
        queries: lines
            .iter()
            .map(|line| oracle::read_line(line).unwrap().unwrap())
            .collect(),
    };
    let catalog = build(SdssRelease::Edr, 1e-4, 1);
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let want = ReplayTrace::from_trace(&trace, &objects);
    let path = tmp("refill-boundary", 23);
    for k in 1..=longest {
        let mut file = header.clone().into_bytes();
        file.push(b'\n');
        file.extend(std::iter::repeat_n(b' ', k - 1));
        file.push(b'\n');
        for line in lines {
            file.extend_from_slice(line);
            file.push(b'\n');
        }
        std::fs::write(&path, &file).unwrap();
        assert_eq!(read_chunked(&path, 7), Ok(trace.queries.clone()), "k = {k}");
        assert_eq!(refilled(&path, &objects, 7), Ok(content(&want)), "k = {k}");
        assert_eq!(ReplayTrace::read(&path, &objects).unwrap(), want, "k = {k}");
        assert_eq!(read_trace(&path).unwrap().queries, trace.queries, "k = {k}");
    }
    std::fs::remove_file(&path).ok();
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
        let mut taken = Taken::default();
        for line in &lines {
            agree(line, &mut slot, &mut taken);
            let respelled = mutated(line, &lines, false, &mut rng);
            agree(respelled.as_bytes(), &mut slot, &mut taken);
            let broken = mutated(line, &lines, true, &mut rng);
            agree(broken.as_bytes(), &mut slot, &mut taken);
            agree(&damaged(respelled.as_bytes(), &lines, &mut rng), &mut slot, &mut taken);
            agree(&damaged(line, &lines, &mut rng), &mut slot, &mut taken);
            // The writer's bytes but for one number at an edge of its range.
            let edge = respell_a_number(std::str::from_utf8(line).unwrap(), &mut rng);
            agree(edge.as_bytes(), &mut slot, &mut taken);
        }
        // Every cut of one line, the writer's own among them.
        let line = if rng.chance(0.5) {
            lines[pick(&mut rng, lines.len())].clone()
        } else {
            mutated(&lines[pick(&mut rng, lines.len())], &lines, false, &mut rng).into_bytes()
        };
        for cut in 0..=line.len() {
            agree(&line[..cut], &mut slot, &mut taken);
        }
        taken.views_agree(seed);
    }

    /// One whitespace byte at each token boundary of a written line, one
    /// boundary at a time: wherever the decoder meets other bytes than
    /// the writer's, it must still return the oracle's query.
    #[test]
    fn whitespace_at_every_token_boundary(seed in any::<u64>(), queries in 1usize..4) {
        let (_, lines) = written_lines(seed, queries);
        let mut slot = TraceQuery::default();
        let mut taken = Taken::default();
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
                taken.check(&spaced);
            }
        }
        taken.views_agree(seed);
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
        let read = streamed(&path);
        prop_assert_eq!(read_trace(&path).map_err(|e| e.to_string()), read.clone());
        let catalog = build(SdssRelease::Edr, 1e-4, 1);
        for granularity in [Granularity::Table, Granularity::Column] {
            let objects = ObjectCatalog::uniform(&catalog, granularity);
            let converted = read
                .as_ref()
                .map(|trace| content(&ReplayTrace::from_trace(trace, &objects)))
                .map_err(Clone::clone);
            for chunk in [1usize, 7, 1024] {
                prop_assert_eq!(
                    refilled(&path, &objects, chunk),
                    converted.clone(),
                    "refill chunk {}",
                    chunk
                );
            }
            match (&read, ReplayTrace::read(&path, &objects)) {
                (Ok(trace), Ok(replay)) => {
                    prop_assert_eq!(replay, ReplayTrace::from_trace(trace, &objects));
                }
                (Err(want), Err(have)) => prop_assert_eq!(want, &have.to_string()),
                (want, have) => prop_assert!(
                    false,
                    "next_chunk {:?}, ReplayTrace::read {:?}",
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
