//! The replay input: a trace reduced to what a replay reads.
//!
//! A replay reads three things of a query: its id, its total yield, and
//! its yield decomposed over the cacheable objects of one granularity.
//! A [`ReplayTrace`] holds exactly those, with every table or column
//! reference resolved against an [`ObjectCatalog`] once, when the query
//! enters it:
//!
//! * per query, a [`ReplayQuery`]: `(id, total_yield)` and the end of its
//!   run of slices;
//! * per slice, `(ObjectId, yield)`, in the query's own table or column
//!   order.
//!
//! References that name no object of the catalog are skipped and counted
//! in an [`Unresolved`] tally at the same time, so a replay reports them
//! without resolving anything again. A resident `TraceQuery` also owns
//! its SQL text, data keys, table and column lists and the other
//! granularity's yields, six heap blocks in all; a replay trace keeps one
//! entry per query and one per slice in flat vectors.
//!
//! A replay trace is filled from a file ([`ReplayTrace::read`], every
//! member of every line still checked), from a resident [`Trace`]
//! ([`ReplayTrace::from_trace`]), or a chunk at a time off a
//! [`TraceReader`] ([`ReplayTrace::refill`]).
//!
//! The queries are kept in *runs*, each with its own query and slice
//! vectors, iterated in order. [`ReplayTrace::read`] splits the file
//! after its header into one byte range per core and decodes each range
//! on its own thread into its own run; every other way of filling a
//! replay trace makes one run. The runs stay separate rather than being
//! joined, which would hold two copies of every slice at once, and two
//! replay traces are equal when their queries are, wherever their runs
//! break.

use crate::io::{self, Sink, TraceReader};
use crate::trace::{Trace, TraceQuery};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_types::{Bytes, ColumnId, ObjectId, QueryId, Result, TableId};
use std::ops::Range;
use std::path::Path;

/// Trace references that name no object of the catalog: a replay skips
/// them, so their bytes reach no report column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unresolved {
    /// References skipped.
    pub refs: u64,
    /// Result bytes they carried.
    pub bytes: Bytes,
}

impl Unresolved {
    // Off the resolver's hot path: traces that resolve never call it.
    #[cold]
    #[inline(never)]
    fn skip(&mut self, raw_yield: Bytes) {
        self.refs += 1;
        self.bytes += raw_yield;
    }

    /// Add another count into this one.
    pub fn add(&mut self, other: Unresolved) {
        self.refs += other.refs;
        self.bytes += other.bytes;
    }

    /// The replay warning for a non-zero count, naming the granularity
    /// the references failed to resolve at.
    pub fn warning(self, granularity: Granularity) -> Option<String> {
        (self.refs > 0).then(|| {
            format!(
                "{} trace references ({} of results) name no {} in the catalog; \
                 they were skipped and their bytes are in no report column",
                self.refs,
                self.bytes,
                granularity.label()
            )
        })
    }
}

/// Call `f(object, raw yield)` for each slice of `query` at the
/// granularity of `objects`, in the query's own table/column order.
/// References that do not resolve to a cacheable object are skipped and
/// counted in the result.
#[inline]
pub fn for_each_slice(
    query: &TraceQuery,
    objects: &ObjectCatalog,
    mut f: impl FnMut(ObjectId, Bytes),
) -> Unresolved {
    let mut skipped = Unresolved::default();
    match objects.granularity() {
        Granularity::Table => {
            for &(t, raw_yield) in &query.table_yields {
                match objects.object_for_table(t) {
                    Ok(object) => f(object, raw_yield),
                    Err(_) => skipped.skip(raw_yield),
                }
            }
        }
        Granularity::Column => {
            for &(c, raw_yield) in &query.column_yields {
                match objects.object_for_column(c) {
                    Ok(object) => f(object, raw_yield),
                    Err(_) => skipped.skip(raw_yield),
                }
            }
        }
    }
    skipped
}

/// One query of a [`ReplayTrace`]: what a replay reads of it besides its
/// slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayQuery {
    /// The query's id in its trace.
    pub id: QueryId,
    /// Total result size on the wire, unresolved references included.
    pub total_yield: Bytes,
    /// End of the query's slices in its run; they start where the
    /// previous query's end.
    end: usize,
}

/// Consecutive queries of a replay trace, with their slices.
#[derive(Clone, Debug, Default)]
struct Run {
    queries: Vec<ReplayQuery>,
    slices: Vec<(ObjectId, Bytes)>,
}

impl Run {
    fn iter(&self) -> impl Iterator<Item = (&ReplayQuery, &[(ObjectId, Bytes)])> + '_ {
        let mut start = 0;
        self.queries.iter().map(move |query| {
            let slices = self.slices.get(start..query.end).unwrap_or_default();
            start = query.end;
            (query, slices)
        })
    }
}

/// A run being filled, one query at a time. The pass over a line in the
/// writer's layout resolves each yield pair of the catalog's granularity
/// to its slice as it reads it and drops every other member; a decoded
/// query comes member by member the same way ([`Sink::query`]).
struct Fill<'o> {
    run: Run,
    objects: &'o ObjectCatalog,
    /// The references of the run's queries that named no object.
    unresolved: Unresolved,
    /// The line being read: its id, its total yield, and its references
    /// that named no object.
    id: QueryId,
    total_yield: Bytes,
    skipped: Unresolved,
}

impl<'o> Fill<'o> {
    fn new(run: Run, objects: &'o ObjectCatalog) -> Self {
        Fill {
            run,
            objects,
            unresolved: Unresolved::default(),
            id: QueryId::default(),
            total_yield: Bytes::ZERO,
            skipped: Unresolved::default(),
        }
    }

    #[inline]
    fn slice(&mut self, object: Result<ObjectId>, raw_yield: Bytes) {
        match object {
            Ok(object) => self.run.slices.push((object, raw_yield)),
            Err(_) => self.skipped.skip(raw_yield),
        }
    }
}

impl Sink for Fill<'_> {
    fn start(&mut self, id: QueryId) {
        self.id = id;
        self.skipped = Unresolved::default();
    }
    fn total_yield(&mut self, bytes: Bytes) {
        self.total_yield = bytes;
    }
    fn table_yield(&mut self, table: TableId, bytes: Bytes) {
        if self.objects.granularity() == Granularity::Table {
            self.slice(self.objects.object_for_table(table), bytes);
        }
    }
    fn column_yield(&mut self, column: ColumnId, bytes: Bytes) {
        if self.objects.granularity() == Granularity::Column {
            self.slice(self.objects.object_for_column(column), bytes);
        }
    }
    fn end(&mut self) {
        self.run.queries.push(ReplayQuery {
            id: self.id,
            total_yield: self.total_yield,
            end: self.run.slices.len(),
        });
        self.unresolved.add(self.skipped);
    }
    fn undo(&mut self) {
        let end = self.run.queries.last().map_or(0, |query| query.end);
        self.run.slices.truncate(end);
    }
}

/// A trace reduced to what a replay reads, resolved against one object
/// catalog (see the module docs).
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    name: String,
    granularity: Granularity,
    /// Objects in the catalog the slices were resolved against.
    object_count: usize,
    /// The queries, in trace order.
    runs: Vec<Run>,
    unresolved: Unresolved,
}

impl ReplayTrace {
    /// An empty replay trace named `name`, resolving against `objects`.
    pub fn new(name: &str, objects: &ObjectCatalog) -> Self {
        ReplayTrace {
            name: name.to_string(),
            granularity: objects.granularity(),
            object_count: objects.len(),
            runs: Vec::new(),
            unresolved: Unresolved::default(),
        }
    }

    /// `trace`'s queries, resolved against `objects`.
    pub fn from_trace(trace: &Trace, objects: &ObjectCatalog) -> Self {
        let mut run = Run::default();
        run.queries.reserve_exact(trace.len());
        let mut fill = Fill::new(run, objects);
        for query in &trace.queries {
            fill.query(query);
        }
        let mut replay = Self::new(&trace.name, objects);
        replay.runs.push(fill.run);
        replay.unresolved = fill.unresolved;
        replay
    }

    /// Read a trace file straight into a replay trace, on one thread per
    /// core (see the module docs). Every line is decoded and checked as
    /// [`crate::io::read_trace`] decodes and checks it, and only each
    /// query's replay view is kept. No [`Trace`] is built.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`crate::io::read_trace`] returns on the same
    /// file, with the same text.
    pub fn read(path: &Path, objects: &ObjectCatalog) -> Result<Self> {
        Self::read_on(path, objects, io::workers())
    }

    /// [`Self::read`] on `workers` byte ranges of (nearly) equal length.
    pub(crate) fn read_on(path: &Path, objects: &ObjectCatalog, workers: usize) -> Result<Self> {
        Self::read_split(path, objects, io::even_cuts(workers))
    }

    /// [`Self::read`] with the query lines split at the byte offsets
    /// `cuts(body)` returns ([`io::read_split`]): each range is decoded
    /// into a run of its own.
    fn read_split(
        path: &Path,
        objects: &ObjectCatalog,
        cuts: impl FnOnce(Range<u64>) -> Vec<u64>,
    ) -> Result<Self> {
        let (file, fills) = io::read_split(path, cuts, |share| {
            let mut run = Run::default();
            run.queries.reserve_exact(share);
            Fill::new(run, objects)
        })?;
        let mut replay = Self::new(&file.header.name, objects);
        for fill in fills {
            replay.runs.push(fill.run);
            replay.unresolved.add(fill.unresolved);
        }
        Ok(replay)
    }

    /// Replace this trace's queries with `reader`'s next up to `max`
    /// (at least 1 is attempted), keeping the allocations, so a chunk
    /// refilled again and again stays the size of its largest run. An
    /// empty trace means end of file; at that point the header's query
    /// count has been checked against what the file held.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::next_chunk`]. The chunk then holds the queries
    /// read before the error.
    pub fn refill(
        &mut self,
        reader: &mut TraceReader,
        objects: &ObjectCatalog,
        max: usize,
    ) -> Result<()> {
        let mut run = std::mem::take(&mut self.runs)
            .into_iter()
            .next()
            .unwrap_or_default();
        run.queries.clear();
        run.slices.clear();
        let mut fill = Fill::new(run, objects);
        let filled = reader.decode_into(max, &mut fill);
        self.runs.push(fill.run);
        self.unresolved = fill.unresolved;
        filled
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True iff the slices name objects of `objects`: a catalog view at
    /// the granularity and with the object count this trace was resolved
    /// against.
    pub fn fits(&self, objects: &ObjectCatalog) -> bool {
        self.granularity == objects.granularity() && self.object_count == objects.len()
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.queries.len()).sum()
    }

    /// True iff the trace has no queries.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|run| run.queries.is_empty())
    }

    /// Every slice of every query, in trace order.
    pub fn slices(&self) -> impl Iterator<Item = (ObjectId, Bytes)> + '_ {
        self.runs.iter().flat_map(|run| run.slices.iter().copied())
    }

    /// The queries in order, each with its slices.
    pub fn iter(&self) -> impl Iterator<Item = (&ReplayQuery, &[(ObjectId, Bytes)])> + '_ {
        self.runs.iter().flat_map(Run::iter)
    }

    /// The references that resolved to no object, over every query.
    pub fn unresolved(&self) -> Unresolved {
        self.unresolved
    }
}

impl PartialEq for ReplayTrace {
    /// Equal names, catalog views, unresolved counts, and queries with
    /// equal ids, yields and slices, in the same order: where the runs
    /// break does not matter.
    fn eq(&self, other: &Self) -> bool {
        fn content(
            t: &ReplayTrace,
        ) -> impl Iterator<Item = (QueryId, Bytes, &[(ObjectId, Bytes)])> {
            t.iter().map(|(q, slices)| (q.id, q.total_yield, slices))
        }
        self.name == other.name
            && self.granularity == other.granularity
            && self.object_count == other.object_count
            && self.unresolved == other.unresolved
            && content(self).eq(content(other))
    }
}

impl Eq for ReplayTrace {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorkloadConfig};
    use crate::io::write_trace;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_types::{ColumnId, TableId};

    fn setup(granularity: Granularity) -> (Trace, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, 2);
        let trace = generate(&cat, &WorkloadConfig::smoke(19, 300)).unwrap();
        (trace, ObjectCatalog::uniform(&cat, granularity))
    }

    #[test]
    fn slices_follow_each_query_in_order() {
        for granularity in [Granularity::Table, Granularity::Column] {
            let (trace, objects) = setup(granularity);
            let replay = ReplayTrace::from_trace(&trace, &objects);
            assert_eq!(replay.len(), trace.len());
            assert_eq!(replay.name(), trace.name);
            assert!(replay.fits(&objects));
            assert_eq!(replay.unresolved(), Unresolved::default());
            let total: Bytes = replay.iter().map(|(q, _)| q.total_yield).sum();
            assert_eq!(total, trace.sequence_cost());
            for ((query, run), original) in replay.iter().zip(&trace.queries) {
                assert_eq!(query.id, original.id);
                assert_eq!(query.total_yield, original.total_yield);
                let mut expected = Vec::new();
                for_each_slice(original, &objects, |o, y| expected.push((o, y)));
                assert_eq!(run, expected.as_slice());
            }
        }
    }

    #[test]
    fn unresolved_references_are_counted_once() {
        let (mut trace, objects) = setup(Granularity::Column);
        trace.queries[3]
            .column_yields
            .push((ColumnId::new(u32::MAX), Bytes::new(70)));
        trace.queries[9]
            .table_yields
            .push((TableId::new(u32::MAX), Bytes::new(5)));
        let replay = ReplayTrace::from_trace(&trace, &objects);
        // Only the run's granularity is resolved.
        assert_eq!(
            replay.unresolved(),
            Unresolved {
                refs: 1,
                bytes: Bytes::new(70)
            }
        );
        assert!(replay
            .unresolved()
            .warning(Granularity::Column)
            .unwrap()
            .starts_with("1 trace references (70 B of results) name no column"));
        assert_eq!(Unresolved::default().warning(Granularity::Table), None);
    }

    #[test]
    fn read_and_refill_equal_the_conversion() {
        let (trace, objects) = setup(Granularity::Column);
        let path = std::env::temp_dir().join(format!("byc-replay-{}.jsonl", std::process::id()));
        write_trace(&trace, &path).unwrap();
        let converted = ReplayTrace::from_trace(&trace, &objects);
        assert_eq!(ReplayTrace::read(&path, &objects).unwrap(), converted);

        for max in [1, 7, 1000] {
            let mut reader = TraceReader::open(&path).unwrap();
            let mut chunk = ReplayTrace::new(reader.name(), &objects);
            let mut joined = ReplayTrace::new(&trace.name, &objects);
            loop {
                chunk.refill(&mut reader, &objects, max).unwrap();
                if chunk.is_empty() {
                    break;
                }
                assert!(chunk.len() <= max);
                assert_eq!(chunk.runs.len(), 1);
                joined.runs.extend(chunk.runs.iter().cloned());
                joined.unresolved.add(chunk.unresolved());
            }
            assert!(joined.runs.len() > 1 || max == 1000);
            assert_eq!(joined, converted, "chunk size {max}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Equality is the queries', wherever the runs break.
    #[test]
    fn equality_ignores_run_boundaries() {
        let (trace, objects) = setup(Granularity::Column);
        let whole = ReplayTrace::from_trace(&trace, &objects);
        let mut split = ReplayTrace::new(&trace.name, &objects);
        for part in trace.queries.chunks(70) {
            let mut fill = Fill::new(Run::default(), &objects);
            for query in part {
                fill.query(query);
            }
            split.unresolved.add(fill.unresolved);
            split.runs.push(fill.run);
        }
        assert_eq!(split.runs.len(), 5);
        assert_eq!(split, whole);
        assert_eq!(split.len(), whole.len());
        assert_eq!(split.slices().count(), whole.slices().count());
        // One query fewer, or one slice moved to the next query, is not
        // the same trace.
        split.runs[4].queries.pop();
        assert_ne!(split, whole);
        let mut moved = ReplayTrace::from_trace(&trace, &objects);
        moved.runs[0].queries[0].end -= 1;
        assert_ne!(moved, whole);
    }

    /// A scratch file holding `bytes`, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str, bytes: &[u8]) -> Self {
            static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "byc-replay-split-{}-{n}-{name}.jsonl",
                std::process::id()
            ));
            std::fs::write(&path, bytes).unwrap();
            Scratch(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// What the streamed reader makes of the file at `path`, read off
    /// one `TraceReader` through `next_chunk`: the whole trace, or the
    /// error text.
    fn streamed(path: &Path) -> std::result::Result<Trace, String> {
        let read = || -> Result<Trace> {
            let mut reader = TraceReader::open(path)?;
            let mut queries = Vec::new();
            loop {
                let chunk = reader.next_chunk(16)?;
                if chunk.is_empty() {
                    break;
                }
                queries.extend(chunk);
            }
            Ok(Trace {
                name: reader.name().to_string(),
                seed: reader.seed(),
                queries,
            })
        };
        read().map_err(|e| e.to_string())
    }

    /// The streamed reader's trace, converted, or its error text: the
    /// reference of every split read.
    fn serial(path: &Path, objects: &ObjectCatalog) -> std::result::Result<ReplayTrace, String> {
        streamed(path).map(|trace| ReplayTrace::from_trace(&trace, objects))
    }

    /// Read `bytes` on 1 to 8 workers, into a replay trace and through
    /// `read_trace`, each read equal to the streamed reader's; returns
    /// that.
    fn reads_alike(
        name: &str,
        bytes: &[u8],
        objects: &ObjectCatalog,
    ) -> std::result::Result<ReplayTrace, String> {
        let file = Scratch::new(name, bytes);
        let expected = serial(&file.0, objects);
        let trace = streamed(&file.0);
        for workers in 1..=8 {
            let read = ReplayTrace::read_on(&file.0, objects, workers).map_err(|e| e.to_string());
            assert_eq!(read, expected, "{name} on {workers} workers");
            if let Ok(read) = read {
                let runs = read.runs.len();
                assert_eq!(runs, workers, "{name}: one run per range");
            }
            let whole = crate::io::read_trace_on(&file.0, workers).map_err(|e| e.to_string());
            assert_eq!(whole, trace, "{name}: read_trace on {workers} workers");
        }
        expected
    }

    /// The smoke trace as written: its header line and its query lines,
    /// each with its newline.
    fn written(objects: &ObjectCatalog) -> (Vec<u8>, Vec<Vec<u8>>, ReplayTrace) {
        let cat = build(SdssRelease::Edr, 1e-3, 2);
        let trace = generate(&cat, &WorkloadConfig::smoke(61, 40)).unwrap();
        let file = Scratch::new("written", b"");
        write_trace(&trace, &file.0).unwrap();
        let text = std::fs::read(&file.0).unwrap();
        let mut lines = text.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec);
        let header = lines.next().unwrap();
        (
            header,
            lines.collect(),
            ReplayTrace::from_trace(&trace, objects),
        )
    }

    #[test]
    fn split_reads_equal_the_serial_reader() {
        let (_, objects) = setup(Granularity::Column);
        let (header, lines, converted) = written(&objects);
        let plain: Vec<u8> = [header.clone()]
            .iter()
            .chain(&lines)
            .flatten()
            .copied()
            .collect();
        assert_eq!(
            reads_alike("plain", &plain, &objects),
            Ok(converted.clone())
        );

        let crlf: Vec<u8> = plain.iter().fold(Vec::new(), |mut out, &b| {
            if b == b'\n' {
                out.push(b'\r');
            }
            out.push(b);
            out
        });
        assert_eq!(reads_alike("crlf", &crlf, &objects), Ok(converted.clone()));

        let mut blank = header.clone();
        for (i, line) in lines.iter().enumerate() {
            if i % 7 == 0 {
                blank.extend_from_slice(" \t\r\n".as_bytes());
            }
            blank.extend_from_slice(line);
            if i % 5 == 2 {
                blank.extend_from_slice("\u{3000}\n\n".as_bytes());
            }
        }
        assert_eq!(
            reads_alike("blank", &blank, &objects),
            Ok(converted.clone())
        );

        let unterminated = &plain[..plain.len() - 1];
        assert_eq!(
            reads_alike("unterminated", unterminated, &objects),
            Ok(converted)
        );

        let count = lines.len();
        let promise = |n: usize| {
            let text = String::from_utf8(header.clone()).unwrap();
            text.replace(
                &format!("\"query_count\":{count}"),
                &format!("\"query_count\":{n}"),
            )
            .into_bytes()
        };
        for (name, n) in [("short", count + 1), ("long", count - 1)] {
            let bytes: Vec<u8> = [promise(n)]
                .iter()
                .chain(&lines)
                .flatten()
                .copied()
                .collect();
            let err = reads_alike(name, &bytes, &objects).unwrap_err();
            assert!(
                err.ends_with(&format!("header promises {n} queries, file has {count}")),
                "{err}"
            );
        }
        for (name, bytes) in [
            ("header-only", promise(0)),
            (
                "header-unterminated",
                promise(0)[..header.len() - 1].to_vec(),
            ),
            ("header-blank", [promise(0), b"\n \n".to_vec()].concat()),
        ] {
            let empty = reads_alike(name, &bytes, &objects).unwrap();
            assert!(empty.is_empty(), "{name}");
        }
        let err = reads_alike("header-short", &promise(2), &objects).unwrap_err();
        assert!(
            err.ends_with("header promises 2 queries, file has 0"),
            "{err}"
        );
        assert!(reads_alike("empty", b"", &objects).is_err());
    }

    /// A malformed line in any range is refused under its line number in
    /// the whole file, and the first one in the file wins.
    #[test]
    fn a_malformed_line_in_each_range_names_its_line() {
        let (_, objects) = setup(Granularity::Table);
        let (header, lines, _) = written(&objects);
        // Blank lines shift line numbers away from query indexes.
        let mut all = vec![header.clone()];
        for (i, line) in lines.iter().enumerate() {
            all.push(line.clone());
            if i % 3 == 0 {
                all.push(b"\r\n".to_vec());
            }
        }
        let starts: Vec<u64> = all
            .iter()
            .scan(0u64, |at, line| {
                let start = *at;
                *at += line.len() as u64;
                Some(start)
            })
            .collect();
        let len: u64 = all.iter().map(|l| l.len() as u64).sum();
        let body = header.len() as u64;
        for workers in 1..=8u64 {
            for range in 0..workers {
                let from = body + range * (len - body) / workers;
                let to = body + (range + 1) * (len - body) / workers;
                // The last query line that starts in this range.
                let Some(bad) = (1..all.len())
                    .rev()
                    .find(|&i| (from..to).contains(&starts[i]) && all[i].len() > 2)
                else {
                    continue;
                };
                let mut bytes = all.clone();
                bytes[bad][0] = b'x';
                let bytes: Vec<u8> = bytes.concat();
                let file = Scratch::new("malformed", &bytes);
                let want = serial(&file.0, &objects).unwrap_err();
                assert!(
                    want.starts_with(&format!(
                        "trace format error: bad query on line {}: ",
                        bad + 1
                    )),
                    "{want}"
                );
                let workers = usize::try_from(workers).unwrap();
                let have = ReplayTrace::read_on(&file.0, &objects, workers);
                assert_eq!(
                    have.map_err(|e| e.to_string()),
                    Err(want.clone()),
                    "range {range} of {workers}"
                );
                let whole = crate::io::read_trace_on(&file.0, workers);
                assert_eq!(
                    whole.map_err(|e| e.to_string()),
                    Err(want),
                    "read_trace: range {range} of {workers}"
                );
            }
        }
        // Two malformed lines in different ranges: the first in the file
        // is the one named.
        let mut bytes = all.clone();
        bytes[2][0] = b'x';
        let last = bytes.len() - 1;
        bytes[last][0] = b'x';
        let bytes = bytes.concat();
        let err = reads_alike("two-bad", &bytes, &objects).unwrap_err();
        assert!(err.contains("bad query on line 3: "), "{err}");
    }

    /// Cut a small file's query lines in two at every byte offset, and in
    /// three around every offset: each split reads as the serial reader
    /// does, with CRLF endings, blank lines and a U+3000 line.
    #[test]
    fn a_range_boundary_at_every_byte_offset() {
        let (_, objects) = setup(Granularity::Column);
        let (header, lines, converted) = written(&objects);
        let mut bytes = header.clone();
        for (i, line) in lines.iter().take(4).enumerate() {
            let mut line = line.clone();
            line.insert(line.len() - 1, b'\r');
            bytes.extend_from_slice(&line);
            if i == 1 {
                bytes.extend_from_slice("\n\u{3000}\n \r\n".as_bytes());
            }
        }
        let text = String::from_utf8(bytes).unwrap().replace(
            &format!("\"query_count\":{}", lines.len()),
            "\"query_count\":4",
        );
        let header_len = text.find('\n').unwrap() + 1;
        let mut bad = text.clone().into_bytes();
        // The first byte of the second query line, CR included.
        bad[header_len + lines[0].len() + 1] = b'!';
        for (name, bytes) in [("small", text.into_bytes()), ("small-bad", bad)] {
            let file = Scratch::new(name, &bytes);
            let want = serial(&file.0, &objects);
            if name == "small" {
                let first_four: Vec<_> = converted.iter().take(4).collect();
                let read = want.as_ref().unwrap();
                assert_eq!(read.iter().collect::<Vec<_>>(), first_four);
            } else {
                assert!(want.as_ref().unwrap_err().contains("line 3"), "{want:?}");
            }
            let body = header_len as u64..bytes.len() as u64;
            for cut in body.clone() {
                let halves = ReplayTrace::read_split(&file.0, &objects, |b| {
                    assert_eq!(b, body);
                    vec![b.start, cut, b.end]
                });
                assert_eq!(
                    halves.map_err(|e| e.to_string()),
                    want,
                    "{name} cut at {cut}"
                );
                let thirds = ReplayTrace::read_split(&file.0, &objects, |b| {
                    vec![
                        b.start,
                        cut.saturating_sub(1).max(b.start),
                        (cut + 2).min(b.end),
                        b.end,
                    ]
                });
                assert_eq!(
                    thirds.map_err(|e| e.to_string()),
                    want,
                    "{name} cuts around {cut}"
                );
            }
        }
    }

    #[test]
    fn a_trace_fits_only_its_own_view() {
        let (_, columns) = setup(Granularity::Column);
        let (_, tables) = setup(Granularity::Table);
        let mut one = byc_catalog::Catalog::new();
        one.add_table(byc_catalog::TableDef {
            name: "A".into(),
            columns: vec![byc_catalog::ColumnDef::new(
                "k",
                byc_catalog::ColumnType::BigInt,
            )],
            row_count: 10,
            server: byc_types::ServerId::new(0),
        })
        .unwrap();
        let small = ObjectCatalog::uniform(&one, Granularity::Column);
        let replay = ReplayTrace::new("t", &columns);
        assert!(replay.fits(&columns));
        assert!(!replay.fits(&tables));
        assert!(!replay.fits(&small));
    }
}
