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
//! entry per query and one per slice in two flat vectors.
//!
//! A replay trace is filled from a file ([`ReplayTrace::read`], through
//! the reader's one reused query slot, so every member of every line is
//! still checked), from a resident [`Trace`] ([`ReplayTrace::from_trace`]),
//! or a chunk at a time off a [`TraceReader`] ([`ReplayTrace::refill`]).

use crate::io::TraceReader;
use crate::trace::{Trace, TraceQuery};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_types::{Bytes, ObjectId, QueryId, Result};
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
    /// End of the query's run in [`ReplayTrace::slices`]; the run starts
    /// where the previous query's ends.
    end: usize,
}

/// A trace reduced to what a replay reads, resolved against one object
/// catalog (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayTrace {
    name: String,
    granularity: Granularity,
    /// Objects in the catalog the slices were resolved against.
    object_count: usize,
    queries: Vec<ReplayQuery>,
    slices: Vec<(ObjectId, Bytes)>,
    unresolved: Unresolved,
}

impl ReplayTrace {
    /// An empty replay trace named `name`, resolving against `objects`.
    pub fn new(name: &str, objects: &ObjectCatalog) -> Self {
        ReplayTrace {
            name: name.to_string(),
            granularity: objects.granularity(),
            object_count: objects.len(),
            queries: Vec::new(),
            slices: Vec::new(),
            unresolved: Unresolved::default(),
        }
    }

    /// `trace`'s queries, resolved against `objects`.
    pub fn from_trace(trace: &Trace, objects: &ObjectCatalog) -> Self {
        let mut replay = Self::new(&trace.name, objects);
        replay.queries.reserve_exact(trace.len());
        for query in &trace.queries {
            replay.push(query, objects);
        }
        replay
    }

    /// Read a trace file straight into a replay trace: every line is
    /// decoded and checked as [`crate::io::read_trace`] decodes and checks
    /// it, into the reader's one reused slot, and only the slot's replay
    /// view is kept. No [`Trace`] is built.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`crate::io::read_trace`] returns on the same
    /// file, with the same text.
    pub fn read(path: &Path, objects: &ObjectCatalog) -> Result<Self> {
        let mut reader = TraceReader::open(path)?;
        let mut replay = Self::new(reader.name(), objects);
        replay
            .queries
            .reserve_exact(reader.query_count().min(1 << 20));
        while let Some(query) = reader.decode_next()? {
            replay.push(query, objects);
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
        self.queries.clear();
        self.slices.clear();
        self.unresolved = Unresolved::default();
        for _ in 0..max.max(1) {
            let Some(query) = reader.decode_next()? else {
                break;
            };
            self.push(query, objects);
        }
        Ok(())
    }

    /// Append one query, resolving its references against `objects`,
    /// which must be the catalog this trace was made for.
    fn push(&mut self, query: &TraceQuery, objects: &ObjectCatalog) {
        let skipped = for_each_slice(query, objects, |object, raw_yield| {
            self.slices.push((object, raw_yield));
        });
        self.unresolved.add(skipped);
        self.queries.push(ReplayQuery {
            id: query.id,
            total_yield: query.total_yield,
            end: self.slices.len(),
        });
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
        self.queries.len()
    }

    /// True iff the trace has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Every slice of every query, in trace order.
    pub fn slices(&self) -> &[(ObjectId, Bytes)] {
        &self.slices
    }

    /// The queries in order, each with its slices.
    pub fn iter(&self) -> impl Iterator<Item = (&ReplayQuery, &[(ObjectId, Bytes)])> + '_ {
        let mut start = 0;
        self.queries.iter().map(move |query| {
            let run = self.slices.get(start..query.end).unwrap_or_default();
            start = query.end;
            (query, run)
        })
    }

    /// The references that resolved to no object, over every query.
    pub fn unresolved(&self) -> Unresolved {
        self.unresolved
    }

    /// The *sequence cost*: total result bytes shipped when every query
    /// is evaluated at the servers, as [`Trace::sequence_cost`].
    pub fn sequence_cost(&self) -> Bytes {
        self.queries.iter().map(|q| q.total_yield).sum()
    }
}

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
            assert_eq!(replay.sequence_cost(), trace.sequence_cost());
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
                for (query, run) in chunk.iter() {
                    let start = joined.slices.len();
                    joined.slices.extend_from_slice(run);
                    joined.queries.push(ReplayQuery {
                        end: start + run.len(),
                        ..*query
                    });
                }
            }
            assert_eq!(joined, converted, "chunk size {max}");
        }
        std::fs::remove_file(&path).ok();
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
