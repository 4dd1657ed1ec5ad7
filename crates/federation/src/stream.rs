//! Where a replay's queries come from: a resident replay trace or a trace
//! file streamed off disk.
//!
//! The replay kernel serves one query at a time and keeps no per-trace
//! state, so a replay never needs the whole trace in memory. A
//! [`ChunkSource`] hands the session runs of a [`ReplayTrace`]: a
//! resident one as a single run, a [`TraceReader`] as successive runs
//! resolved into one chunk refilled in place, so memory stays constant
//! in the trace length.
//!
//! Every run is judged before the kernel sees a query of it: a replay
//! trace whose [`Totals`](byc_workload::Totals) overflowed a u64 is
//! refused, since no byte total of a replay over it could count it. A
//! streamed chunk's totals add up every refill, so the refused run is
//! the one in which the trace's total yield overflows, and every run
//! before it has been replayed.

use byc_catalog::ObjectCatalog;
use byc_types::{Error, Result};
use byc_workload::{ReplayTrace, TraceReader};
use std::borrow::Cow;

/// Queries decoded off a trace reader at a time: the only part of a
/// streamed trace that is ever resident.
pub(crate) const READ_CHUNK: usize = 1024;

/// Where replayed queries come from: a resident replay trace, handed out
/// whole, or a [`TraceReader`] refilling one chunk off disk.
pub(crate) enum ChunkSource<'a> {
    /// A resident replay trace, borrowed or converted for the session;
    /// `done` once its one chunk was handed out.
    Resident {
        trace: Cow<'a, ReplayTrace>,
        done: bool,
    },
    /// Chunks straight off a trace file, never all resident; `chunk` is
    /// refilled in place for the whole replay. While `primed`, it still
    /// holds the queries it was handed with, which go first.
    Reader {
        reader: &'a mut TraceReader,
        objects: &'a ObjectCatalog,
        chunk: &'a mut ReplayTrace,
        primed: bool,
    },
}

impl<'a> ChunkSource<'a> {
    /// A source handing out `trace` as a single chunk.
    pub(crate) fn resident(trace: Cow<'a, ReplayTrace>) -> Self {
        ChunkSource::Resident { trace, done: false }
    }

    /// A source resolving `reader`'s queries against `objects` a chunk
    /// at a time into `chunk`, starting with the queries `chunk` holds.
    pub(crate) fn reader(
        reader: &'a mut TraceReader,
        chunk: &'a mut ReplayTrace,
        objects: &'a ObjectCatalog,
    ) -> Self {
        ChunkSource::Reader {
            reader,
            objects,
            chunk,
            primed: true,
        }
    }

    /// The trace being replayed: the resident one, or the chunk the
    /// reader refills, which carries the file's name and catalog view.
    pub(crate) fn trace(&self) -> &ReplayTrace {
        match self {
            ChunkSource::Resident { trace, .. } => trace,
            ChunkSource::Reader { chunk, .. } => chunk,
        }
    }

    /// The next run of queries, or `None` at end of trace.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a run whose totals overflowed (see
    /// the module docs); IO and format errors from the reader variant.
    pub(crate) fn next(&mut self) -> Result<Option<&ReplayTrace>> {
        let more = match self {
            ChunkSource::Resident { done, .. } => !std::mem::replace(done, true),
            ChunkSource::Reader {
                reader,
                objects,
                chunk,
                primed,
            } => {
                if !std::mem::take(primed) || chunk.is_empty() {
                    chunk.refill(reader, objects, READ_CHUNK)?;
                }
                !chunk.is_empty()
            }
        };
        let run = self.trace();
        match run.totals().total_yield {
            _ if !more => Ok(None),
            Some(_) => Ok(Some(run)),
            None => Err(Error::InvalidConfig(format!(
                "the total yield of the first {} queries of trace {:?} overflows a u64 byte \
                 count, so the replay's byte totals would saturate",
                run.totals().queries,
                run.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;
    use byc_workload::{generate, WorkloadConfig};

    #[test]
    fn memory_source_is_exhaustive_and_sticky() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, 10)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let replay = ReplayTrace::from_trace(&trace, &objects);
        let mut source = ChunkSource::resident(Cow::Borrowed(&replay));
        let mut seen = 0;
        while let Some(chunk) = source.next().unwrap() {
            seen += chunk.len();
        }
        assert_eq!(seen, 10);
        assert!(source.next().unwrap().is_none());
        // A borrowed replay trace is one chunk, handed out as is.
        let mut source = ChunkSource::resident(Cow::Borrowed(&replay));
        let chunk = source.next().unwrap().unwrap();
        assert!(std::ptr::eq(chunk, &replay));
        assert!(source.next().unwrap().is_none());
    }
}
