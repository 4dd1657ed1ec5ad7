//! Where a replay's queries come from: a resident trace or a trace file
//! streamed off disk.
//!
//! The replay kernel serves one query at a time and keeps no per-trace
//! state, so a replay never needs the whole trace in memory. A
//! [`ChunkSource`] hands the session runs of queries: a resident trace
//! as one borrowed run (a single chunk), a [`TraceReader`] as successive
//! runs decoded into one chunk refilled in place, so memory stays
//! constant in the trace length.

use byc_types::Result;
use byc_workload::{Trace, TraceQuery, TraceReader};

/// Queries decoded off a trace reader at a time: the only part of a
/// streamed trace that is ever resident.
const READ_CHUNK: usize = 1024;

/// Where replayed queries come from: an in-memory trace, handed out
/// whole, or a [`TraceReader`] refilling one chunk off disk.
pub(crate) enum ChunkSource<'a> {
    /// A resident trace; `done` once its one chunk was handed out.
    Memory { trace: &'a Trace, done: bool },
    /// Chunks straight off a trace file, never all resident; `chunk` is
    /// refilled in place for the whole replay.
    Reader {
        reader: &'a mut TraceReader,
        chunk: Vec<TraceQuery>,
    },
}

impl<'a> ChunkSource<'a> {
    /// A source handing out `trace` as a single chunk.
    pub(crate) fn memory(trace: &'a Trace) -> Self {
        ChunkSource::Memory { trace, done: false }
    }

    /// A source decoding `reader`'s queries a chunk at a time.
    pub(crate) fn reader(reader: &'a mut TraceReader) -> Self {
        ChunkSource::Reader {
            reader,
            chunk: Vec::with_capacity(READ_CHUNK),
        }
    }

    /// The trace's name, for report headers.
    pub(crate) fn name(&self) -> &str {
        match self {
            ChunkSource::Memory { trace, .. } => &trace.name,
            ChunkSource::Reader { reader, .. } => reader.name(),
        }
    }

    /// The next run of queries, or `None` at end of trace. IO errors
    /// come from the reader variant only.
    pub(crate) fn next(&mut self) -> Result<Option<&[TraceQuery]>> {
        match self {
            ChunkSource::Memory { trace, done } => {
                if *done {
                    return Ok(None);
                }
                *done = true;
                Ok(Some(&trace.queries))
            }
            ChunkSource::Reader { reader, chunk } => {
                reader.refill(chunk, READ_CHUNK)?;
                Ok((!chunk.is_empty()).then_some(chunk.as_slice()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_workload::{generate, WorkloadConfig};

    #[test]
    fn memory_source_is_exhaustive_and_sticky() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(43, 10)).unwrap();
        let mut source = ChunkSource::memory(&trace);
        let mut seen = 0;
        while let Some(chunk) = source.next().unwrap() {
            seen += chunk.len();
        }
        assert_eq!(seen, 10);
        assert!(source.next().unwrap().is_none());
        // The resident trace is one chunk, borrowed whole.
        let mut source = ChunkSource::memory(&trace);
        let chunk = source.next().unwrap().unwrap();
        assert!(std::ptr::eq(chunk, trace.queries.as_slice()));
        assert!(source.next().unwrap().is_none());
    }
}
