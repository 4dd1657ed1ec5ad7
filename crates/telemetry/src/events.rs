//! The NDJSON decision-event log.
//!
//! One line per decision, schema-versioned by a header line, so a log is
//! self-describing and parseable long after the run. Records carry both
//! raw (yield) and network-priced (`bypass_cost`, `fetch_cost`) byte
//! fields: summing the log reproduces the replay's
//! `D_S`/`D_L`/`D_C` totals exactly — the log is a complete witness of
//! the accounting, not a lossy trace.
//!
//! Writing is buffered and deferred: the hot path renders into an
//! in-memory buffer (pure `fmt::Write`, no syscalls, no allocation once
//! the buffer warmed up) and flushes by threshold; IO errors are parked
//! and surfaced once, at [`EventLogWriter::finish`]. The two `expect`
//! calls below are on `fmt::Write` into a `String` — infallible by
//! definition — and are allowlisted as such in `audit.toml`.

use byc_core::policy::Decision;
use byc_federation::{CostEvent, QueryWindow};
use byc_types::json::Value;
use byc_types::{Bytes, Error, ObjectId, Result, ServerId};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Schema identifier stamped into every log's header line.
pub const EVENT_SCHEMA: &str = "byc.telemetry.events";

/// Current schema version. Readers reject logs from a different major.
pub const EVENT_SCHEMA_VERSION: u64 = 1;

/// Flush the render buffer to the sink once it grows past this.
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// The decision taken for one object slice, as recorded in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// Served from cache, no traffic.
    Hit,
    /// Shipped from the server past the cache.
    Bypass,
    /// Fetched into the cache, then served from it.
    Load,
}

impl DecisionKind {
    /// The log's wire label.
    pub const fn label(self) -> &'static str {
        match self {
            DecisionKind::Hit => "hit",
            DecisionKind::Bypass => "bypass",
            DecisionKind::Load => "load",
        }
    }

    /// Parse a wire label back.
    pub fn parse(label: &str) -> Option<DecisionKind> {
        match label {
            "hit" => Some(DecisionKind::Hit),
            "bypass" => Some(DecisionKind::Bypass),
            "load" => Some(DecisionKind::Load),
            _ => None,
        }
    }
}

/// One logged decision: everything needed to re-derive the slice's cost
/// split without replaying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Query ordinal within the replay.
    pub query: u64,
    /// The object served.
    pub object: ObjectId,
    /// The object's home server.
    pub server: ServerId,
    /// The decision taken.
    pub decision: DecisionKind,
    /// The buy price `f_i` the policy weighed (network-priced fetch
    /// cost).
    pub fetch_price: Bytes,
    /// The deciding tier's cache occupancy in bytes after the decision.
    pub occupancy: Bytes,
    /// Caching tier that took the decision (0 = site; always 0 on a
    /// flat topology, where the key is omitted from the wire format).
    pub tier: u32,
    /// The slice's cost split at this tier: the engine event's one-slice
    /// window.
    pub window: QueryWindow,
}

impl EventRecord {
    /// Capture one engine event.
    pub fn from_event(event: &CostEvent<'_>) -> EventRecord {
        let decision = match event.decision {
            Decision::Hit => DecisionKind::Hit,
            Decision::Bypass => DecisionKind::Bypass,
            Decision::Load { .. } => DecisionKind::Load,
        };
        EventRecord {
            query: event.query as u64,
            object: event.access.object,
            server: event.server,
            decision,
            fetch_price: event.access.fetch_cost,
            occupancy: event.policy.used(),
            tier: event.tier,
            window: event.window,
        }
    }

    /// Render one NDJSON line (including the trailing newline) into
    /// `buf`. Field order is fixed; keys are short because a full log
    /// writes one line per decision.
    // fmt::Write into a String cannot fail, so the Results are discarded
    // rather than unwrapped: this sits on the replay hot path, where a
    // panic site would trip the no-panic audit.
    fn render_into(&self, buf: &mut String) {
        let w = &self.window;
        let _ = write!(
            buf,
            "{{\"q\":{},\"o\":{},\"s\":{},\"d\":\"{}\",\"y\":{},\"f\":{},\"bc\":{},\"fc\":{},\"cs\":{},\"ev\":{},\"occ\":{}",
            self.query,
            self.object.raw(),
            self.server.raw(),
            self.decision.label(),
            w.delivered.raw(),
            self.fetch_price.raw(),
            w.bypass_cost.raw(),
            w.fetch_cost.raw(),
            w.cache_served.raw(),
            w.evictions,
            self.occupancy.raw(),
        );
        // Tier columns only appear on tiered topologies: flat logs
        // (tier 0, no relay traffic) stay byte-identical to logs written
        // before topologies existed, and the reader defaults the missing
        // keys to zero.
        if self.tier != 0 || w.relay_cost != Bytes::ZERO {
            let _ = write!(buf, ",\"t\":{},\"rc\":{}", self.tier, w.relay_cost.raw());
        }
        // Fault columns only appear when the slice actually hit the fault
        // layer, so fault-free logs stay byte-identical to version-1 logs
        // written before the fault model existed (the reader defaults the
        // missing keys to zero).
        if w.retries != 0 || w.failed_slices != 0 || w.degraded_slices != 0 {
            let _ = write!(
                buf,
                ",\"rb\":{},\"fb\":{},\"rt\":{},\"fl\":{},\"dg\":{}",
                w.retried_bytes.raw(),
                w.failed_bytes.raw(),
                w.retries,
                w.failed_slices,
                w.degraded_slices,
            );
        }
        let _ = writeln!(buf, "}}");
    }

    /// Parse one NDJSON record line.
    ///
    /// The wire format carries the delivered bytes (`y`) and the cached
    /// share (`cs`), not the server-shipped share: a slice delivers its
    /// bytes from the servers or from the cache, so that share is
    /// `y - cs`. The decision counters follow from `d`.
    ///
    /// # Errors
    ///
    /// [`Error::TraceFormat`] on malformed JSON, missing fields, or a
    /// cached share larger than the delivered bytes, which no slice can
    /// have.
    pub fn parse(line: &str) -> Result<EventRecord> {
        let v = Value::parse(line).map_err(Error::TraceFormat)?;
        let field = |key: &str| -> Result<u64> {
            v[key]
                .as_u64()
                .ok_or_else(|| Error::TraceFormat(format!("event record missing {key:?}: {line}")))
        };
        let decision = v["d"]
            .as_str()
            .and_then(DecisionKind::parse)
            .ok_or_else(|| Error::TraceFormat(format!("bad decision in event record: {line}")))?;
        let query = field("q")?;
        let object = u32::try_from(field("o")?)
            .map_err(|_| Error::TraceFormat("object id out of range".into()))?;
        let server = u32::try_from(field("s")?)
            .map_err(|_| Error::TraceFormat("server id out of range".into()))?;
        let delivered = Bytes::new(field("y")?);
        let fetch_price = Bytes::new(field("f")?);
        let bypass_cost = Bytes::new(field("bc")?);
        let fetch_cost = Bytes::new(field("fc")?);
        let cache_served = Bytes::new(field("cs")?);
        let bypass_served = delivered.raw().checked_sub(cache_served.raw()).ok_or_else(|| {
            Error::TraceFormat(format!(
                "event record's cached share \"cs\" ({}) exceeds its delivered bytes \"y\" ({}): {line}",
                cache_served.raw(),
                delivered.raw()
            ))
        })?;
        let evictions = field("ev")?;
        let occupancy = Bytes::new(field("occ")?);
        Ok(EventRecord {
            query,
            object: ObjectId::new(object),
            server: ServerId::new(server),
            decision,
            fetch_price,
            occupancy,
            // Absent on flat-topology (and all pre-topology) logs: zero.
            tier: u32::try_from(v["t"].as_u64().unwrap_or(0))
                .map_err(|_| Error::TraceFormat("tier out of range".into()))?,
            window: QueryWindow {
                delivered,
                bypass_served: Bytes::new(bypass_served),
                bypass_cost,
                fetch_cost,
                relay_cost: Bytes::new(v["rc"].as_u64().unwrap_or(0)),
                cache_served,
                // Absent in fault-free logs (and all pre-fault logs): zero.
                retried_bytes: Bytes::new(v["rb"].as_u64().unwrap_or(0)),
                failed_bytes: Bytes::new(v["fb"].as_u64().unwrap_or(0)),
                hits: u64::from(decision == DecisionKind::Hit),
                bypasses: u64::from(decision == DecisionKind::Bypass),
                loads: u64::from(decision == DecisionKind::Load),
                evictions,
                retries: v["rt"].as_u64().unwrap_or(0),
                failed_slices: v["fl"].as_u64().unwrap_or(0),
                degraded_slices: v["dg"].as_u64().unwrap_or(0),
            },
        })
    }
}

/// Buffered NDJSON writer with deferred IO errors.
///
/// Construction queues the schema header line; [`record`] renders into an
/// in-memory buffer and flushes by threshold; the first IO error is
/// parked and every later write becomes a no-op, so the replay's hot
/// path never branches on IO. [`finish`] flushes the tail and surfaces
/// the parked error (if any).
///
/// [`record`]: EventLogWriter::record
/// [`finish`]: EventLogWriter::finish
pub struct EventLogWriter {
    sink: Box<dyn std::io::Write + Send>,
    buf: String,
    parked: Option<Error>,
    records: u64,
}

impl EventLogWriter {
    /// A writer over an arbitrary sink, stamped with the policy label.
    // fmt::Write into a String cannot fail; see audit.toml.
    #[allow(clippy::expect_used)]
    pub fn new(sink: Box<dyn std::io::Write + Send>, policy: &str) -> Self {
        let mut buf = String::with_capacity(FLUSH_THRESHOLD + 4096);
        let header = Value::Object(vec![
            ("schema".into(), Value::str(EVENT_SCHEMA)),
            ("version".into(), Value::u64(EVENT_SCHEMA_VERSION)),
            ("policy".into(), Value::str(policy)),
        ]);
        writeln!(buf, "{header}").expect("fmt::Write to String is infallible");
        EventLogWriter {
            sink,
            buf,
            parked: None,
            records: 0,
        }
    }

    /// A writer creating (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the file cannot be created.
    pub fn create(path: &Path, policy: &str) -> Result<EventLogWriter> {
        let file = std::fs::File::create(path)?;
        Ok(EventLogWriter::new(
            Box::new(std::io::BufWriter::new(file)),
            policy,
        ))
    }

    /// Append one record. Never fails here: IO errors park and surface
    /// at [`EventLogWriter::finish`].
    pub fn record(&mut self, record: &EventRecord) {
        if self.parked.is_some() {
            return;
        }
        record.render_into(&mut self.buf);
        self.records += 1;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buf();
        }
    }

    /// Records accepted so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The parked IO error, if any write has failed so far.
    ///
    /// The writer has no `Drop` glue: dropping it without calling
    /// [`EventLogWriter::finish`] silently discards both the buffered
    /// tail and this error. Callers that cannot guarantee a `finish`
    /// (observers polled for warnings mid-run, for instance) can peek
    /// here to surface the failure before the writer goes away.
    pub fn parked(&self) -> Option<&Error> {
        self.parked.as_ref()
    }

    fn flush_buf(&mut self) {
        if let Err(e) = self.sink.write_all(self.buf.as_bytes()) {
            self.parked = Some(e.into());
        }
        self.buf.clear();
    }

    /// Flush everything and return the number of records written.
    ///
    /// # Errors
    ///
    /// The first IO error encountered anywhere in the log's lifetime.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_buf();
        if self.parked.is_none() {
            if let Err(e) = self.sink.flush() {
                self.parked = Some(e.into());
            }
        }
        match self.parked {
            Some(e) => Err(e),
            None => Ok(self.records),
        }
    }
}

/// A parsed event log: the header's identity plus every record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventLog {
    /// Schema version from the header.
    pub version: u64,
    /// Policy label from the header.
    pub policy: String,
    /// The records, in replay order.
    pub events: Vec<EventRecord>,
}

impl EventLog {
    /// Sum the log's records into the replay's own [`QueryWindow`]: the
    /// merge of every record's window.
    pub fn totals(&self) -> QueryWindow {
        let mut total = QueryWindow::default();
        for e in &self.events {
            total.merge(&e.window);
        }
        total
    }

    /// Read a log from the file at `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::TraceFormat`] on malformed
    /// content.
    pub fn read_file(path: &Path) -> Result<EventLog> {
        read_events(&std::fs::read_to_string(path)?)
    }
}

/// Validate a header line and extract `(version, policy)`.
fn parse_header(line: &str) -> Result<(u64, String)> {
    let header = Value::parse(line).map_err(Error::TraceFormat)?;
    if header["schema"].as_str() != Some(EVENT_SCHEMA) {
        return Err(Error::TraceFormat(format!(
            "not an event log (schema {:?})",
            header["schema"].as_str().unwrap_or("<missing>")
        )));
    }
    let version = header["version"]
        .as_u64()
        .ok_or_else(|| Error::TraceFormat("event log header missing version".into()))?;
    if version != EVENT_SCHEMA_VERSION {
        return Err(Error::TraceFormat(format!(
            "unsupported event log version {version} (expected {EVENT_SCHEMA_VERSION})"
        )));
    }
    let policy = header["policy"].as_str().unwrap_or("").to_string();
    Ok((version, policy))
}

/// Streaming event-log reader: validates the schema header eagerly, then
/// yields one [`EventRecord`] per line as an iterator — the whole log is
/// never materialized, so a multi-gigabyte trace reads in constant
/// memory (the groundwork for out-of-core replays).
///
/// [`read_events`] is a `collect()` over this reader, so the two paths
/// cannot disagree on the wire format.
pub struct EventReader<R> {
    version: u64,
    policy: String,
    lines: std::io::Lines<R>,
}

impl<R: std::io::BufRead> EventReader<R> {
    /// Wrap a buffered reader, consuming and validating the header line.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on read failure, [`Error::TraceFormat`] on a
    /// missing or mismatched header.
    pub fn new(reader: R) -> Result<EventReader<R>> {
        let mut lines = reader.lines();
        let header_line = loop {
            match lines.next() {
                None => return Err(Error::TraceFormat("empty event log".into())),
                Some(Err(e)) => return Err(e.into()),
                Some(Ok(line)) if line.trim().is_empty() => continue,
                Some(Ok(line)) => break line,
            }
        };
        let (version, policy) = parse_header(&header_line)?;
        Ok(EventReader {
            version,
            policy,
            lines,
        })
    }

    /// Schema version from the header.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Policy label from the header.
    pub fn policy(&self) -> &str {
        &self.policy
    }
}

impl<R: std::io::BufRead> Iterator for EventReader<R> {
    type Item = Result<EventRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.lines.next()? {
                Err(e) => return Some(Err(e.into())),
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    return Some(EventRecord::parse(&line));
                }
            }
        }
    }
}

/// Parse a whole NDJSON log: the schema header line, then one record per
/// non-empty line.
///
/// # Errors
///
/// [`Error::TraceFormat`] on a missing/mismatched header or any
/// malformed record line.
pub fn read_events(text: &str) -> Result<EventLog> {
    let reader = EventReader::new(text.as_bytes())?;
    let version = reader.version();
    let policy = reader.policy().to_string();
    let events = reader.collect::<Result<Vec<_>>>()?;
    Ok(EventLog {
        version,
        policy,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// An in-memory sink the test keeps a handle to after the writer
    /// consumed its `Box`.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn sample_record(query: u64) -> EventRecord {
        EventRecord {
            query,
            object: ObjectId::new(7),
            server: ServerId::new(1),
            decision: DecisionKind::Bypass,
            fetch_price: Bytes::new(5000),
            occupancy: Bytes::mib(3),
            tier: 0,
            window: QueryWindow {
                delivered: Bytes::new(1000),
                bypass_served: Bytes::new(1000),
                bypass_cost: Bytes::new(2000),
                bypasses: 1,
                ..QueryWindow::default()
            },
        }
    }

    fn faulted_record(query: u64) -> EventRecord {
        let sample = sample_record(query);
        EventRecord {
            window: QueryWindow {
                retried_bytes: Bytes::new(4000),
                failed_bytes: Bytes::new(1000),
                retries: 2,
                failed_slices: 1,
                ..sample.window
            },
            ..sample
        }
    }

    #[test]
    fn faulted_record_roundtrips_and_sums() {
        let record = faulted_record(7);
        let mut buf = String::new();
        record.render_into(&mut buf);
        assert!(buf.contains("\"rb\":4000"), "{buf}");
        let back = EventRecord::parse(buf.trim_end()).unwrap();
        assert_eq!(back, record);

        let log = EventLog {
            version: EVENT_SCHEMA_VERSION,
            policy: "GDS".into(),
            events: vec![sample_record(0), faulted_record(1)],
        };
        let totals = log.totals();
        assert_eq!(totals.retried_bytes, Bytes::new(4000));
        assert_eq!(totals.failed_bytes, Bytes::new(1000));
        assert_eq!(totals.retries, 2);
        assert_eq!(totals.failed_slices, 1);
        assert_eq!(totals.degraded_slices, 0);
        // Re-sent bytes count as WAN traffic.
        assert_eq!(totals.wan_cost(), Bytes::new(2000 + 2000 + 4000));
    }

    #[test]
    fn fault_free_records_render_without_fault_keys() {
        // Version-1 logs written before the fault layer (and before
        // topologies) must stay byte-identical, and their parse defaults
        // the new fields to 0.
        let mut buf = String::new();
        sample_record(3).render_into(&mut buf);
        for key in ["rb", "fb", "rt", "fl", "dg", "t", "rc"] {
            assert!(!buf.contains(&format!("\"{key}\":")), "{buf}");
        }
        let back = EventRecord::parse(buf.trim_end()).unwrap();
        assert_eq!(back.window.retries, 0);
        assert_eq!(back.window.failed_bytes, Bytes::ZERO);
        assert_eq!(back.tier, 0);
        assert_eq!(back.window.relay_cost, Bytes::ZERO);
    }

    #[test]
    fn tiered_record_roundtrips_and_counts_relay_as_wan() {
        let sample = sample_record(9);
        let record = EventRecord {
            tier: 2,
            window: QueryWindow {
                relay_cost: Bytes::new(750),
                ..sample.window
            },
            ..sample
        };
        let mut buf = String::new();
        record.render_into(&mut buf);
        assert!(buf.contains("\"t\":2"), "{buf}");
        assert!(buf.contains("\"rc\":750"), "{buf}");
        let back = EventRecord::parse(buf.trim_end()).unwrap();
        assert_eq!(back, record);

        let log = EventLog {
            version: EVENT_SCHEMA_VERSION,
            policy: "RATE-PROFILE".into(),
            events: vec![sample_record(0), record],
        };
        let totals = log.totals();
        assert_eq!(totals.relay_cost, Bytes::new(750));
        // Relay forwarding is WAN traffic.
        assert_eq!(totals.wan_cost(), Bytes::new(2000 + 2000 + 750));
    }

    #[test]
    fn record_line_roundtrips() {
        let record = sample_record(42);
        let mut buf = String::new();
        record.render_into(&mut buf);
        assert!(buf.ends_with('\n'));
        let back = EventRecord::parse(buf.trim_end()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn record_caching_more_than_it_delivers_is_refused() {
        let line =
            r#"{"q":0,"o":0,"s":0,"d":"hit","y":5,"f":0,"bc":0,"fc":0,"cs":9,"ev":0,"occ":0}"#;
        let err = EventRecord::parse(line).unwrap_err();
        assert!(matches!(err, Error::TraceFormat(_)), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("\"cs\" (9)") && text.contains("\"y\" (5)"),
            "{text}"
        );
        // The same record with its whole delivery cached parses.
        let back = EventRecord::parse(&line.replace("\"cs\":9", "\"cs\":5")).unwrap();
        assert!(back.window.conserves_delivery());
        assert_eq!(back.window.bypass_served, Bytes::ZERO);
    }

    #[test]
    fn log_roundtrips_through_writer_and_reader() {
        let sink = SharedBuf::default();
        let mut writer = EventLogWriter::new(Box::new(sink.clone()), "GDS");
        for q in 0..100 {
            writer.record(&sample_record(q));
        }
        assert_eq!(writer.finish().unwrap(), 100);
        let log = read_events(&sink.text()).unwrap();
        assert_eq!(log.policy, "GDS");
        assert_eq!(log.version, EVENT_SCHEMA_VERSION);
        assert_eq!(log.events.len(), 100);
        let totals = log.totals();
        assert_eq!(totals.bypasses, 100);
        assert_eq!(totals.bypass_cost, Bytes::new(200_000));
        assert_eq!(totals.delivered, Bytes::new(100_000));
        assert_eq!(totals.wan_cost(), Bytes::new(200_000));
    }

    #[test]
    fn streaming_reader_matches_collecting_reader_on_a_multi_chunk_log() {
        // A log well past FLUSH_THRESHOLD, so the writer flushed several
        // chunks; read it back through a deliberately tiny BufReader so
        // the streaming reader crosses many buffer refills.
        let sink = SharedBuf::default();
        let mut writer = EventLogWriter::new(Box::new(sink.clone()), "GDS");
        let count = 2_000u64;
        for q in 0..count {
            writer.record(&sample_record(q));
            writer.record(&faulted_record(q));
        }
        assert_eq!(writer.finish().unwrap(), count * 2);
        let text = sink.text();
        assert!(
            text.len() > FLUSH_THRESHOLD,
            "log too small: {}",
            text.len()
        );

        let collected = read_events(&text).unwrap();
        let reader = EventReader::new(std::io::BufReader::with_capacity(
            64,
            std::io::Cursor::new(text.as_bytes()),
        ))
        .unwrap();
        assert_eq!(reader.version(), EVENT_SCHEMA_VERSION);
        assert_eq!(reader.policy(), "GDS");
        let streamed = reader.collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(streamed, collected.events);
        assert_eq!(streamed.len() as u64, count * 2);
    }

    #[test]
    fn streaming_reader_opens_files_and_surfaces_bad_records() {
        let path =
            std::env::temp_dir().join(format!("byc-events-reader-{}.ndjson", std::process::id()));
        let mut writer = EventLogWriter::create(&path, "LRU").unwrap();
        for q in 0..10 {
            writer.record(&sample_record(q));
        }
        writer.finish().unwrap();
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let reader = EventReader::new(file).unwrap();
        assert_eq!(reader.policy(), "LRU");
        assert_eq!(reader.count(), 10);
        std::fs::remove_file(&path).unwrap();

        // A malformed record line surfaces as an Err item, not a panic.
        let text =
            format!("{{\"schema\":\"{EVENT_SCHEMA}\",\"version\":1,\"policy\":\"x\"}}\nnot json\n");
        let mut reader = EventReader::new(text.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_err());
    }

    #[test]
    fn reader_rejects_foreign_and_stale_logs() {
        assert!(read_events("").is_err());
        assert!(read_events("{\"schema\":\"other\"}").is_err());
        let stale = format!("{{\"schema\":\"{EVENT_SCHEMA}\",\"version\":999}}");
        assert!(read_events(&stale).is_err());
        let ok = format!("{{\"schema\":\"{EVENT_SCHEMA}\",\"version\":1,\"policy\":\"x\"}}");
        assert!(read_events(&ok).unwrap().events.is_empty());
    }

    #[test]
    fn writer_parks_io_errors_until_finish() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = EventLogWriter::new(Box::new(Broken), "x");
        // Way past the flush threshold: errors must stay parked.
        for q in 0..10_000 {
            writer.record(&sample_record(q));
        }
        let err = writer.finish().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
    }

    #[test]
    fn decision_labels_roundtrip() {
        for kind in [DecisionKind::Hit, DecisionKind::Bypass, DecisionKind::Load] {
            assert_eq!(DecisionKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DecisionKind::parse("nope"), None);
    }
}
