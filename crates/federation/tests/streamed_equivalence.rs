//! Property-based proof that streamed (out-of-core) replays are
//! bit-identical to the reference oracle.
//!
//! A session built with `ReplaySession::from_reader` parses its trace a
//! chunk at a time off disk and never holds it whole; a resident session
//! replays the in-memory trace. Both drive the same per-query kernel, so
//! streaming must be invisible: for every policy, network regime, and
//! fault configuration, flat and two-tier, the [`CostReport`] equals the
//! oracle's — whatever the trace length relative to the chunk size.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Granularity, ObjectCatalog};
use byc_core::policy::CachePolicy;
use byc_federation::{
    build_policy, CostReport, DegradationPolicy, FaultModel, FaultPlan, FlakyLinks, NetworkModel,
    PerServerMultipliers, PolicyKind, ReplaySession, RetryPolicy, Topology, Uniform,
};
use byc_workload::{generate, ReplayTrace, Trace, TraceReader, WorkloadConfig, WorkloadStats};
use proptest::prelude::*;
use std::path::PathBuf;

/// Every policy the roster can build, not just the headline lineup.
const ALL_POLICIES: [PolicyKind; 13] = [
    PolicyKind::RateProfile,
    PolicyKind::OnlineBY,
    PolicyKind::OnlineBYMarking,
    PolicyKind::SpaceEffBY,
    PolicyKind::Gds,
    PolicyKind::Gdsp,
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::LruK,
    PolicyKind::Lff,
    PolicyKind::GdStar,
    PolicyKind::Static,
    PolicyKind::NoCache,
];

fn smoke(seed: u64, servers: u32, queries: usize) -> (Trace, ObjectCatalog, WorkloadStats) {
    let catalog = sdss::build(SdssRelease::Edr, 1e-4, servers);
    let trace = generate(&catalog, &WorkloadConfig::smoke(seed, queries)).unwrap();
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let stats = WorkloadStats::compute(&trace, &objects);
    (trace, objects, stats)
}

/// `trace` written to a per-test file, removed on drop.
struct TraceFile(PathBuf);

impl TraceFile {
    fn write(trace: &Trace, tag: &str) -> TraceFile {
        let path = std::env::temp_dir().join(format!(
            "byc-streamed-eq-{tag}-{}.jsonl",
            std::process::id()
        ));
        byc_workload::io::write_trace(trace, &path).unwrap();
        TraceFile(path)
    }

    fn reader(&self) -> TraceReader {
        TraceReader::open(&self.0).unwrap()
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

type Faults<'a> = Option<(&'a dyn FaultModel, RetryPolicy, DegradationPolicy)>;

fn plan<'a>(faults: Faults<'a>) -> Option<FaultPlan<'a>> {
    faults.map(|(model, retry, degradation)| FaultPlan {
        model,
        retry,
        degradation,
    })
}

/// The flat reference: the oracle over the in-memory trace.
fn reference_flat(
    trace: &Trace,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    network: &dyn NetworkModel,
    faults: Faults<'_>,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    oracle::flat_report(trace, objects, network, policy.as_mut(), plan(faults))
}

/// The streamed path: same policy construction, replayed off `file`.
#[allow(clippy::too_many_arguments)]
fn streamed_flat(
    file: &TraceFile,
    objects: &ObjectCatalog,
    stats: &WorkloadStats,
    kind: PolicyKind,
    seed: u64,
    network: &dyn NetworkModel,
    faults: Faults<'_>,
) -> CostReport {
    let capacity = objects.total_size().scale(0.25);
    let mut policy = build_policy(kind, capacity, &stats.demands, seed);
    let mut reader = file.reader();
    let mut chunk = ReplayTrace::new(reader.name(), objects);
    let mut session = ReplaySession::from_reader(&mut reader, &mut chunk, objects)
        .policy(policy.as_mut())
        .network(network)
        .unaudited();
    if let Some((model, retry, degradation)) = faults {
        session = session.faults(model).retry(retry).degrade(degradation);
    }
    session.run().unwrap().report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Flat: a streamed replay is bit-identical to the oracle for every
    /// policy, with and without per-server pricing, fault-free and under
    /// flaky links with retries.
    #[test]
    fn streamed_matches_reference(
        seed in any::<u64>(),
        servers in 1u32..4,
        fault_seed in any::<u64>(),
    ) {
        let (trace, objects, stats) = smoke(seed, servers, 120);
        let file = TraceFile::write(&trace, &format!("flat-{seed}"));
        let network = PerServerMultipliers::new(
            (0..servers).map(|s| 1.0 + s as f64).collect(),
        ).unwrap();
        let flaky = FlakyLinks::new(fault_seed, 0.15, 0.1, 4.0);
        let faulted: Faults<'_> = Some((
            &flaky as &dyn FaultModel,
            RetryPolicy::new(2, 2),
            DegradationPolicy::ServeStale,
        ));
        for kind in ALL_POLICIES {
            for net in [&Uniform as &dyn NetworkModel, &network] {
                for faults in [None, faulted] {
                    let reference =
                        reference_flat(&trace, &objects, &stats, kind, seed, net, faults);
                    let streamed =
                        streamed_flat(&file, &objects, &stats, kind, seed, net, faults);
                    prop_assert_eq!(
                        &reference, &streamed,
                        "{:?} diverged (faults {})", kind, faults.is_some()
                    );
                }
            }
        }
    }

    /// Two-tier: a streamed tiered replay matches the tiered oracle for
    /// every policy.
    #[test]
    fn tiered_streaming_matches_reference(seed in any::<u64>()) {
        let (trace, objects, stats) = smoke(seed, 2, 100);
        let file = TraceFile::write(&trace, &format!("tiered-{seed}"));
        let topo = Topology::two_tier(
            0.25,
            Box::new(PerServerMultipliers::new(vec![1.0, 3.0]).unwrap()),
        ).unwrap();
        let capacities: Vec<_> = topo
            .tiers()
            .iter()
            .map(|spec| objects.total_size().scale(0.25 * spec.capacity_scale))
            .collect();
        for kind in ALL_POLICIES {
            let build = || -> Vec<_> {
                capacities
                    .iter()
                    .map(|&cap| build_policy(kind, cap, &stats.demands, seed))
                    .collect()
            };
            let mut tiers = build();
            let mut refs: Vec<&mut dyn CachePolicy> =
                tiers.iter_mut().map(|p| p.as_mut() as &mut dyn CachePolicy).collect();
            let reference = oracle::tiered_report(&trace, &objects, &topo, &mut refs, None);
            let mut tiers = build();
            let mut reader = file.reader();
            let mut chunk = ReplayTrace::new(reader.name(), &objects);
            let mut session = ReplaySession::from_reader(&mut reader, &mut chunk, &objects)
                .topology(&topo)
                .unaudited();
            for p in tiers.iter_mut() {
                session = session.tier_policy(p.as_mut());
            }
            let streamed = session.run().unwrap().report;
            prop_assert_eq!(&reference, &streamed, "{:?} tiered streaming diverged", kind);
        }
    }
}

/// A disk-backed reader replays to the same bytes as the in-memory
/// trace it round-trips — the out-of-core entry point is not a third
/// semantics.
#[test]
fn reader_replay_matches_in_memory_replay() {
    let (trace, objects, stats) = smoke(23, 2, 150);
    let file = TraceFile::write(&trace, "reader");
    let network = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
    for kind in [
        PolicyKind::RateProfile,
        PolicyKind::Gds,
        PolicyKind::SpaceEffBY,
    ] {
        let reference = reference_flat(&trace, &objects, &stats, kind, 23, &network, None);
        let streamed = streamed_flat(&file, &objects, &stats, kind, 23, &network, None);
        assert_eq!(reference, streamed, "{kind:?} diverged through the reader");

        let capacity = objects.total_size().scale(0.25);
        let mut policy = build_policy(kind, capacity, &stats.demands, 23);
        let resident = ReplaySession::new(&trace, &objects)
            .policy(policy.as_mut())
            .network(&network)
            .unaudited()
            .run()
            .unwrap()
            .report;
        assert_eq!(resident, streamed, "{kind:?} resident != streamed");
    }
}

/// Chunk-size edges: the empty trace, one query, and traces one short
/// of, exactly at, and one past a chunk boundary of the reader.
#[test]
fn chunk_size_edges_replay_identically() {
    let (trace, objects, stats) = smoke(31, 1, 1025);
    for len in [0, 1, 1023, 1024, 1025] {
        let prefix = Trace {
            name: trace.name.clone(),
            seed: trace.seed,
            queries: trace.queries[..len].to_vec(),
        };
        let file = TraceFile::write(&prefix, &format!("edge-{len}"));
        let kind = PolicyKind::RateProfile;
        let reference = reference_flat(&prefix, &objects, &stats, kind, 31, &Uniform, None);
        let streamed = streamed_flat(&file, &objects, &stats, kind, 31, &Uniform, None);
        assert_eq!(reference, streamed, "{len} queries diverged");
        assert_eq!(streamed.queries, len);
        assert!(streamed.conserves_delivery());
    }
}

/// A session started on a chunk already refilled off its reader (as a
/// streamed `byc run` starts on the sample it judged for scale) replays
/// that chunk once, then the rest of the reader: the report is the
/// oracle's, and the reader hands out each query once.
#[test]
fn primed_first_chunk_replays_once() {
    let (trace, objects, stats) = smoke(37, 1, 1100);
    let file = TraceFile::write(&trace, "primed");
    let kind = PolicyKind::RateProfile;
    let reference = reference_flat(&trace, &objects, &stats, kind, 37, &Uniform, None);
    for first in [1, 700, 1024, 1100, 2000] {
        let mut reader = file.reader();
        let mut chunk = ReplayTrace::new(reader.name(), &objects);
        chunk.refill(&mut reader, &objects, first).unwrap();
        assert_eq!(reader.delivered(), first.min(trace.len()));
        let capacity = objects.total_size().scale(0.25);
        let mut policy = build_policy(kind, capacity, &stats.demands, 37);
        let streamed = ReplaySession::from_reader(&mut reader, &mut chunk, &objects)
            .policy(policy.as_mut())
            .unaudited()
            .run()
            .unwrap()
            .report;
        assert_eq!(reference, streamed, "first chunk of {first}");
        assert_eq!(reader.delivered(), reader.query_count());
    }
    // An empty file's first chunk is empty, and so is the replay.
    let empty = Trace {
        name: trace.name.clone(),
        seed: trace.seed,
        queries: Vec::new(),
    };
    let file = TraceFile::write(&empty, "primed-empty");
    let mut reader = file.reader();
    let mut chunk = ReplayTrace::new(reader.name(), &objects);
    chunk.refill(&mut reader, &objects, 1024).unwrap();
    let mut policy = build_policy(kind, objects.total_size().scale(0.25), &[], 37);
    let report = ReplaySession::from_reader(&mut reader, &mut chunk, &objects)
        .policy(policy.as_mut())
        .run()
        .unwrap()
        .report;
    assert_eq!(report.queries, 0);
}
