//! Property-based proof that replays of a `ReplayTrace` — resident,
//! streamed off disk, and swept — equal the reference oracle's replay of
//! the same `TraceQuery`s.
//!
//! The oracle (`oracle/`) decomposes every query into its slices on the
//! fly and hands observers the full query; a session replays the
//! compact `ReplayTrace`, whose slices were resolved once, and hands
//! observers a query with only its id and total yield. For all 13
//! policies, flat and three-tier, on clean links and on flaky links with
//! retries, at both granularities, and on traces with unresolved
//! references, four outputs must not differ: the `CostReport`, the
//! windows of a `Breakdown`, and the telemetry JSON and Prometheus
//! exports. The unresolved-reference warning must be word for word the
//! same on a run and on every sweep point. A kind that ignores capacity
//! must replay alike at every cache size.

mod oracle;

use byc_catalog::sdss::{self, SdssRelease};
use byc_catalog::{Catalog, Granularity, ObjectCatalog};
use byc_core::policy::CachePolicy;
use byc_federation::{
    build_policy, Breakdown, CostEvent, CostObserver, CostReport, DegradationPolicy, FaultModel,
    FaultPlan, FlakyLinks, NetworkModel, Observer, PerServerMultipliers, PolicyKind, ReplaySession,
    RetryPolicy, SweepOptions, Topology, Window,
};
use byc_telemetry::{json_snapshot, prometheus_text, MetricsRegistry, TelemetryObserver};
use byc_types::{Bytes, ColumnId, TableId};
use byc_workload::{generate, ReplayTrace, Trace, TraceQuery, TraceReader, WorkloadConfig};
use proptest::prelude::*;
use std::path::PathBuf;

/// Every policy the roster can build.
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

/// The site tier's cache, as a share of the database.
const FRACTION: f64 = 0.25;

/// Queries per `Breakdown` window.
const WINDOW: usize = 16;

/// A smoke trace over a two-server catalog; with `taint`, every third
/// query also names a table and a column the catalog does not have.
fn smoke(seed: u64, queries: usize, taint: bool) -> (Trace, Catalog) {
    let catalog = sdss::build(SdssRelease::Edr, 1e-4, 2);
    let mut trace = generate(&catalog, &WorkloadConfig::smoke(seed, queries)).unwrap();
    if taint {
        for (i, q) in trace.queries.iter_mut().enumerate().step_by(3) {
            let bytes = Bytes::new(1 + i as u64);
            q.table_yields.push((TableId::new(u32::MAX), bytes));
            q.column_yields
                .push((ColumnId::new(u32::MAX - 1), bytes.scale(2.0)));
        }
    }
    (trace, catalog)
}

/// The warning a replay of `trace` at the granularity of `objects` must
/// print, counted here from the trace itself.
fn expected_warning(trace: &Trace, objects: &ObjectCatalog) -> Option<String> {
    let (mut refs, mut bytes) = (0u64, Bytes::ZERO);
    for q in &trace.queries {
        let misses: Vec<Bytes> = match objects.granularity() {
            Granularity::Table => q
                .table_yields
                .iter()
                .filter(|(t, _)| objects.object_for_table(*t).is_err())
                .map(|&(_, y)| y)
                .collect(),
            Granularity::Column => q
                .column_yields
                .iter()
                .filter(|(c, _)| objects.object_for_column(*c).is_err())
                .map(|&(_, y)| y)
                .collect(),
        };
        refs += misses.len() as u64;
        bytes += misses.into_iter().sum::<Bytes>();
    }
    (refs > 0).then(|| {
        format!(
            "{refs} trace references ({bytes} of results) name no {} in the catalog; \
             they were skipped and their bytes are in no report column",
            objects.granularity().label()
        )
    })
}

/// `trace` written to a per-test file, removed on drop.
struct TraceFile(PathBuf);

impl TraceFile {
    fn write(trace: &Trace, tag: &str) -> TraceFile {
        let path = std::env::temp_dir().join(format!(
            "byc-replay-trace-eq-{tag}-{}.jsonl",
            std::process::id()
        ));
        byc_workload::io::write_trace(trace, &path).unwrap();
        TraceFile(path)
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// What one replay produced that the suite compares.
#[derive(Debug, PartialEq)]
struct Outputs {
    report: CostReport,
    windows: Vec<Window>,
    export: String,
    prometheus: String,
}

/// A windowed breakdown and a telemetry observer riding one replay.
struct Lane {
    windows: Breakdown,
    telemetry: TelemetryObserver,
}

impl Lane {
    fn new() -> Self {
        Lane {
            windows: Breakdown::every(WINDOW),
            telemetry: TelemetryObserver::new("lane"),
        }
    }

    fn outputs(self, report: CostReport) -> Outputs {
        let (snapshot, io) = self.telemetry.into_parts();
        io.unwrap();
        let mut registry = MetricsRegistry::new();
        registry.absorb(snapshot);
        Outputs {
            report,
            windows: self.windows.windows().to_vec(),
            export: json_snapshot(&registry).to_string(),
            prometheus: prometheus_text(&registry),
        }
    }
}

impl Observer for Lane {
    fn on_query_start(&mut self, index: usize, query: &TraceQuery) {
        self.windows.on_query_start(index, query);
        self.telemetry.on_query_start(index, query);
    }

    fn on_access(&mut self, event: &CostEvent<'_>) {
        self.windows.on_access(event);
        self.telemetry.on_access(event);
    }

    fn on_query_end(&mut self, index: usize, query: &TraceQuery) {
        self.windows.on_query_end(index, query);
        self.telemetry.on_query_end(index, query);
    }

    fn finish(&mut self, policy: Option<&dyn CachePolicy>) {
        self.windows.finish(policy);
        self.telemetry.finish(policy);
    }

    fn warnings(&mut self) -> Vec<String> {
        let mut warnings = self.windows.warnings();
        warnings.extend(self.telemetry.warnings());
        warnings
    }
}

/// The links a case replays over.
#[derive(Clone, Copy)]
enum Links<'a> {
    Flat(&'a dyn NetworkModel),
    Tiered(&'a Topology),
}

impl Links<'_> {
    fn scales(self) -> Vec<f64> {
        match self {
            Links::Flat(_) => vec![1.0],
            Links::Tiered(t) => t.tiers().iter().map(|s| s.capacity_scale).collect(),
        }
    }

    fn configure<'s>(self, session: ReplaySession<'s>) -> ReplaySession<'s>
    where
        Self: 's,
    {
        match self {
            Links::Flat(net) => session.network(net),
            Links::Tiered(topo) => session.topology(topo),
        }
    }
}

type Faults<'a> = Option<(&'a dyn FaultModel, RetryPolicy, DegradationPolicy)>;

/// One case's inputs.
struct Case<'a> {
    trace: &'a Trace,
    replay: &'a ReplayTrace,
    file: &'a TraceFile,
    objects: &'a ObjectCatalog,
    demands: &'a [byc_core::static_opt::ObjectDemand],
    seed: u64,
    links: Links<'a>,
    faults: Faults<'a>,
}

impl Case<'_> {
    fn policies(&self, kind: PolicyKind) -> Vec<Box<dyn CachePolicy + Send + Sync>> {
        let db = self.objects.total_size();
        self.links
            .scales()
            .iter()
            .map(|s| build_policy(kind, db.scale(FRACTION * s), self.demands, self.seed))
            .collect()
    }

    /// The oracle's replay of the decoded `TraceQuery`s.
    fn oracle(&self, kind: PolicyKind) -> Outputs {
        let mut tiers = self.policies(kind);
        let mut refs: Vec<&mut dyn CachePolicy> = tiers
            .iter_mut()
            .map(|p| p.as_mut() as &mut dyn CachePolicy)
            .collect();
        let label = refs.first().map(|p| p.name()).unwrap_or_default();
        let mut cost =
            CostObserver::new(label, &self.trace.name, self.objects.granularity().label());
        let mut lane = Lane::new();
        let plan = self.faults.map(|(model, retry, degradation)| FaultPlan {
            model,
            retry,
            degradation,
        });
        {
            let mut observers: [&mut dyn Observer; 2] = [&mut cost, &mut lane];
            match self.links {
                Links::Flat(net) => oracle::replay_flat(
                    self.trace,
                    self.objects,
                    net,
                    &mut *refs[0],
                    plan,
                    &mut observers,
                ),
                Links::Tiered(topo) => oracle::replay_tiered(
                    self.trace,
                    self.objects,
                    topo,
                    &mut refs,
                    plan,
                    &mut observers,
                ),
            }
        }
        lane.outputs(cost.into_report())
    }

    /// A session's replay: of the resident replay trace, or streamed off
    /// the trace file. Returns its warnings too.
    fn session(&self, kind: PolicyKind, streamed: bool) -> (Outputs, Vec<String>) {
        let mut tiers = self.policies(kind);
        let mut lane = Lane::new();
        let mut reader = TraceReader::open(&self.file.0).unwrap();
        let mut chunk = ReplayTrace::new(reader.name(), self.objects);
        let session = match streamed {
            true => ReplaySession::from_reader(&mut reader, &mut chunk, self.objects),
            false => ReplaySession::new(self.replay, self.objects),
        };
        let mut session = self.links.configure(session).observe(&mut lane);
        for p in tiers.iter_mut() {
            session = session.policy(p.as_mut());
        }
        if let Some((model, retry, degradation)) = self.faults {
            session = session.faults(model).retry(retry).degrade(degradation);
        }
        let replay = session.run().unwrap();
        (lane.outputs(replay.report), replay.warnings)
    }

    /// A sweep of every policy at [`FRACTION`] over the resident replay
    /// trace, one lane per job, in grid order.
    fn sweep(&self) -> Vec<(Outputs, Vec<String>)> {
        let make = |_: PolicyKind, _: f64| Lane::new();
        let mut lanes = Vec::new();
        let options = SweepOptions::new(&ALL_POLICIES, &[FRACTION], self.demands, self.seed)
            .observe(&make, &mut lanes);
        let mut session = self
            .links
            .configure(ReplaySession::new(self.replay, self.objects));
        if let Some((model, retry, degradation)) = self.faults {
            session = session.faults(model).retry(retry).degrade(degradation);
        }
        let points = session.sweep(options).unwrap();
        points
            .into_iter()
            .zip(lanes)
            .map(|(point, lane)| (lane.outputs(point.report), point.warnings))
            .collect()
    }
}

/// Every policy on every link shape and fault setting of one trace at
/// one granularity: resident, streamed and swept replays equal the
/// oracle, and every replay warns in the same words.
fn check(seed: u64, fault_seed: u64, granularity: Granularity, taint: bool) {
    let (trace, catalog) = smoke(seed, 90, taint);
    let objects = ObjectCatalog::uniform(&catalog, granularity);
    let replay = ReplayTrace::from_trace(&trace, &objects);
    let file = TraceFile::write(&trace, &format!("{seed}-{granularity:?}-{taint}"));
    let demands = byc_workload::WorkloadStats::compute(&trace, &objects).demands;
    let warning: Vec<String> = expected_warning(&trace, &objects).into_iter().collect();
    assert_eq!(warning.is_empty(), !taint);

    let network = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
    let topology = Topology::three_tier(
        0.1,
        0.25,
        Box::new(PerServerMultipliers::new(vec![1.0, 3.0]).unwrap()),
    )
    .unwrap();
    let flaky = FlakyLinks::new(fault_seed, 0.15, 0.1, 4.0);
    let degradation = match fault_seed % 2 {
        0 => DegradationPolicy::ServeStale,
        _ => DegradationPolicy::Fail,
    };
    let faulted: Faults<'_> = Some((&flaky, RetryPolicy::new(2, 2), degradation));
    for links in [Links::Flat(&network), Links::Tiered(&topology)] {
        for faults in [None, faulted] {
            let case = Case {
                trace: &trace,
                replay: &replay,
                file: &file,
                objects: &objects,
                demands: &demands,
                seed,
                links,
                faults,
            };
            let swept = case.sweep();
            assert_eq!(swept.len(), ALL_POLICIES.len());
            for (kind, (swept, swept_warnings)) in ALL_POLICIES.into_iter().zip(swept) {
                let what = format!(
                    "{kind:?} {granularity:?} taint {taint} tiered {} faults {}",
                    matches!(links, Links::Tiered(_)),
                    faults.is_some()
                );
                let reference = case.oracle(kind);
                let (resident, resident_warnings) = case.session(kind, false);
                let (streamed, streamed_warnings) = case.session(kind, true);
                assert_eq!(resident, reference, "resident: {what}");
                assert_eq!(streamed, reference, "streamed: {what}");
                assert_eq!(swept, reference, "swept: {what}");
                assert_eq!(resident_warnings, warning, "resident: {what}");
                assert_eq!(streamed_warnings, warning, "streamed: {what}");
                assert_eq!(swept_warnings, warning, "swept: {what}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn replay_trace_replays_match_the_oracle(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        column in any::<bool>(),
        taint in any::<bool>(),
    ) {
        let granularity = if column { Granularity::Column } else { Granularity::Table };
        check(seed, fault_seed, granularity, taint);
    }
}

/// Replays of every kind that [ignores capacity](PolicyKind::ignores_capacity),
/// one session per cache size from a hundredth of the database to
/// three times it, flat and three-tier, clean and flaky: reports,
/// windows and both telemetry exports are the same at every size. A
/// sweep replays such a kind once for all its sizes, so this is what
/// lets it.
fn capacity_blind_kinds_replay_alike(seed: u64, fault_seed: u64, granularity: Granularity) {
    let (trace, catalog) = smoke(seed, 90, seed.is_multiple_of(2));
    let objects = ObjectCatalog::uniform(&catalog, granularity);
    let replay = ReplayTrace::from_trace(&trace, &objects);
    let demands = byc_workload::WorkloadStats::compute(&trace, &objects).demands;
    let network = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
    let topology = Topology::three_tier(0.1, 0.25, Box::new(network.clone())).unwrap();
    let flaky = FlakyLinks::new(fault_seed, 0.15, 0.1, 4.0);
    let faulted: Faults<'_> = Some((&flaky, RetryPolicy::new(2, 2), DegradationPolicy::Fail));
    let db = objects.total_size();
    let blind: Vec<PolicyKind> = ALL_POLICIES
        .into_iter()
        .filter(|k| k.ignores_capacity())
        .collect();
    assert_eq!(blind, [PolicyKind::NoCache]);
    for kind in blind {
        for links in [Links::Flat(&network), Links::Tiered(&topology)] {
            for faults in [None, faulted] {
                let replays: Vec<_> = [0.01, 0.1, 0.3, 1.0, 3.0]
                    .into_iter()
                    .map(|fraction| {
                        let mut tiers: Vec<_> = links
                            .scales()
                            .iter()
                            .map(|s| build_policy(kind, db.scale(fraction * s), &demands, seed))
                            .collect();
                        let mut lane = Lane::new();
                        let mut session = links
                            .configure(ReplaySession::new(&replay, &objects))
                            .observe(&mut lane);
                        for p in tiers.iter_mut() {
                            session = session.policy(p.as_mut());
                        }
                        if let Some((model, retry, degradation)) = faults {
                            session = session.faults(model).retry(retry).degrade(degradation);
                        }
                        let replay = session.run().unwrap();
                        (lane.outputs(replay.report), replay.warnings)
                    })
                    .collect();
                for other in &replays[1..] {
                    assert_eq!(
                        other,
                        &replays[0],
                        "{kind:?} {granularity:?} tiered {} faults {}",
                        matches!(links, Links::Tiered(_)),
                        faults.is_some()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn capacity_blind_kinds_replay_alike_at_every_size(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        column in any::<bool>(),
    ) {
        let granularity = if column { Granularity::Column } else { Granularity::Table };
        capacity_blind_kinds_replay_alike(seed, fault_seed, granularity);
    }
}

/// Both granularities, clean and tainted, on fixed seeds: the four
/// corners the property draws from, each run at least once.
#[test]
fn every_granularity_and_taint_matches_the_oracle() {
    for (i, granularity) in [Granularity::Table, Granularity::Column]
        .into_iter()
        .enumerate()
    {
        for taint in [false, true] {
            check(101 + i as u64, 7 + u64::from(taint), granularity, taint);
        }
    }
}

/// A streamed file's unresolved references are counted chunk by chunk
/// and reported once, as the resident replay reports them, when the
/// file spans several reader chunks.
#[test]
fn unresolved_references_add_up_across_chunks() {
    let (trace, catalog) = smoke(29, 2100, true);
    let objects = ObjectCatalog::uniform(&catalog, Granularity::Column);
    let file = TraceFile::write(&trace, "chunks");
    let warning: Vec<String> = expected_warning(&trace, &objects).into_iter().collect();
    assert_eq!(warning.len(), 1);
    for streamed in [false, true] {
        let replay = ReplayTrace::from_trace(&trace, &objects);
        let mut reader = TraceReader::open(&file.0).unwrap();
        let mut chunk = ReplayTrace::new(reader.name(), &objects);
        let session = match streamed {
            true => ReplaySession::from_reader(&mut reader, &mut chunk, &objects),
            false => ReplaySession::new(&replay, &objects),
        };
        let mut policy = build_policy(PolicyKind::NoCache, Bytes::ZERO, &[], 0);
        let run = session.policy(policy.as_mut()).run().unwrap();
        assert_eq!(run.warnings, warning, "streamed {streamed}");
        assert_eq!(run.report.queries, 2100);
    }
}
