//! Cache-size sweeps (Figs 9–10): the [`SweepOptions`] grid description
//! and the [`SweepPoint`] result shape.
//!
//! The sweep entry point lives on
//! [`ReplaySession`](crate::session::ReplaySession) — see
//! [`ReplaySession::sweep`](crate::session::ReplaySession::sweep). It
//! takes one [`SweepOptions`] value describing the whole
//! (policy × cache-fraction) grid; per-point observers attach via
//! [`SweepOptions::observe`] instead of a separate `sweep_with` entry
//! point.

use crate::accounting::CostReport;
use crate::engine::Observer;
use crate::policies::PolicyKind;
use byc_core::static_opt::ObjectDemand;
use byc_types::Bytes;

/// The no-op observer the default [`SweepOptions`] instantiation
/// carries. Never constructed: observer-free sweeps attach nothing to
/// their replays.
pub struct NoObserver;

impl Observer for NoObserver {}

/// Per-point observer wiring: a factory plus the sink the observers
/// come back in (grid order).
pub(crate) struct SweepObserve<'s, O> {
    /// Called once per (policy, fraction) grid point, on the sweeping
    /// thread, before any replay starts.
    pub(crate) make: &'s dyn Fn(PolicyKind, f64) -> O,
    /// Receives each point's observer after its replay, in grid order
    /// (policy-major, fraction-minor — matching the returned points).
    pub(crate) sink: &'s mut Vec<O>,
}

/// Everything a sweep replays: the (policy × cache-fraction) grid, the
/// per-object demands (consulted by [`PolicyKind::Static`]), the policy
/// seed, and optionally a per-point observer factory.
///
/// One `validate()`-free options struct replaces the old four-positional
/// `sweep(policies, fractions, demands, seed)` /
/// `sweep_with(..., make_observer)` pair: construct with
/// [`SweepOptions::new`], chain [`SweepOptions::observe`] to ride an
/// observer on every grid point.
///
/// ```text
/// session.sweep(SweepOptions::new(&policies, &fractions, &demands, 7))?;
///
/// let mut lanes = Vec::new();
/// session.sweep(
///     SweepOptions::new(&policies, &fractions, &demands, 7)
///         .observe(&make_lane, &mut lanes),
/// )?;
/// ```
pub struct SweepOptions<'s, O: Observer + Send = NoObserver> {
    pub(crate) policies: &'s [PolicyKind],
    pub(crate) fractions: &'s [f64],
    pub(crate) demands: &'s [ObjectDemand],
    pub(crate) seed: u64,
    pub(crate) observe: Option<SweepObserve<'s, O>>,
}

impl<'s> SweepOptions<'s, NoObserver> {
    /// A sweep over every (policy, fraction) pair, no per-point observers.
    pub fn new(
        policies: &'s [PolicyKind],
        fractions: &'s [f64],
        demands: &'s [ObjectDemand],
        seed: u64,
    ) -> Self {
        SweepOptions {
            policies,
            fractions,
            demands,
            seed,
            observe: None,
        }
    }
}

impl Default for SweepOptions<'_, NoObserver> {
    /// The empty grid: no policies, no fractions, no demands, seed 0.
    fn default() -> Self {
        SweepOptions::new(&[], &[], &[], 0)
    }
}

impl<'s, O: Observer + Send> SweepOptions<'s, O> {
    /// Ride one observer per (policy, fraction) grid point — the
    /// telemetry seam for sweeps. `make` runs once per point on the
    /// sweeping thread *before* any replay; the observer rides the
    /// replay that makes its point, on a worker thread, and lands in
    /// `sink` in grid order (policy-major), so callers can merge
    /// per-point metric snapshots deterministically against the returned
    /// points. The points of a kind that
    /// [ignores capacity](PolicyKind::ignores_capacity) share one replay,
    /// so their observers see the same events.
    #[must_use]
    pub fn observe<P: Observer + Send>(
        self,
        make: &'s dyn Fn(PolicyKind, f64) -> P,
        sink: &'s mut Vec<P>,
    ) -> SweepOptions<'s, P> {
        SweepOptions {
            policies: self.policies,
            fractions: self.fractions,
            demands: self.demands,
            seed: self.seed,
            observe: Some(SweepObserve { make, sink }),
        }
    }
}

/// One (policy, cache size) result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Policy display name.
    pub policy: String,
    /// Cache size as a fraction of the database size.
    pub cache_fraction: f64,
    /// Cache capacity in bytes.
    pub capacity: Bytes,
    /// Full cost report of the replay.
    pub report: CostReport,
    /// The replay's warnings and those of this point's own observer
    /// (unresolved trace references, parked telemetry IO errors,
    /// flight-recorder truncation notes). Empty for observer-free sweeps
    /// and clean runs.
    pub warnings: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkModel, PerServerMultipliers, Uniform};
    use crate::policies::PolicyKind;
    use crate::session::ReplaySession;
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::{Granularity, ObjectCatalog};
    use byc_core::static_opt::ObjectDemand;
    use byc_workload::{generate, Trace, WorkloadConfig, WorkloadStats};

    fn sweep(
        trace: &Trace,
        objects: &ObjectCatalog,
        demands: &[ObjectDemand],
        policies: &[PolicyKind],
        fractions: &[f64],
        seed: u64,
        network: &dyn NetworkModel,
    ) -> Vec<SweepPoint> {
        ReplaySession::new(trace, objects)
            .network(network)
            .sweep(SweepOptions::new(policies, fractions, demands, seed))
            .unwrap()
    }

    #[test]
    fn sweep_covers_grid_and_costs_decrease() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(47, 800)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let fractions = [0.1, 0.5, 1.0];
        let points = sweep(
            &trace,
            &objects,
            &stats.demands,
            &[PolicyKind::RateProfile, PolicyKind::Static],
            &fractions,
            1,
            &Uniform,
        );
        assert_eq!(points.len(), 6);
        // Larger static caches never cost more.
        let static_costs: Vec<u64> = points
            .iter()
            .filter(|p| p.policy == "Static")
            .map(|p| p.report.total_cost().raw())
            .collect();
        assert_eq!(static_costs.len(), 3);
        assert!(static_costs[0] >= static_costs[2]);
        // Every report conserves delivery.
        for p in &points {
            assert!(p.report.conserves_delivery(), "{}", p.policy);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(53, 400)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Table);
        let stats = WorkloadStats::compute(&trace, &objects);
        let run = || {
            sweep(
                &trace,
                &objects,
                &stats.demands,
                &[PolicyKind::SpaceEffBY],
                &[0.3],
                9,
                &Uniform,
            )
            .pop()
            .unwrap()
            .report
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sweep_threads_share_a_network_model() {
        let cat = build(SdssRelease::Edr, 1e-3, 2);
        let trace = generate(&cat, &WorkloadConfig::smoke(59, 400)).unwrap();
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let stats = WorkloadStats::compute(&trace, &objects);
        let net = PerServerMultipliers::new(vec![1.0, 2.0]).unwrap();
        let points = sweep(
            &trace,
            &objects,
            &stats.demands,
            &[PolicyKind::NoCache, PolicyKind::Gds],
            &[0.2, 0.4],
            3,
            &net,
        );
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.report.conserves_delivery(), "{}", p.policy);
            // The expensive link makes priced WAN exceed raw bypassed bytes
            // whenever any server-1 object was bypassed.
            assert!(p.report.bypass_cost >= p.report.bypass_served);
        }
    }
}
