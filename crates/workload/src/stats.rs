//! Workload statistics: per-object demands.
//!
//! These feed the static-optimal planner, which needs each object's total
//! yield over the whole trace before the first query.

use crate::replay::{for_each_slice, ReplayTrace};
use crate::trace::Trace;
use byc_catalog::ObjectCatalog;
use byc_core::static_opt::ObjectDemand;
use byc_types::{Bytes, ObjectId};

/// The demand profile of a trace at one object granularity.
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    /// Per-object demand: the total yield attributed to each object of
    /// the catalog, in object order.
    pub demands: Vec<ObjectDemand>,
}

impl WorkloadStats {
    /// The demands of `trace` at the granularity of `objects`.
    pub fn compute(trace: &Trace, objects: &ObjectCatalog) -> Self {
        let mut yields = vec![Bytes::ZERO; objects.len()];
        for q in &trace.queries {
            for_each_slice(q, objects, |o, y| add(&mut yields, o, y));
        }
        Self::of_yields(objects, &yields)
    }

    /// The demands of `trace`'s slices, which must have been resolved
    /// against `objects`: equal to [`Self::compute`] on the trace it was
    /// made from.
    pub fn of_replay(trace: &ReplayTrace, objects: &ObjectCatalog) -> Self {
        let mut yields = vec![Bytes::ZERO; objects.len()];
        for (o, y) in trace.slices() {
            add(&mut yields, o, y);
        }
        Self::of_yields(objects, &yields)
    }

    fn of_yields(objects: &ObjectCatalog, yields: &[Bytes]) -> Self {
        let demands = objects
            .objects()
            .iter()
            .map(|info| ObjectDemand {
                object: info.id,
                total_yield: yields.get(info.id.index()).copied().unwrap_or_default(),
                size: info.size,
                fetch_cost: info.fetch_cost,
            })
            .collect();
        Self { demands }
    }
}

fn add(yields: &mut [Bytes], object: ObjectId, raw_yield: Bytes) {
    if let Some(total) = yields.get_mut(object.index()) {
        *total += raw_yield;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorkloadConfig};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_catalog::Granularity;

    fn setup() -> (Trace, ObjectCatalog, ObjectCatalog) {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(23, 1000)).unwrap();
        let tables = ObjectCatalog::uniform(&cat, Granularity::Table);
        let columns = ObjectCatalog::uniform(&cat, Granularity::Column);
        (trace, tables, columns)
    }

    #[test]
    fn demands_sum_to_sequence_cost() {
        let (trace, tables, columns) = setup();
        for objects in [&tables, &columns] {
            let stats = WorkloadStats::compute(&trace, objects);
            let sum: u64 = stats.demands.iter().map(|d| d.total_yield.raw()).sum();
            assert_eq!(sum, trace.sequence_cost().raw());
            let replay =
                WorkloadStats::of_replay(&ReplayTrace::from_trace(&trace, objects), objects);
            assert_eq!(replay.demands, stats.demands);
        }
    }

    #[test]
    fn demand_is_concentrated() {
        // Schema locality ⇒ a few columns dominate demand.
        let (trace, _, columns) = setup();
        let stats = WorkloadStats::compute(&trace, &columns);
        let mut yields: Vec<u64> = stats.demands.iter().map(|d| d.total_yield.raw()).collect();
        yields.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = yields.iter().sum();
        let top: u64 = yields.iter().take(15).sum();
        assert!(top as f64 / total as f64 > 0.5);
    }
}
