//! Compile-time Send + Sync assertions for every type a multi-threaded
//! sweep shares across worker threads: the cache state, the replay trace
//! every sweep worker reads, and all concrete policy/algorithm types.
//! (The replay kernel is crate-private; its own assertion sits in its
//! unit tests.)
//!
//! byc-audit's concurrency pass requires this file to name each
//! shareable type in an `assert_send_sync::<T>()` call; removing an
//! assertion (or adding a policy type without one) fails the audit.

use byc_core::bypass_object::{Landlord, SizeClassMarking};
use byc_core::inline::{
    GdStarRule, GdsRule, GdspRule, InlineCache, LffRule, LfuRule, LruKRule, LruRule,
};
use byc_core::online::OnlineBY;
use byc_core::rate_profile::RateProfile;
use byc_core::spaceeff::SpaceEffBY;
use byc_core::static_opt::{NoCache, StaticCache};
use byc_core::CacheState;
use byc_federation::policies::UniformCostAdapter;
use byc_federation::{Breakdown, FlakyLinks, LinkScoped, Topology};
use byc_workload::ReplayTrace;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_state_is_send_sync() {
    // Core replay state shared (read-only or partitioned) across workers.
    assert_send_sync::<CacheState>();
    // Every worker of a sweep replays the one resident replay trace.
    assert_send_sync::<ReplayTrace>();
}

#[test]
fn topology_stack_is_send_sync() {
    // A tiered sweep shares the topology read-only across every
    // (policy × fraction) worker; per-tier state is partitioned per job
    // but must still cross the spawn boundary.
    assert_send_sync::<Topology>();
    assert_send_sync::<Breakdown>();
    assert_send_sync::<LinkScoped<FlakyLinks>>();
}

#[test]
fn policies_are_send_sync() {
    // All 13 shipped policies as `build_policy` instantiates them.
    assert_send_sync::<RateProfile>();
    assert_send_sync::<OnlineBY<Landlord>>();
    assert_send_sync::<OnlineBY<SizeClassMarking>>();
    assert_send_sync::<SpaceEffBY<Landlord>>();
    assert_send_sync::<InlineCache<GdsRule>>();
    assert_send_sync::<InlineCache<GdspRule>>();
    assert_send_sync::<InlineCache<LruRule>>();
    assert_send_sync::<InlineCache<LfuRule>>();
    assert_send_sync::<InlineCache<LruKRule>>();
    assert_send_sync::<InlineCache<LffRule>>();
    assert_send_sync::<InlineCache<GdStarRule>>();
    assert_send_sync::<StaticCache>();
    assert_send_sync::<NoCache>();
    // The bare algorithms and the wrappers policies ride in.
    assert_send_sync::<Landlord>();
    assert_send_sync::<SizeClassMarking>();
    assert_send_sync::<UniformCostAdapter<StaticCache>>();
}
