//! Federation substrate: mediator, trace replay, WAN cost accounting, and
//! parameter sweeps.
//!
//! The paper's setting (§3, Figure 1): clients query a mediator; a cache
//! collocated with the mediator serves parts of queries locally and
//! *bypasses* the rest to the back-end database servers. The network
//! traffic to minimize is the WAN flow — bypassed results (`D_S`) plus
//! cache loads (`D_L`); the client always receives the same result bytes
//! (`D_A = D_S + D_C`) regardless of caching configuration, an invariant
//! every [`session::ReplaySession`] run checks.
//!
//! * [`engine`] — the one replay kernel: `ReplayEngine` serves one
//!   query's object slices at a time through its only entry point,
//!   walking each slice up a stack of tier policies (the flat WAN is
//!   depth 1), and turns each tier policy's decision into an
//!   [`engine::CostEvent`] that composable [`engine::Observer`]s
//!   consume. Batch replays, sweeps, and the mediator all run it. One
//!   observer, [`engine::Breakdown`], folds the WAN ledger by
//!   `(window, tier, server)`; every per-server, per-tier, per-window and
//!   cumulative-series view of a replay is a view over it.
//! * [`session`] — the one replay entry point:
//!   [`session::ReplaySession`] is a fluent builder over the engine that
//!   configures one tier-policy stack, its links (a flat network or a
//!   topology), faults, auditing, and extra observers, then
//!   [`session::ReplaySession::run`]s one replay — of a resident
//!   `byc_workload::ReplayTrace` or one streamed off disk — or
//!   [`session::ReplaySession::sweep`]s a (policy × cache-size) grid on
//!   a bounded pool of worker threads.
//! * [`network`] — first-class WAN pricing: [`network::NetworkModel`]
//!   with the [`network::Uniform`] (BYU) and
//!   [`network::PerServerMultipliers`] (BYHR) regimes, and
//!   [`network::Topology`] — a tiered cache hierarchy (site → regional
//!   → origin) whose per-link pricing generalizes the flat WAN; a flat
//!   network is its single-tier degenerate case.
//! * [`faults`] — the deterministic fault layer: seeded
//!   [`faults::FaultModel`]s ([`faults::OutageWindows`],
//!   [`faults::FlakyLinks`]), [`faults::LinkScoped`] scoping of a model
//!   to one topology link, bounded [`faults::RetryPolicy`] backoff,
//!   and the [`faults::DegradationPolicy`] a replay falls back on when
//!   retries are exhausted.
//! * [`accounting`] — [`accounting::CostReport`]: the bypass/fetch/total
//!   breakdown of Tables 1–2 plus hit/bypass/load counters, retry-storm
//!   traffic, and availability under faults.
//! * [`simulator`] — replay result shapes ([`simulator::Replay`], and
//!   the [`simulator::SeriesPoint`]s of a [`engine::Breakdown`]'s
//!   cumulative series). A replay also carries observer
//!   warnings (parked telemetry IO errors).
//! * [`mediator`] — the end-to-end service: SQL text in, routed
//!   subqueries and decisions out (what the examples drive).
//! * [`policies`] — the named policy roster used by every experiment.
//! * [`semantic`] — the query-result (semantic) cache baseline the paper
//!   rejects in §6.1, implemented so the rejection is measurable. It
//!   takes no per-object decision, so it prices its hit-or-ship outcome
//!   itself instead of running the kernel.
//! * [`sweep`] — the sweep result shape ([`sweep::SweepPoint`],
//!   Figs 9–10).

#![warn(missing_docs)]

pub mod accounting;
pub mod engine;
pub mod faults;
pub mod mediator;
pub mod network;
pub mod policies;
pub mod semantic;
pub mod session;
pub mod simulator;
mod stream;
pub mod sweep;

pub use accounting::CostReport;
pub use engine::{
    AuditObserver, Breakdown, CostEvent, CostObserver, Observer, PerServerObserver, QueryWindow,
    Window,
};
pub use faults::{
    fault_context, spiked_cost, DegradationPolicy, FaultModel, FaultPlan, FetchAttempt,
    FetchOutcome, FetchResolution, FlakyLinks, LinkScoped, Outage, OutageWindows, RetryPolicy,
    NO_RETRY,
};
pub use mediator::Mediator;
pub use network::{NetworkModel, PerServerMultipliers, TierSpec, Topology, Uniform};
pub use policies::{build_policy, policy_roster, PolicyKind};
pub use semantic::{SemanticCache, SemanticReport};
pub use session::{ChunkCheck, ReplaySession, Resident};
pub use simulator::{Replay, SeriesPoint};
pub use sweep::{NoObserver, SweepOptions, SweepPoint};
