//! Bypass-yield caching: the paper's contribution.
//!
//! This crate implements the bypass-yield caching model of Malik, Burns &
//! Chaudhary (ICDE 2005) and every algorithm the paper evaluates:
//!
//! * the **yield model** and its metrics — byte-yield hit rate (BYHR) and
//!   byte-yield utility (BYU) ([`metrics`]);
//! * the workload-driven **Rate-Profile** algorithm with rate profiles,
//!   load-adjusted rates, and episode heuristics ([`rate_profile`]);
//! * the k-competitive **OnlineBY** algorithm — per-object ski rental
//!   feeding a bypass-object caching subroutine ([`online`],
//!   [`bypass_object`]);
//! * the randomized, O(1)-extra-space **SpaceEffBY** ([`spaceeff`]);
//! * the comparison policies — in-line (no-bypass) GDS, GDSP, LRU, LFU,
//!   LRU-K ([`inline`]), static-optimal caching, and no caching
//!   ([`static_opt`]);
//! * an offline, capacity-relaxed lower bound on any policy's WAN cost
//!   ([`offline`]);
//! * a runtime decision-stream auditor that validates any policy's
//!   `Hit`/`Bypass`/`Load` answers against a shadow cache model
//!   ([`audit`]).
//!
//! All policies implement [`policy::CachePolicy`]: the simulator presents
//! one [`access::Access`] per (query, object) pair — carrying the object's
//! size, fetch cost, and the yield the query attributes to it — and the
//! policy answers with a [`policy::Decision`] (`Hit`, `Bypass`, or `Load`).
//! The federation crate turns decisions into WAN-traffic accounting.
//!
//! # Quick example
//!
//! ```
//! use byc_core::access::Access;
//! use byc_core::policy::{CachePolicy, Decision};
//! use byc_core::rate_profile::{RateProfile, RateProfileConfig};
//! use byc_types::{Bytes, ObjectId, Tick};
//!
//! let mut policy = RateProfile::new(Bytes::mib(64), RateProfileConfig::default());
//! let access = Access {
//!     object: ObjectId::new(0),
//!     time: Tick::new(0),
//!     yield_bytes: Bytes::mib(1),
//!     size: Bytes::mib(16),
//!     fetch_cost: Bytes::mib(16),
//! };
//! // A cold cache bypasses a first-seen object: its expected savings rate
//! // cannot yet justify paying the 16 MiB load cost.
//! assert_eq!(policy.on_access(&access), Decision::Bypass);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod audit;
pub mod bypass_object;
pub mod cache;
pub mod dense;
pub mod heap;
pub mod inline;
pub mod metrics;
pub mod offline;
pub mod online;
pub mod policy;
pub mod rate_profile;
pub mod spaceeff;
pub mod static_opt;

pub use access::Access;
pub use cache::CacheState;
pub use dense::DenseMap;
pub use heap::{IndexedMinHeap, SelectionHeap};
pub use metrics::{byhr, byu, QueryProfile};
pub use policy::{CachePolicy, Decision};
