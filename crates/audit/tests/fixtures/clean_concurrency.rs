//! Known-clean fixture: the state type is built from Sync components.

use std::sync::atomic::AtomicU64;

pub struct CacheState {
    entries: Vec<u64>,
    epoch: AtomicU64,
}

pub struct ReplayTrace {
    slices: Vec<(u32, u64)>,
}
