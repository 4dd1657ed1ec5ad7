//! Known-bad fixture: non-thread-shareable building blocks in a state
//! type, plus unsynchronized and per-thread global state.

use std::cell::RefCell;
use std::rc::Rc;

pub struct CacheState {
    entries: Rc<Vec<u64>>,
    scratch: RefCell<Vec<u64>>,
    tag: *mut u8,
}

static mut GLOBAL_EPOCH: u64 = 0;

thread_local! {
    static SCRATCH: Vec<u64> = Vec::new();
}

pub struct ReplayTrace {
    slices: Vec<(u32, u64)>,
}
