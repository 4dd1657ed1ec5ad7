//! Known-clean fixture: the same call shape as `bad_reach.rs`, with
//! every panic site replaced by a total operation.

pub struct ReplayEngine {
    slots: Vec<u64>,
}

impl ReplayEngine {
    pub fn serve(&self) -> u64 {
        self.step(0)
    }

    fn step(&self, i: usize) -> u64 {
        let raw = self.slots.get(i).copied().unwrap_or(0);
        let head = self.slots.first().copied().unwrap_or(0);
        self.ratio(raw + head)
    }

    fn ratio(&self, d: u64) -> u64 {
        d.saturating_mul(2)
    }
}
