//! Known-bad fixture: panic sites reachable from the replay-kernel
//! entry point through a two-hop call chain.

pub struct ReplayEngine {
    slots: Vec<u64>,
}

impl ReplayEngine {
    pub fn serve(&self) -> u64 {
        self.step(0)
    }

    fn step(&self, i: usize) -> u64 {
        let raw = self.slots[i];
        let head = self.slots.first().expect("non-empty");
        self.ratio(raw + *head)
    }

    fn ratio(&self, d: u64) -> u64 {
        100 / d
    }
}
