//! Object→server placement builders for multi-server federations.
//!
//! The paper's setting is a *federation* (SkyQuery, §3): each table lives
//! on one back-end server, and a query's bypassed slices route to the
//! home servers of the objects they touch. A [`Placement`] decides that
//! table→server mapping when a catalog is synthesized, which in turn
//! decides how WAN traffic splits across the federation's links — the
//! quantity the per-server network models price.

use byc_types::{Bytes, ServerId};

/// How tables are spread across the federation's servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Everything on one server (the paper's measured configuration: the
    /// traces come from the largest SkyQuery node).
    Single,
    /// Table *i* on server *i mod n*: maximal interleaving, so even a
    /// short query tends to touch several servers.
    RoundRobin(u32),
    /// Largest-first onto the least-loaded server: approximately equal
    /// bytes per server, so no single link dominates by construction.
    SizeBalanced(u32),
}

impl Placement {
    /// Number of servers this placement spreads over (at least 1).
    pub fn server_count(&self) -> u32 {
        match *self {
            Placement::Single => 1,
            Placement::RoundRobin(n) | Placement::SizeBalanced(n) => n.max(1),
        }
    }

    /// Assign a home server to each of `sizes.len()` tables. The result
    /// is in table order; `sizes` are the tables' byte sizes (only
    /// consulted by [`Placement::SizeBalanced`]). Deterministic: ties go
    /// to the lowest server id.
    // Server indexes are below `server_count()`, a `u32`: the casts back
    // are exact.
    #[allow(clippy::cast_possible_truncation)]
    pub fn assign(&self, sizes: &[Bytes]) -> Vec<ServerId> {
        let n = self.server_count() as usize;
        match *self {
            Placement::Single => vec![ServerId::new(0); sizes.len()],
            Placement::RoundRobin(_) => (0..sizes.len())
                .map(|i| ServerId::new((i % n) as u32))
                .collect(),
            Placement::SizeBalanced(_) => {
                let mut load = vec![0u64; n];
                let mut order: Vec<usize> = (0..sizes.len()).collect();
                // Stable sort: equal sizes keep table order, so the
                // assignment is reproducible.
                order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
                let mut out = vec![ServerId::new(0); sizes.len()];
                for i in order {
                    let mut best = 0usize;
                    for s in 1..n {
                        if load[s] < load[best] {
                            best = s;
                        }
                    }
                    load[best] = load[best].saturating_add(sizes[i].raw());
                    out[i] = ServerId::new(best as u32);
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(raw: &[u64]) -> Vec<Bytes> {
        raw.iter().map(|&b| Bytes::new(b)).collect()
    }

    #[test]
    fn single_puts_everything_on_server_zero() {
        let assignment = Placement::Single.assign(&sizes(&[10, 20, 30]));
        assert!(assignment.iter().all(|&s| s == ServerId::new(0)));
        assert_eq!(Placement::Single.server_count(), 1);
    }

    #[test]
    fn round_robin_interleaves() {
        let assignment = Placement::RoundRobin(3).assign(&sizes(&[1, 1, 1, 1, 1]));
        let expected: Vec<ServerId> = [0, 1, 2, 0, 1].iter().map(|&s| ServerId::new(s)).collect();
        assert_eq!(assignment, expected);
    }

    #[test]
    fn size_balanced_evens_out_load() {
        // One huge table and four small ones over two servers: the huge
        // table gets a server to itself.
        let s = sizes(&[1000, 10, 10, 10, 10]);
        let assignment = Placement::SizeBalanced(2).assign(&s);
        let big_server = assignment[0];
        for &a in &assignment[1..] {
            assert_ne!(a, big_server);
        }
    }

    #[test]
    fn size_balanced_is_deterministic() {
        let s = sizes(&[50, 50, 50, 50, 50, 50]);
        let a = Placement::SizeBalanced(3).assign(&s);
        let b = Placement::SizeBalanced(3).assign(&s);
        assert_eq!(a, b);
        // All three servers get used on equal sizes.
        for srv in 0..3u32 {
            assert!(a.contains(&ServerId::new(srv)));
        }
    }

    #[test]
    fn zero_server_count_clamps_to_one() {
        assert_eq!(Placement::RoundRobin(0).server_count(), 1);
        let assignment = Placement::SizeBalanced(0).assign(&sizes(&[5, 5]));
        assert!(assignment.iter().all(|&s| s == ServerId::new(0)));
    }
}
