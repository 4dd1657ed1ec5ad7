//! Table→server placement for multi-server federations.
//!
//! The paper's setting is a *federation* (SkyQuery, §3): each table lives
//! on one back-end server, and a query's bypassed slices route to the
//! home servers of the objects they touch. [`round_robin`] decides that
//! table→server mapping when [`crate::sdss::build`] synthesizes a
//! catalog, which in turn decides how WAN traffic splits across the
//! federation's links — the quantity the per-server network models
//! price.

use byc_types::ServerId;

/// The home server of table `table` in a federation of `servers`
/// servers: table *i* on server *i mod n*, maximal interleaving, so even
/// a short query tends to touch several servers. Zero servers count as
/// one.
pub fn round_robin(table: u32, servers: u32) -> ServerId {
    ServerId::new(table % servers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves() {
        let assignment: Vec<ServerId> = (0..5).map(|t| round_robin(t, 3)).collect();
        let expected: Vec<ServerId> = [0, 1, 2, 0, 1].iter().map(|&s| ServerId::new(s)).collect();
        assert_eq!(assignment, expected);
    }

    #[test]
    fn zero_server_count_clamps_to_one() {
        assert!((0..3).all(|t| round_robin(t, 0) == ServerId::new(0)));
    }
}
