//! The trace model: a replayable sequence of analyzed queries with
//! precomputed yields.

use byc_types::{Bytes, ColumnId, QueryId, TableId};

/// One query of a trace, fully analyzed: the mediator needs only the
/// referenced objects and the yield decomposition to replay it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceQuery {
    /// Position in the trace (doubles as the virtual clock).
    pub id: QueryId,
    /// The query text (round-trips through the SQL substrate).
    pub sql: String,
    /// Template the generator drew this query from (workload analysis).
    pub template: u32,
    /// Identifiers of the data items the query touches (celestial object
    /// ids for identity queries, sky-region cells for range queries);
    /// used by the query-containment analysis (Fig. 4).
    pub data_keys: Vec<u64>,
    /// Referenced tables.
    pub tables: Vec<TableId>,
    /// Referenced columns (projection + predicates + joins).
    pub columns: Vec<ColumnId>,
    /// Total result size on the wire.
    pub total_yield: Bytes,
    /// Yield decomposed over tables (sums to `total_yield`).
    pub table_yields: Vec<(TableId, Bytes)>,
    /// Yield decomposed over columns (sums to `total_yield`).
    pub column_yields: Vec<(ColumnId, Bytes)>,
}

/// A replayable query trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Human-readable name ("EDR", "DR1", ...).
    pub name: String,
    /// Generator seed (0 for external traces).
    pub seed: u64,
    /// Queries in arrival order.
    pub queries: Vec<TraceQuery>,
}

impl Trace {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff the trace has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The *sequence cost*: total result bytes shipped when every query is
    /// evaluated at the servers (the no-caching baseline of §6.2).
    pub fn sequence_cost(&self) -> Bytes {
        self.queries.iter().map(|q| q.total_yield).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, yld: u64) -> TraceQuery {
        TraceQuery {
            id: QueryId::new(id as u32),
            sql: format!("select x from T -- {id}"),
            template: 0,
            data_keys: vec![id],
            tables: vec![TableId::new(0)],
            columns: vec![ColumnId::new(0)],
            total_yield: Bytes::new(yld),
            table_yields: vec![(TableId::new(0), Bytes::new(yld))],
            column_yields: vec![(ColumnId::new(0), Bytes::new(yld))],
        }
    }

    #[test]
    fn sequence_cost_sums_yields() {
        let t = Trace {
            name: "test".into(),
            seed: 1,
            queries: vec![q(0, 10), q(1, 20), q(2, 30)],
        };
        assert_eq!(t.sequence_cost(), Bytes::new(60));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace() {
        let t = Trace {
            name: "empty".into(),
            seed: 0,
            queries: vec![],
        };
        assert!(t.is_empty());
        assert_eq!(t.sequence_cost(), Bytes::ZERO);
    }
}
