//! A semantic (query-result) cache baseline.
//!
//! The paper's §6.1 weighs semantic caching — caching *query results* and
//! answering later queries by containment — and rejects it for astronomy
//! workloads: "we find that astronomy workloads do not exhibit query reuse
//! and query containment upon which semantic caching relies." This module
//! implements the baseline so that claim is measurable rather than
//! asserted.
//!
//! The cache stores the results of past queries keyed by the data items
//! they touched. Following the paper's workload-based containment notion
//! ("object identifiers of the next query should be satisfied by object
//! identifiers of the previous queries"), a query is a **hit** when every
//! data key it touches is covered by cached results; anything else goes to
//! the servers, and its result is admitted (evicting whole past results,
//! LRU) if it fits. Unlike bypass-yield caching there is no rent-to-buy
//! decision — result admission is free because the result already crossed
//! the network.
//!
//! With no per-object decision there is no tier policy either, so the
//! cache does not run the replay kernel: it prices each query's outcome
//! itself, slice by slice, on the same object view and network model.

use crate::engine::{for_each_slice, Unresolved};
use crate::network::NetworkModel;
use byc_catalog::ObjectCatalog;
use byc_types::{Bytes, QueryId};
use byc_workload::{Trace, TraceQuery};
use std::collections::{HashMap, VecDeque};

/// Outcome statistics of replaying a trace through a semantic cache.
#[derive(Clone, Debug, PartialEq)]
pub struct SemanticReport {
    /// Queries replayed.
    pub queries: usize,
    /// Queries answered entirely from cached results.
    pub hits: u64,
    /// Total result bytes delivered.
    pub sequence_cost: Bytes,
    /// WAN bytes (results shipped for misses; hits are free).
    pub total_cost: Bytes,
    /// Fraction of queries that were hits.
    pub hit_rate: f64,
    /// Fraction of delivered bytes served from cache.
    pub byte_hit_rate: f64,
    /// Problems the replay worked around: trace references that name no
    /// object in the catalog, worded as a session replay words them.
    pub warnings: Vec<String>,
}

/// A query-result cache with key-coverage containment and LRU eviction.
#[derive(Clone, Debug)]
pub struct SemanticCache {
    capacity: Bytes,
    used: Bytes,
    /// Cached results in arrival order (front = oldest).
    entries: VecDeque<(QueryId, Bytes)>,
    /// Which cached entries cover each data key (reference counts).
    coverage: HashMap<u64, u32>,
    /// Keys of each cached entry.
    entry_keys: HashMap<QueryId, Vec<u64>>,
}

impl SemanticCache {
    /// An empty result cache.
    pub fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            used: Bytes::ZERO,
            entries: VecDeque::new(),
            coverage: HashMap::new(),
            entry_keys: HashMap::new(),
        }
    }

    /// Bytes of cached results.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no results are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True iff every data key of `query` is covered by cached results —
    /// the workload-based containment test of paper §6.1.
    pub fn contains_query(&self, query: &TraceQuery) -> bool {
        !query.data_keys.is_empty()
            && query
                .data_keys
                .iter()
                .all(|k| self.coverage.contains_key(k))
    }

    fn evict_oldest(&mut self) {
        if let Some((id, size)) = self.entries.pop_front() {
            self.used -= size;
            if let Some(keys) = self.entry_keys.remove(&id) {
                for k in keys {
                    if let Some(count) = self.coverage.get_mut(&k) {
                        *count -= 1;
                        if *count == 0 {
                            self.coverage.remove(&k);
                        }
                    }
                }
            }
        }
    }

    /// Admit a (miss) query's result.
    pub fn admit(&mut self, query: &TraceQuery) {
        if query.total_yield > self.capacity || query.data_keys.is_empty() {
            return; // uncacheable
        }
        while self.used + query.total_yield > self.capacity {
            self.evict_oldest();
        }
        self.entries.push_back((query.id, query.total_yield));
        self.used += query.total_yield;
        // Sort + dedup instead of a HashSet: the stored per-entry key
        // list (and anything derived from it) must replay identically
        // across runs, and hash iteration order is seed-dependent.
        let mut keys: Vec<u64> = query.data_keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        for &k in &keys {
            *self.coverage.entry(k).or_insert(0) += 1;
        }
        self.entry_keys.insert(query.id, keys);
    }

    /// Replay a whole trace and report hit rates and WAN cost.
    ///
    /// The semantic cache decides at *query* level: containment makes
    /// the whole result a hit, or every slice of it ships from its home
    /// server, priced by `network` over that server's link. Slices are
    /// the query's objects at the granularity of `objects`; references
    /// that name no object are skipped, as in every replay, and counted
    /// in the report's warnings.
    pub fn replay(
        mut self,
        trace: &Trace,
        objects: &ObjectCatalog,
        network: &dyn NetworkModel,
    ) -> SemanticReport {
        let mut hits = 0u64;
        let (mut sequence_cost, mut cache_served, mut total_cost) =
            (Bytes::ZERO, Bytes::ZERO, Bytes::ZERO);
        let mut skipped = Unresolved::default();
        for q in &trace.queries {
            let hit = self.contains_query(q);
            if hit {
                hits += 1;
            } else {
                self.admit(q);
            }
            skipped.add(for_each_slice(q, objects, |object, raw_yield| {
                sequence_cost += raw_yield;
                if hit {
                    cache_served += raw_yield;
                } else {
                    total_cost += network.price(objects.info(object).server, raw_yield);
                }
            }));
        }
        SemanticReport {
            queries: trace.len(),
            hits,
            sequence_cost,
            total_cost,
            hit_rate: if trace.is_empty() {
                0.0
            } else {
                hits as f64 / trace.len() as f64
            },
            byte_hit_rate: if sequence_cost.is_zero() {
                0.0
            } else {
                cache_served.as_f64() / sequence_cost.as_f64()
            },
            warnings: skipped.warning(objects.granularity()).into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PerServerMultipliers, Uniform};
    use byc_catalog::{Catalog, ColumnDef, ColumnType, Granularity, TableDef};
    use byc_types::{ColumnId, ServerId, TableId};

    /// A one-table catalog whose table 0 / column 0 back the hand-made
    /// queries below.
    fn objects() -> ObjectCatalog {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "A".into(),
            columns: vec![ColumnDef::new("k", ColumnType::BigInt)],
            row_count: 10,
            server: ServerId::new(0),
        })
        .unwrap();
        ObjectCatalog::uniform(&cat, Granularity::Table)
    }

    fn query(id: u32, keys: Vec<u64>, yld: u64) -> TraceQuery {
        TraceQuery {
            id: QueryId::new(id),
            sql: String::new(),
            template: 0,
            data_keys: keys,
            tables: vec![TableId::new(0)],
            columns: vec![ColumnId::new(0)],
            total_yield: Bytes::new(yld),
            table_yields: vec![(TableId::new(0), Bytes::new(yld))],
            column_yields: vec![(ColumnId::new(0), Bytes::new(yld))],
        }
    }

    fn trace(queries: Vec<TraceQuery>) -> Trace {
        Trace {
            name: "t".into(),
            seed: 0,
            queries,
        }
    }

    #[test]
    fn repeat_query_hits() {
        let t = trace(vec![query(0, vec![7], 100), query(1, vec![7], 100)]);
        let report = SemanticCache::new(Bytes::new(1000)).replay(&t, &objects(), &Uniform);
        assert_eq!(report.hits, 1);
        assert_eq!(report.total_cost, Bytes::new(100));
        assert!((report.hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn misses_ship_at_their_home_links_price() {
        // Two tables on two servers; server 1's link costs 3x.
        let mut cat = Catalog::new();
        for (name, server) in [("A", 0), ("B", 1)] {
            cat.add_table(TableDef {
                name: name.into(),
                columns: vec![ColumnDef::new("k", ColumnType::BigInt)],
                row_count: 10,
                server: ServerId::new(server),
            })
            .unwrap();
        }
        let objects = ObjectCatalog::uniform(&cat, Granularity::Table);
        let mut q = query(0, vec![7], 400);
        q.table_yields = vec![
            (TableId::new(0), Bytes::new(100)),
            (TableId::new(1), Bytes::new(300)),
        ];
        let mut repeat = q.clone();
        repeat.id = QueryId::new(1);
        let net = PerServerMultipliers::new(vec![1.0, 3.0]).unwrap();
        let report =
            SemanticCache::new(Bytes::new(1000)).replay(&trace(vec![q, repeat]), &objects, &net);
        assert_eq!(report.hits, 1);
        assert_eq!(report.sequence_cost, Bytes::new(800));
        // The miss ships 100 B at 1x and 300 B at 3x; the repeat is free.
        assert_eq!(report.total_cost, Bytes::new(1000));
        assert!((report.byte_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unresolved_references_are_reported() {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "A".into(),
            columns: vec![ColumnDef::new("k", ColumnType::BigInt)],
            row_count: 10,
            server: ServerId::new(0),
        })
        .unwrap();
        let columns = ObjectCatalog::uniform(&cat, Granularity::Column);
        // Column 7 is not in the catalog.
        let mut q = query(0, vec![7], 150);
        q.column_yields = vec![
            (ColumnId::new(0), Bytes::new(100)),
            (ColumnId::new(7), Bytes::new(50)),
        ];
        let report =
            SemanticCache::new(Bytes::new(1000)).replay(&trace(vec![q]), &columns, &Uniform);
        assert_eq!(report.sequence_cost, Bytes::new(100));
        assert_eq!(report.total_cost, Bytes::new(100));
        assert_eq!(
            report.warnings,
            [Unresolved {
                refs: 1,
                bytes: Bytes::new(50)
            }
            .warning(Granularity::Column)
            .unwrap()]
        );
        assert!(report.warnings[0].contains("name no column"));

        let clean = SemanticCache::new(Bytes::new(1000)).replay(
            &trace(vec![query(0, vec![7], 100)]),
            &objects(),
            &Uniform,
        );
        assert!(clean.warnings.is_empty());
    }

    #[test]
    fn subset_query_is_contained() {
        // A refinement (keys ⊆ earlier keys) hits — the containment the
        // paper describes.
        let t = trace(vec![query(0, vec![1, 2, 3], 300), query(1, vec![2], 50)]);
        let report = SemanticCache::new(Bytes::new(1000)).replay(&t, &objects(), &Uniform);
        assert_eq!(report.hits, 1);
    }

    #[test]
    fn disjoint_queries_never_hit() {
        let t = trace((0..20).map(|i| query(i, vec![i as u64], 10)).collect());
        let report = SemanticCache::new(Bytes::new(1000)).replay(&t, &objects(), &Uniform);
        assert_eq!(report.hits, 0);
        assert_eq!(report.total_cost, report.sequence_cost);
    }

    #[test]
    fn lru_eviction_drops_coverage() {
        let mut cache = SemanticCache::new(Bytes::new(150));
        cache.admit(&query(0, vec![1], 100));
        assert!(cache.contains_query(&query(9, vec![1], 1)));
        cache.admit(&query(1, vec![2], 100)); // evicts query 0
        assert!(!cache.contains_query(&query(9, vec![1], 1)));
        assert!(cache.contains_query(&query(9, vec![2], 1)));
        assert_eq!(cache.len(), 1);
        assert!(cache.used() <= Bytes::new(150));
    }

    #[test]
    fn oversized_results_not_admitted() {
        let mut cache = SemanticCache::new(Bytes::new(50));
        cache.admit(&query(0, vec![1], 100));
        assert!(cache.is_empty());
    }

    #[test]
    fn keyless_queries_never_hit_nor_cache() {
        let mut cache = SemanticCache::new(Bytes::new(100));
        let q = query(0, vec![], 10);
        assert!(!cache.contains_query(&q));
        cache.admit(&q);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_keys_survive_partial_eviction() {
        let mut cache = SemanticCache::new(Bytes::new(250));
        cache.admit(&query(0, vec![5], 100));
        cache.admit(&query(1, vec![5, 6], 100));
        // Evicting query 0 must keep key 5 covered (query 1 still has it).
        cache.admit(&query(2, vec![7], 100)); // evicts 0
        assert!(cache.contains_query(&query(9, vec![5], 1)));
    }

    #[test]
    fn synthetic_workload_has_negligible_semantic_hits() {
        // The paper's conclusion, measured: semantic caching barely helps
        // on SDSS-like traces even with a generous cache.
        let cat = byc_catalog::sdss::build(byc_catalog::sdss::SdssRelease::Edr, 1e-3, 1);
        let t =
            byc_workload::generate(&cat, &byc_workload::WorkloadConfig::smoke(111, 3000)).unwrap();
        let capacity = cat.database_size().scale(0.3);
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        let report = SemanticCache::new(capacity).replay(&t, &objects, &Uniform);
        assert!(
            report.byte_hit_rate < 0.35,
            "semantic byte hit rate {} unexpectedly high",
            report.byte_hit_rate
        );
    }
}
