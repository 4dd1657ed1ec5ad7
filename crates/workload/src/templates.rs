//! Query templates: the schema-level shapes SDSS traces are built from.
//!
//! The paper observes (§6.1) that astronomy workloads exhibit *schema*
//! reuse — "conducting queries with similar schema against different
//! data. For example, a common query iterates over regions of the sky
//! looking for objects with specific properties." Each template here is
//! one such shape; a generator *session* instantiates a template with a
//! fixed column subset and sweeps its parameters query by query.

use byc_sql::{Aggregate, ColumnRef, CompareOp, Predicate, Query, SelectItem, TableRef, Value};
use byc_types::SplitMix64;

/// The template catalog. Order matters: the generator draws templates
/// from a Zipf distribution over this list, so earlier templates are more
/// popular.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Proximity list lookup over a `Neighbors` objID range.
    NeighborsRange,
    /// Sky-region scan over the `Galaxy` class view.
    GalaxyRange,
    /// Spectral-line scan over `SpecLineIndex` by wavelength.
    SpecLineScan,
    /// Photometric-redshift range scan over `PhotoZ`.
    PhotoZRange,
    /// Sky-region scan over the `Star` class view.
    StarRange,
    /// Region (cone-search) query over the full `PhotoObj`.
    PhotoRange,
    /// Redshift range scan over `SpecObj`.
    SpecRange,
    /// The paper's §6 example: `PhotoObj ⋈ SpecObj` with quality cuts.
    PhotoSpecJoin,
    /// Survey-operations scan over one of the tail tables — large object,
    /// small yield: the query class that punishes in-line caching.
    TailScan,
    /// Identity query: one object by `objID`.
    Identity,
    /// `COUNT(*)` aggregate over a `PhotoObj` region.
    PhotoAggregate,
    /// Observing-metadata scan over `Field`.
    FieldScan,
}

/// All templates in popularity (Zipf rank) order.
pub const ALL_TEMPLATES: &[TemplateKind] = &[
    TemplateKind::NeighborsRange,
    TemplateKind::GalaxyRange,
    TemplateKind::SpecLineScan,
    TemplateKind::PhotoZRange,
    TemplateKind::StarRange,
    TemplateKind::PhotoRange,
    TemplateKind::SpecRange,
    TemplateKind::PhotoSpecJoin,
    TemplateKind::TailScan,
    TemplateKind::Identity,
    TemplateKind::PhotoAggregate,
    TemplateKind::FieldScan,
];

impl TemplateKind {
    /// Dense template index (position in [`ALL_TEMPLATES`]).
    ///
    /// [`ALL_TEMPLATES`] lists the variants in declaration order, so the
    /// discriminant *is* the position — `templates_round_trip` pins that
    /// invariant.
    pub fn index(self) -> u32 {
        self as u32
    }

    /// The candidate projection columns of the template's primary table,
    /// in popularity order (the generator Zipf-samples a subset).
    pub fn projection_pool(self) -> &'static [&'static str] {
        match self {
            TemplateKind::PhotoRange | TemplateKind::PhotoAggregate | TemplateKind::Identity => &[
                "objID",
                "ra",
                "dec",
                "modelMag_r",
                "modelMag_g",
                "type",
                "modelMag_i",
                "petroRad_r",
                "modelMag_u",
                "modelMag_z",
                "psfMag_r",
                "flags",
                "petroR50_r",
                "extinction_r",
                "fracDeV_r",
                "probPSF",
            ],
            TemplateKind::NeighborsRange => {
                &["neighborObjID", "distance", "neighborType", "neighborMode"]
            }
            TemplateKind::GalaxyRange | TemplateKind::StarRange => &[
                "objID",
                "ra",
                "dec",
                "modelMag_r",
                "modelMag_g",
                "petroMag_r",
                "modelMag_i",
                "petroRad_r",
                "petroR50_r",
                "fracDeV_r",
                "psfMag_r",
                "type",
            ],
            TemplateKind::TailScan => &["objID", "val_a", "val_b", "flag", "mjd"],
            TemplateKind::PhotoZRange => &["objID", "z", "zErr", "tClass", "chiSq", "quality"],
            TemplateKind::SpecLineScan => &[
                "specObjID",
                "wave",
                "ew",
                "height",
                "sigma",
                "ewErr",
                "lineID",
            ],
            TemplateKind::PhotoSpecJoin => &[
                "objID",
                "ra",
                "dec",
                "modelMag_g",
                "modelMag_r",
                "petroMag_r",
            ],
            TemplateKind::SpecRange => &[
                "specObjID",
                "z",
                "zConf",
                "specClass",
                "plate",
                "mjd",
                "fiberID",
                "velDisp",
            ],
            TemplateKind::FieldScan => &["fieldID", "run", "camcol", "field", "quality", "mjd"],
        }
    }

    /// Primary table name. [`TemplateKind::TailScan`] sessions pick one
    /// of [`byc_catalog::sdss::TAIL_TABLES`] instead.
    pub fn table(self) -> &'static str {
        match self {
            TemplateKind::PhotoRange
            | TemplateKind::PhotoAggregate
            | TemplateKind::Identity
            | TemplateKind::PhotoSpecJoin => "PhotoObj",
            TemplateKind::GalaxyRange => "Galaxy",
            TemplateKind::StarRange => "Star",
            TemplateKind::NeighborsRange => "Neighbors",
            TemplateKind::PhotoZRange => "PhotoZ",
            TemplateKind::SpecLineScan => "SpecLineIndex",
            TemplateKind::SpecRange => "SpecObj",
            TemplateKind::TailScan => "Frame",
            TemplateKind::FieldScan => "Field",
        }
    }

    /// Median base range selectivity (fraction of the primary table a
    /// session's queries select). The generator draws each session's base
    /// selectivity log-normally around this median; values are calibrated
    /// so synthesized traces land near the paper's published sequence
    /// costs (mean yield ≈ 45 MB per query — see EXPERIMENTS.md).
    pub fn median_selectivity(self) -> f64 {
        match self {
            TemplateKind::NeighborsRange => 0.0022,
            TemplateKind::GalaxyRange => 0.0216,
            TemplateKind::SpecLineScan => 0.0074,
            TemplateKind::PhotoZRange => 0.0084,
            TemplateKind::StarRange => 0.0356,
            TemplateKind::PhotoRange => 0.0014,
            TemplateKind::SpecRange => 0.075,
            TemplateKind::PhotoSpecJoin => 0.08,
            TemplateKind::TailScan => 0.0011,
            TemplateKind::Identity => 1e-9,
            TemplateKind::PhotoAggregate => 0.001,
            TemplateKind::FieldScan => 0.15,
        }
    }

    /// Multiplier on the generator's mean session length. Tail scans come
    /// in short QA bursts; everything else uses the configured mean.
    pub fn session_len_factor(self) -> f64 {
        match self {
            TemplateKind::TailScan => 0.05,
            _ => 1.0,
        }
    }
}

/// Per-session parameters: one template instantiated with a fixed column
/// subset and a sweeping region.
#[derive(Clone, Debug)]
pub struct Session {
    /// The template.
    pub kind: TemplateKind,
    /// The primary table this session scans (differs from
    /// `kind.table()` only for [`TemplateKind::TailScan`]).
    pub table: &'static str,
    /// Chosen projection columns (names from the template pool).
    pub columns: Vec<&'static str>,
    /// Base fraction of the primary table each query selects.
    pub base_selectivity: f64,
    /// Region cursor in `[0, 1)`: advances every query so consecutive
    /// queries touch *different* data with the *same* schema.
    pub cursor: f64,
    /// Cursor step per query.
    pub step: f64,
}

/// Data produced when a session instantiates one query.
#[derive(Clone, Debug)]
pub struct BuiltQuery {
    /// The query AST.
    pub query: Query,
    /// Identifiers of the data the query touches (for containment
    /// analysis): discretized region cells or object ids.
    pub data_keys: Vec<u64>,
}

fn col(q: &str, c: &str) -> ColumnRef {
    ColumnRef::qualified(q, c)
}

fn items(alias: &str, names: &[&str]) -> Vec<SelectItem> {
    names
        .iter()
        .map(|n| SelectItem::Column {
            column: col(alias, n),
            alias: None,
        })
        .collect()
}

/// A range `[lo, lo + frac·span)` positioned by `cursor` within a domain.
fn window(domain: (f64, f64), frac: f64, cursor: f64) -> (f64, f64) {
    let (min, max) = domain;
    let span = max - min;
    let width = (frac * span).min(span);
    let lo = min + cursor * (span - width).max(0.0);
    (lo, lo + width)
}

/// Discretized cell keys covered by a range (for containment analysis).
fn region_keys(table_tag: u64, domain: (f64, f64), lo: f64, hi: f64) -> Vec<u64> {
    const CELLS: f64 = 4096.0;
    let (min, max) = domain;
    let span = (max - min).max(f64::MIN_POSITIVE);
    // `lo` and `hi` lie in the domain, so both cells are in 0..=4096.
    #[allow(clippy::cast_possible_truncation)]
    let (a, b) = (
        (((lo - min) / span) * CELLS).floor() as u64,
        (((hi - min) / span) * CELLS).ceil() as u64,
    );
    // Cap the enumeration; a handful of keys suffices for reuse analysis.
    (a..=b.min(a + 3)).map(|c| table_tag << 16 | c).collect()
}

impl Session {
    /// Build the next query of this session and advance the cursor.
    pub fn next_query(&mut self, rng: &mut SplitMix64) -> BuiltQuery {
        // Per-query jitter keeps yields varied within a session.
        let jitter = 0.5 + rng.next_f64();
        let frac = (self.base_selectivity * jitter).clamp(1e-9, 0.9);
        let cursor = self.cursor;
        self.cursor = (self.cursor + self.step).fract();

        match self.kind {
            TemplateKind::PhotoRange => self.photo_range(frac, cursor, rng),
            TemplateKind::NeighborsRange => {
                self.keyed_range(frac, cursor, self.table, "objID", (0.0, 1e18), 1)
            }
            TemplateKind::GalaxyRange => {
                self.keyed_range(frac, cursor, self.table, "ra", (0.0, 360.0), 7)
            }
            TemplateKind::StarRange => {
                self.keyed_range(frac, cursor, self.table, "ra", (0.0, 360.0), 8)
            }
            TemplateKind::PhotoZRange => {
                self.keyed_range(frac, cursor, self.table, "z", (0.0, 2.0), 2)
            }
            TemplateKind::SpecLineScan => {
                self.keyed_range(frac, cursor, self.table, "wave", (3800.0, 9200.0), 3)
            }
            TemplateKind::PhotoSpecJoin => self.photo_spec_join(frac, cursor, rng),
            TemplateKind::SpecRange => {
                self.keyed_range(frac, cursor, self.table, "z", (0.0, 6.0), 4)
            }
            TemplateKind::TailScan => {
                // Tag tail keys by table (FNV-1a over the name) so reuse
                // analysis never conflates different tail tables.
                let tag = 16
                    + self.table.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                    }) % 4096;
                self.keyed_range(frac, cursor, self.table, "mjd", (50000.0, 60000.0), tag)
            }
            TemplateKind::Identity => self.identity(rng),
            TemplateKind::PhotoAggregate => self.photo_aggregate(frac, cursor),
            TemplateKind::FieldScan => {
                self.keyed_range(frac, cursor, self.table, "mjd", (50000.0, 60000.0), 5)
            }
        }
    }

    fn photo_range(&self, frac: f64, cursor: f64, rng: &mut SplitMix64) -> BuiltQuery {
        // Two-dimensional sky window with a 2:1 RA:dec aspect in fraction
        // space, sized so the window's area fraction equals `frac`.
        let dec_frac = (frac / 2.0).sqrt().min(1.0);
        let ra_frac = (2.0 * frac).sqrt().min(1.0);
        let (ra_lo, ra_hi) = window((0.0, 360.0), ra_frac, cursor);
        let dec_cursor = rng.next_f64();
        let (dec_lo, dec_hi) = window((-90.0, 90.0), dec_frac, dec_cursor);
        let mut predicates = vec![
            Predicate::Between {
                column: col("p", "ra"),
                lo: ra_lo,
                hi: ra_hi,
            },
            Predicate::Between {
                column: col("p", "dec"),
                lo: dec_lo,
                hi: dec_hi,
            },
        ];
        // Occasional magnitude cut (half-open range keeps selectivity
        // estimable without changing the region fraction materially).
        if rng.chance(0.4) {
            predicates.push(Predicate::Compare {
                column: col("p", "modelMag_r"),
                op: CompareOp::Lt,
                value: Value::Number(26.2),
            });
        }
        let query = Query {
            top: None,
            projection: items("p", &self.columns),
            from: vec![TableRef::aliased("PhotoObj", "p")],
            predicates,
        };
        let data_keys = region_keys(1, (0.0, 360.0), ra_lo, ra_hi);
        BuiltQuery { query, data_keys }
    }

    fn keyed_range(
        &self,
        frac: f64,
        cursor: f64,
        table: &str,
        range_col: &str,
        domain: (f64, f64),
        tag: u64,
    ) -> BuiltQuery {
        let (lo, hi) = window(domain, frac, cursor);
        let alias = "t";
        let query = Query {
            top: None,
            projection: items(alias, &self.columns),
            from: vec![TableRef::aliased(table, alias)],
            predicates: vec![Predicate::Between {
                column: col(alias, range_col),
                lo,
                hi,
            }],
        };
        let data_keys = region_keys(tag, domain, lo, hi);
        BuiltQuery { query, data_keys }
    }

    fn photo_spec_join(&self, frac: f64, cursor: f64, rng: &mut SplitMix64) -> BuiltQuery {
        // The paper's exemplar: photometry joined to spectroscopy with
        // class and confidence cuts, over a sweeping redshift window.
        let (z_lo, z_hi) = window((0.0, 6.0), frac, cursor);
        let mut projection = items("p", &self.columns);
        projection.push(SelectItem::Column {
            column: col("s", "z"),
            alias: Some("redshift".into()),
        });
        let spec_class = rng.next_bounded(6) as f64;
        let query = Query {
            top: None,
            projection,
            from: vec![
                TableRef::aliased("SpecObj", "s"),
                TableRef::aliased("PhotoObj", "p"),
            ],
            predicates: vec![
                Predicate::Join {
                    left: col("p", "objID"),
                    right: col("s", "objID"),
                },
                Predicate::Compare {
                    column: col("s", "specClass"),
                    op: CompareOp::Eq,
                    value: Value::Number(spec_class),
                },
                Predicate::Compare {
                    column: col("s", "zConf"),
                    op: CompareOp::Gt,
                    value: Value::Number(0.95),
                },
                Predicate::Between {
                    column: col("s", "z"),
                    lo: z_lo,
                    hi: z_hi,
                },
            ],
        };
        let data_keys = region_keys(6, (0.0, 6.0), z_lo, z_hi);
        BuiltQuery { query, data_keys }
    }

    fn identity(&self, rng: &mut SplitMix64) -> BuiltQuery {
        // A vast id space with a small hot set: reuse exists but is rare,
        // matching the paper's containment finding.
        let key = if rng.chance(0.05) {
            rng.next_bounded(64)
        } else {
            rng.next_bounded(1u64 << 40)
        };
        let query = Query {
            top: None,
            projection: items("p", &self.columns),
            from: vec![TableRef::aliased("PhotoObj", "p")],
            predicates: vec![Predicate::Compare {
                column: col("p", "objID"),
                op: CompareOp::Eq,
                value: Value::Number(key as f64),
            }],
        };
        BuiltQuery {
            query,
            data_keys: vec![1 << 48 | key],
        }
    }

    fn photo_aggregate(&self, frac: f64, cursor: f64) -> BuiltQuery {
        let (ra_lo, ra_hi) = window((0.0, 360.0), frac, cursor);
        let query = Query {
            top: None,
            projection: vec![SelectItem::Aggregate {
                func: Aggregate::Count,
                arg: None,
                alias: None,
            }],
            from: vec![TableRef::aliased("PhotoObj", "p")],
            predicates: vec![Predicate::Between {
                column: col("p", "ra"),
                lo: ra_lo,
                hi: ra_hi,
            }],
        };
        let data_keys = region_keys(1, (0.0, 360.0), ra_lo, ra_hi);
        BuiltQuery { query, data_keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_templates_have_pools_and_tables() {
        for &t in ALL_TEMPLATES {
            assert!(!t.projection_pool().is_empty(), "{t:?}");
            assert!(!t.table().is_empty());
            assert_eq!(ALL_TEMPLATES[t.index() as usize], t);
        }
    }

    fn session(kind: TemplateKind) -> Session {
        let pool = kind.projection_pool();
        Session {
            kind,
            table: kind.table(),
            columns: pool[..pool.len().min(3)].to_vec(),
            base_selectivity: 0.01,
            cursor: 0.25,
            step: 0.01,
        }
    }

    #[test]
    fn every_template_builds_parseable_sql() {
        let mut rng = SplitMix64::new(1);
        for &kind in ALL_TEMPLATES {
            let mut s = session(kind);
            for _ in 0..5 {
                let built = s.next_query(&mut rng);
                let sql = built.query.to_string();
                let reparsed = byc_sql::parse(&sql)
                    .unwrap_or_else(|e| panic!("{kind:?} produced unparseable SQL {sql:?}: {e}"));
                assert_eq!(reparsed, built.query, "round-trip mismatch for {kind:?}");
            }
        }
    }

    #[test]
    fn cursor_advances_region() {
        let mut rng = SplitMix64::new(2);
        let mut s = session(TemplateKind::NeighborsRange);
        let a = s.next_query(&mut rng);
        let b = s.next_query(&mut rng);
        assert_ne!(a.query, b.query, "consecutive queries must differ in data");
    }

    #[test]
    fn schema_stable_within_session() {
        let mut rng = SplitMix64::new(3);
        let mut s = session(TemplateKind::PhotoZRange);
        let a = s.next_query(&mut rng);
        let b = s.next_query(&mut rng);
        // Projections identical: same schema, different data.
        assert_eq!(a.query.projection, b.query.projection);
        assert_eq!(a.query.from, b.query.from);
    }

    #[test]
    fn window_respects_domain() {
        for cursor in [0.0, 0.3, 0.99] {
            let (lo, hi) = window((10.0, 20.0), 0.25, cursor);
            assert!(lo >= 10.0 - 1e-9 && hi <= 20.0 + 1e-9);
            assert!((hi - lo - 2.5).abs() < 1e-9);
        }
        // Oversized fraction clamps to the whole domain.
        let (lo, hi) = window((0.0, 1.0), 5.0, 0.7);
        assert_eq!((lo, hi), (0.0, 1.0));
    }

    #[test]
    fn region_keys_bounded_and_tagged() {
        let keys = region_keys(3, (0.0, 100.0), 10.0, 90.0);
        assert!(!keys.is_empty() && keys.len() <= 4);
        for k in keys {
            assert_eq!(k >> 16, 3);
        }
    }

    #[test]
    fn identity_reuses_hot_keys_sometimes() {
        let mut rng = SplitMix64::new(4);
        let mut s = session(TemplateKind::Identity);
        let mut keys = std::collections::HashMap::new();
        for _ in 0..2000 {
            let b = s.next_query(&mut rng);
            *keys.entry(b.data_keys[0]).or_insert(0usize) += 1;
        }
        let max_reuse = keys.values().max().copied().unwrap_or(0);
        assert!(max_reuse >= 2, "hot set should produce some reuse");
        // But the bulk of keys are unique (low containment).
        let unique = keys.values().filter(|&&c| c == 1).count();
        assert!(unique as f64 > keys.len() as f64 * 0.8);
    }

    #[test]
    fn templates_round_trip() {
        for (pos, &kind) in ALL_TEMPLATES.iter().enumerate() {
            assert_eq!(kind.index() as usize, pos, "{kind:?} out of order");
        }
    }

    #[test]
    fn join_template_references_both_tables() {
        let mut rng = SplitMix64::new(5);
        let mut s = session(TemplateKind::PhotoSpecJoin);
        let b = s.next_query(&mut rng);
        assert_eq!(b.query.from.len(), 2);
        assert!(b
            .query
            .predicates
            .iter()
            .any(|p| matches!(p, Predicate::Join { .. })));
    }
}
