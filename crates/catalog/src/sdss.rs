//! Synthetic SDSS-like schemas.
//!
//! The paper evaluates against traces from two Sloan Digital Sky Survey
//! data releases, EDR and DR1, served by the largest node of the SkyQuery
//! federation. The real catalog databases are not redistributable here, so
//! we synthesize schemas with the same *shape*: a very wide, very large
//! `PhotoObj` photometric table; a narrower `SpecObj` spectroscopic table
//! joined to it by `objID`; and a tail of smaller support tables
//! (`Neighbors`, `Field`, `PlateX`, ...). Column names, types, and domains
//! follow the public SkyServer schema so that generated SQL looks like the
//! queries quoted in the paper (§6).
//!
//! Only the relative sizes matter to the algorithms: which objects are
//! large, which are small, and how bytes are spread across columns. Row
//! counts are scaled so EDR ≈ 570 GiB and DR1 ≈ 1.1 TiB of catalog data
//! (consistent with the paper's ≈1.2–2 TB of result traffic per trace);
//! a `scale` parameter shrinks everything proportionally for tests.
//!
//! Beyond the headline tables the schema carries two materialized class
//! views (`Galaxy`, `Star`) and a survey-operations *tail* (`Frame`,
//! `Mask`, ...): large tables touched sporadically. The tail is what
//! separates bypass caching from in-line caching — loading a 15 GiB
//! table to answer a 10 MB query is exactly the bandwidth waste the
//! paper's §1 warns about.

use crate::placement::Placement;
use crate::schema::{Catalog, ColumnDef, ColumnType, TableDef};
use byc_types::Bytes;

/// Which synthetic data release to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SdssRelease {
    /// Early Data Release (the paper's "Set 1": 27 663 queries).
    Edr,
    /// Data Release 1 (the paper's "Set 2": 24 567 queries; roughly twice
    /// the data volume).
    Dr1,
}

impl SdssRelease {
    /// Label used in reports ("EDR" / "DR1").
    pub const fn label(self) -> &'static str {
        match self {
            SdssRelease::Edr => "EDR",
            SdssRelease::Dr1 => "DR1",
        }
    }

    /// Row-count multiplier relative to EDR.
    const fn release_factor(self) -> f64 {
        match self {
            SdssRelease::Edr => 1.0,
            SdssRelease::Dr1 => 2.0,
        }
    }
}

fn mag_columns(prefix: &str) -> Vec<ColumnDef> {
    // The five SDSS photometric bands.
    ["u", "g", "r", "i", "z"]
        .iter()
        .map(|band| {
            ColumnDef::new(format!("{prefix}_{band}"), ColumnType::Real).with_domain(10.0, 28.0)
        })
        .collect()
}

fn photoobj_columns() -> Vec<ColumnDef> {
    let mut cols = vec![
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
        ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
        ColumnDef::new("type", ColumnType::SmallInt).with_domain(0.0, 8.0),
        ColumnDef::new("status", ColumnType::Int).with_domain(0.0, 1e9),
        ColumnDef::new("flags", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("run", ColumnType::SmallInt).with_domain(0.0, 9000.0),
        ColumnDef::new("rerun", ColumnType::SmallInt).with_domain(0.0, 50.0),
        ColumnDef::new("camcol", ColumnType::SmallInt).with_domain(1.0, 6.0),
        ColumnDef::new("field", ColumnType::SmallInt).with_domain(0.0, 1000.0),
        ColumnDef::new("fieldID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("mode", ColumnType::SmallInt).with_domain(0.0, 4.0),
        ColumnDef::new("nChild", ColumnType::SmallInt).with_domain(0.0, 50.0),
        ColumnDef::new("probPSF", ColumnType::Real).with_domain(0.0, 1.0),
        ColumnDef::new("extinction_r", ColumnType::Real).with_domain(0.0, 2.0),
        ColumnDef::new("htmID", ColumnType::BigInt).with_domain(0.0, 1e18),
    ];
    cols.extend(mag_columns("modelMag"));
    cols.extend(mag_columns("modelMagErr"));
    cols.extend(mag_columns("psfMag"));
    cols.extend(mag_columns("psfMagErr"));
    cols.extend(mag_columns("petroMag"));
    cols.extend(mag_columns("fiberMag"));
    cols.extend(mag_columns("petroRad"));
    cols.extend(mag_columns("petroR50"));
    cols.extend(mag_columns("petroR90"));
    cols.extend(mag_columns("deVRad"));
    cols.extend(mag_columns("expRad"));
    cols.extend(mag_columns("fracDeV"));
    cols
}

fn specobj_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("specObjID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
        ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
        ColumnDef::new("z", ColumnType::Real).with_domain(0.0, 6.0),
        ColumnDef::new("zErr", ColumnType::Real).with_domain(0.0, 0.1),
        ColumnDef::new("zConf", ColumnType::Real).with_domain(0.0, 1.0),
        ColumnDef::new("zStatus", ColumnType::SmallInt).with_domain(0.0, 12.0),
        ColumnDef::new("specClass", ColumnType::SmallInt).with_domain(0.0, 6.0),
        ColumnDef::new("zWarning", ColumnType::Int).with_domain(0.0, 1e6),
        ColumnDef::new("plate", ColumnType::SmallInt).with_domain(0.0, 3000.0),
        ColumnDef::new("mjd", ColumnType::Int).with_domain(50000.0, 60000.0),
        ColumnDef::new("fiberID", ColumnType::SmallInt).with_domain(1.0, 640.0),
        ColumnDef::new("primTarget", ColumnType::Int).with_domain(0.0, 1e9),
        ColumnDef::new("secTarget", ColumnType::Int).with_domain(0.0, 1e9),
        ColumnDef::new("velDisp", ColumnType::Real).with_domain(0.0, 500.0),
        ColumnDef::new("velDispErr", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("eCoeff_0", ColumnType::Real).with_domain(-10.0, 10.0),
        ColumnDef::new("eCoeff_1", ColumnType::Real).with_domain(-10.0, 10.0),
        ColumnDef::new("eCoeff_2", ColumnType::Real).with_domain(-10.0, 10.0),
        ColumnDef::new("sn_0", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("sn_1", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("sn_2", ColumnType::Real).with_domain(0.0, 100.0),
    ]
}

fn view_columns() -> Vec<ColumnDef> {
    // Galaxy and Star: materialized class views over PhotoObj, carrying
    // the photometric subset analysts actually scan.
    let mut cols = vec![
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
        ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
        ColumnDef::new("type", ColumnType::SmallInt).with_domain(0.0, 8.0),
    ];
    for prefix in [
        "modelMag",
        "modelMagErr",
        "psfMag",
        "petroMag",
        "petroRad",
        "petroR50",
        "petroR90",
        "deVRad",
        "fracDeV",
    ] {
        cols.extend(mag_columns(prefix));
    }
    cols
}

fn tail_columns() -> Vec<ColumnDef> {
    // The survey-operations tail: Frame, Mask, Segment, ... — large
    // tables touched sporadically by calibration and QA queries. They
    // share one schema shape; only row counts differ.
    vec![
        ColumnDef::new("id", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("val_a", ColumnType::Real).with_domain(0.0, 1000.0),
        ColumnDef::new("val_b", ColumnType::Real).with_domain(-100.0, 100.0),
        ColumnDef::new("flag", ColumnType::SmallInt).with_domain(0.0, 64.0),
        ColumnDef::new("mjd", ColumnType::Int).with_domain(50000.0, 60000.0),
    ]
}

fn neighbors_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("neighborObjID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("distance", ColumnType::Real).with_domain(0.0, 0.5),
        ColumnDef::new("neighborType", ColumnType::SmallInt).with_domain(0.0, 8.0),
        ColumnDef::new("neighborMode", ColumnType::SmallInt).with_domain(0.0, 4.0),
    ]
}

fn field_columns() -> Vec<ColumnDef> {
    let mut cols = vec![
        ColumnDef::new("fieldID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("run", ColumnType::SmallInt).with_domain(0.0, 9000.0),
        ColumnDef::new("camcol", ColumnType::SmallInt).with_domain(1.0, 6.0),
        ColumnDef::new("field", ColumnType::SmallInt).with_domain(0.0, 1000.0),
        ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
        ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
        ColumnDef::new("quality", ColumnType::SmallInt).with_domain(0.0, 5.0),
        ColumnDef::new("mjd", ColumnType::Int).with_domain(50000.0, 60000.0),
    ];
    cols.extend(mag_columns("skyFlux"));
    cols.extend(mag_columns("airmass"));
    cols
}

fn platex_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("plateID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("plate", ColumnType::SmallInt).with_domain(0.0, 3000.0),
        ColumnDef::new("mjd", ColumnType::Int).with_domain(50000.0, 60000.0),
        ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
        ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
        ColumnDef::new("expTime", ColumnType::Real).with_domain(0.0, 10000.0),
        ColumnDef::new("snTot_0", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("snTot_1", ColumnType::Real).with_domain(0.0, 100.0),
    ]
}

fn photoz_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("objID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("z", ColumnType::Real).with_domain(0.0, 2.0),
        ColumnDef::new("zErr", ColumnType::Real).with_domain(0.0, 0.5),
        ColumnDef::new("chiSq", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("tClass", ColumnType::SmallInt).with_domain(0.0, 6.0),
        ColumnDef::new("quality", ColumnType::SmallInt).with_domain(0.0, 5.0),
    ]
}

fn speclineindex_columns() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("specLineID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("specObjID", ColumnType::BigInt).with_domain(0.0, 1e18),
        ColumnDef::new("wave", ColumnType::Real).with_domain(3800.0, 9200.0),
        ColumnDef::new("waveErr", ColumnType::Real).with_domain(0.0, 10.0),
        ColumnDef::new("ew", ColumnType::Real).with_domain(-100.0, 100.0),
        ColumnDef::new("ewErr", ColumnType::Real).with_domain(0.0, 20.0),
        ColumnDef::new("height", ColumnType::Real).with_domain(0.0, 1000.0),
        ColumnDef::new("sigma", ColumnType::Real).with_domain(0.0, 100.0),
        ColumnDef::new("lineID", ColumnType::Int).with_domain(0.0, 10000.0),
    ]
}

/// Base (EDR, scale = 1.0) row counts per table. Chosen so PhotoObj
/// dominates (as in the real SkyServer) while the mid-size tables
/// (Neighbors, PhotoZ, SpecLineIndex) give table-granularity caches a
/// meaningful working set below PhotoObj's size.
const BASE_ROWS: &[(&str, u64)] = &[
    ("PhotoObj", 1_300_000_000),
    ("Galaxy", 75_000_000),
    ("Star", 52_000_000),
    ("SpecObj", 16_000_000),
    ("Neighbors", 550_000_000),
    ("Field", 2_000_000),
    ("PlateX", 500),
    ("PhotoZ", 335_000_000),
    ("SpecLineIndex", 305_000_000),
    // Survey-operations tail: large, sporadically scanned.
    ("Frame", 865_000_000),
    ("Mask", 580_000_000),
    ("ObjMask", 486_000_000),
    ("Segment", 770_000_000),
    ("Chunk", 390_000_000),
    ("Tile", 290_000_000),
    ("TargetInfo", 243_000_000),
    ("ProfileIndex", 675_000_000),
];

/// Names of the survey-operations tail tables.
pub const TAIL_TABLES: &[&str] = &[
    "Frame",
    "Mask",
    "ObjMask",
    "Segment",
    "Chunk",
    "Tile",
    "TargetInfo",
    "ProfileIndex",
];

/// Columns of one base table.
fn columns_for(name: &str) -> Vec<ColumnDef> {
    match name {
        "PhotoObj" => photoobj_columns(),
        "Galaxy" | "Star" => view_columns(),
        "SpecObj" => specobj_columns(),
        "Neighbors" => neighbors_columns(),
        "Field" => field_columns(),
        "PlateX" => platex_columns(),
        "PhotoZ" => photoz_columns(),
        "SpecLineIndex" => speclineindex_columns(),
        t if TAIL_TABLES.contains(&t) => tail_columns(),
        other => unreachable!("unknown base table {other}"),
    }
}

/// Bytes per row of a table with `columns`.
fn row_width(columns: &[ColumnDef]) -> u64 {
    columns.iter().map(|c| c.ty.width()).sum()
}

/// Row count of a base table at `factor` (scale × release factor). `as`
/// saturates: a factor that pushes a table past `u64::MAX` rows clamps
/// there.
#[allow(clippy::cast_possible_truncation)]
fn scaled_rows(base_rows: u64, factor: f64) -> u64 {
    ((base_rows as f64 * factor).round() as u64).max(1)
}

/// Bytes of the base tables at `factor` (scale × release factor), given
/// their bytes per row in [`BASE_ROWS`] order, or `None` if a table's
/// bytes or their total do not fit in a `u64`.
fn database_bytes(widths: &[u64], factor: f64) -> Option<u64> {
    let mut total = 0u64;
    for (&(_, base_rows), &width) in BASE_ROWS.iter().zip(widths) {
        total = total.checked_add(width.checked_mul(scaled_rows(base_rows, factor))?)?;
    }
    Some(total)
}

/// The largest `scale` at which every table of `release`, and the whole
/// database, has a byte count that fits in a `u64`. [`build`] saturates
/// the sizes of a larger scale rather than panicking, so a caller that
/// takes the scale from a user refuses anything above this.
pub fn max_scale(release: SdssRelease) -> f64 {
    let widths: Vec<u64> = BASE_ROWS
        .iter()
        .map(|&(name, _)| row_width(&columns_for(name)))
        .collect();
    let fits = |bits: u64| {
        database_bytes(&widths, f64::from_bits(bits) * release.release_factor()).is_some()
    };
    // Sizes grow with the scale, and positive f64s order like their bit
    // patterns, so bisecting the bits finds the exact largest scale.
    let (mut fitting, mut overflowing) = (1.0f64.to_bits(), f64::MAX.to_bits());
    while overflowing - fitting > 1 {
        let mid = fitting + (overflowing - fitting) / 2;
        if fits(mid) {
            fitting = mid;
        } else {
            overflowing = mid;
        }
    }
    f64::from_bits(fitting)
}

/// Build a synthetic SDSS-like catalog.
///
/// `scale` multiplies every row count (use small values in tests;
/// `scale = 1.0` yields ≈ 560 GiB for EDR). Above [`max_scale`] the byte
/// counts saturate at `u64::MAX`. `server_count` spreads tables
/// round-robin across that many federation servers (must be ≥ 1).
pub fn build(release: SdssRelease, scale: f64, server_count: u32) -> Catalog {
    assert!(server_count >= 1, "need at least one server");
    build_with_placement(release, scale, Placement::RoundRobin(server_count))
}

/// Build a release with an explicit table→server [`Placement`].
///
/// `scale` multiplies every row count, as in [`build`].
pub fn build_with_placement(release: SdssRelease, scale: f64, placement: Placement) -> Catalog {
    assert!(scale > 0.0, "scale must be positive");
    let factor = scale * release.release_factor();
    let defs: Vec<(&str, Vec<ColumnDef>, u64)> = BASE_ROWS
        .iter()
        .map(|&(name, base_rows)| (name, columns_for(name), scaled_rows(base_rows, factor)))
        .collect();
    let sizes: Vec<Bytes> = defs
        .iter()
        .map(|(_, cols, rows)| Bytes::new(row_width(cols).saturating_mul(*rows)))
        .collect();
    let servers = placement.assign(&sizes);
    let mut cat = Catalog::new();
    for ((name, columns, rows), server) in defs.into_iter().zip(servers) {
        // The built-in definitions cannot collide or overflow the ids; a
        // `Result` would push an impossible error onto every caller.
        #[allow(clippy::expect_used)]
        cat.add_table(TableDef {
            name: name.to_string(),
            columns,
            row_count: rows,
            server,
        })
        .expect("static schema definitions are valid");
    }
    cat
}

/// The EDR catalog at full scale on a single server (the configuration the
/// paper's traces were collected from).
pub fn edr() -> Catalog {
    build(SdssRelease::Edr, 1.0, 1)
}

/// The DR1 catalog at full scale on a single server.
pub fn dr1() -> Catalog {
    build(SdssRelease::Dr1, 1.0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{Granularity, ObjectCatalog};
    use byc_types::Bytes;

    #[test]
    fn edr_has_expected_tables() {
        let cat = edr();
        assert_eq!(cat.table_count(), BASE_ROWS.len());
        for (name, _) in BASE_ROWS {
            assert!(cat.table_by_name(name).is_ok(), "missing {name}");
        }
    }

    #[test]
    fn photoobj_dominates() {
        let cat = edr();
        let photo = cat.table_by_name("PhotoObj").unwrap().size();
        assert!(photo.as_f64() > cat.database_size().as_f64() * 0.5);
    }

    #[test]
    fn edr_size_in_expected_band() {
        // ≈570 GiB: the scale at which the paper's trace volumes (≈1.2 TB
        // over 27k queries) and cache-size sweeps make sense.
        let gib = edr().database_size().as_gib();
        assert!((400.0..800.0).contains(&gib), "EDR size {gib} GiB");
    }

    #[test]
    fn hot_set_is_fifth_of_database() {
        // Galaxy + Star + Neighbors + PhotoZ + SpecLineIndex + SpecObj +
        // Field: the working set the trace concentrates on. The paper
        // finds bypass caches need 20–30% of the database to be
        // effective; our knee is placed accordingly.
        let cat = edr();
        let hot: f64 = [
            "Galaxy",
            "Star",
            "Neighbors",
            "PhotoZ",
            "SpecLineIndex",
            "SpecObj",
            "Field",
        ]
        .iter()
        .map(|n| cat.table_by_name(n).unwrap().size().as_f64())
        .sum();
        let frac = hot / cat.database_size().as_f64();
        assert!((0.05..0.20).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn tail_tables_registered() {
        let cat = edr();
        for name in TAIL_TABLES {
            let t = cat.table_by_name(name).unwrap();
            assert!(t.size().as_gib() > 3.0, "{name} too small");
        }
    }

    #[test]
    fn dr1_roughly_doubles_edr() {
        let e = edr().database_size().as_f64();
        let d = dr1().database_size().as_f64();
        let ratio = d / e;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scale_shrinks_rows() {
        let tiny = build(SdssRelease::Edr, 1e-5, 1);
        assert!(tiny.database_size() < Bytes::mib(10));
        // Every table still has at least one row.
        for t in tiny.tables() {
            assert!(t.row_count >= 1);
        }
    }

    #[test]
    fn builds_at_the_largest_accepted_scale() {
        for release in [SdssRelease::Edr, SdssRelease::Dr1] {
            let max = max_scale(release);
            let cat = build(release, max, 2);
            let widths: Vec<u64> = cat.tables().iter().map(|t| t.row_width).collect();
            let bytes_at = |scale: f64| database_bytes(&widths, scale * release.release_factor());
            assert_eq!(bytes_at(max), Some(cat.database_size().raw()));
            assert_eq!(bytes_at(f64::from_bits(max.to_bits() + 1)), None);
            for granularity in [Granularity::Table, Granularity::Column] {
                let objects = ObjectCatalog::uniform(&cat, granularity);
                assert!(objects.total_size() <= cat.database_size());
            }
        }
        // EDR is about 560 GiB at scale 1.
        let edr_max = max_scale(SdssRelease::Edr);
        assert!((3.0e7..3.1e7).contains(&edr_max), "{edr_max}");
    }

    #[test]
    fn any_finite_scale_builds_saturated() {
        let cat = build(SdssRelease::Dr1, f64::MAX, 1);
        assert_eq!(cat.database_size(), Bytes::new(u64::MAX));
        let objects = ObjectCatalog::uniform(&cat, Granularity::Column);
        assert_eq!(objects.total_size(), Bytes::new(u64::MAX));
    }

    #[test]
    fn servers_assigned_round_robin() {
        let cat = build(SdssRelease::Edr, 1e-4, 3);
        let servers: Vec<u32> = cat.tables().iter().map(|t| t.server.raw()).collect();
        let expected: Vec<u32> = (0..BASE_ROWS.len() as u32).map(|i| i % 3).collect();
        assert_eq!(servers, expected);
    }

    #[test]
    fn size_balanced_placement_splits_the_database() {
        let cat = build_with_placement(SdssRelease::Edr, 1e-4, Placement::SizeBalanced(4));
        let mut per_server = [0u64; 4];
        for t in cat.tables() {
            per_server[t.server.index()] += t.size().raw();
        }
        // PhotoObj dominates the database, so its server is the heaviest;
        // but every server must hold something, and the non-PhotoObj
        // servers must be within 4x of one another.
        assert!(per_server.iter().all(|&b| b > 0));
        let mut rest: Vec<u64> = per_server.to_vec();
        rest.sort_unstable();
        let (lightest, heaviest_rest) = (rest[0], rest[2]);
        assert!(heaviest_rest < lightest * 4, "rest spread {rest:?}");
    }

    #[test]
    fn join_columns_exist() {
        let cat = edr();
        let photo = cat.table_by_name("PhotoObj").unwrap().id;
        let spec = cat.table_by_name("SpecObj").unwrap().id;
        assert!(cat.column_by_name(photo, "objID").is_ok());
        assert!(cat.column_by_name(spec, "objID").is_ok());
        assert!(cat.column_by_name(spec, "specClass").is_ok());
        assert!(cat.column_by_name(photo, "modelMag_g").is_ok());
    }

    #[test]
    fn column_object_count_matches() {
        let cat = build(SdssRelease::Edr, 1e-4, 1);
        let oc = ObjectCatalog::uniform(&cat, Granularity::Column);
        assert_eq!(oc.len(), cat.column_count());
        assert!(cat.column_count() > 100, "schema should be wide");
    }

    #[test]
    fn labels() {
        assert_eq!(SdssRelease::Edr.label(), "EDR");
        assert_eq!(SdssRelease::Dr1.label(), "DR1");
    }
}
