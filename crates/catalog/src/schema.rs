//! Column types, table definitions, and the name-resolving catalog.

use byc_types::{Bytes, ColumnId, Error, Result, ServerId, TableId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hash of the catalog's name maps: a multiply-rotate over eight
/// bytes at a time from a fixed seed. Names are few and short, and the
/// catalog's own, so SipHash's keyed resistance to chosen collisions
/// buys nothing there and costs a name lookup on every column a query
/// references; a fixed seed also makes the maps the same in every run.
#[derive(Clone, Copy, Debug)]
struct NameHasher {
    hash: u64,
}

/// An odd multiplier with well-spread bits (the golden-ratio constant),
/// also the seed.
const NAME_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for NameHasher {
    fn default() -> Self {
        Self {
            hash: NAME_MULTIPLIER,
        }
    }
}

impl NameHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(23) ^ word).wrapping_mul(NAME_MULTIPLIER);
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            if let Ok(word) = <[u8; 8]>::try_from(word) {
                self.add(u64::from_le_bytes(word));
            }
        }
        // The last one to seven bytes as one word: four to seven from
        // two overlapping four-byte loads, fewer byte by byte. A copy
        // into a zeroed buffer would be read back before it landed.
        let tail = words.remainder();
        let word = match (tail.first_chunk::<4>(), tail.last_chunk::<4>()) {
            (Some(&low), Some(&high)) => {
                u64::from(u32::from_le_bytes(low)) | u64::from(u32::from_le_bytes(high)) << 32
            }
            _ => tail.iter().fold(0, |word, &b| word << 8 | u64::from(b)),
        };
        if !tail.is_empty() {
            self.add(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, the
        // weakest; rotate the well-mixed high bits down.
        self.hash.rotate_left(26)
    }
}

/// A map keyed by catalog names, hashed with [`NameHasher`].
type NameMap<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// Storage type of a column. Widths follow SQL Server conventions, which is
/// what the SDSS SkyServer schema uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer (`bigint`), 8 bytes. Object identifiers.
    BigInt,
    /// 32-bit integer (`int`), 4 bytes.
    Int,
    /// 16-bit integer (`smallint`), 2 bytes.
    SmallInt,
    /// 64-bit IEEE float (`float`), 8 bytes. Celestial coordinates.
    Float,
    /// 32-bit IEEE float (`real`), 4 bytes. Magnitudes, errors.
    Real,
    /// Fixed-width character data of the given byte width.
    Char(u16),
}

impl ColumnType {
    /// Storage width in bytes.
    pub const fn width(self) -> u64 {
        match self {
            ColumnType::BigInt | ColumnType::Float => 8,
            ColumnType::Int => 4,
            ColumnType::SmallInt => 2,
            ColumnType::Real => 4,
            ColumnType::Char(w) => w as u64,
        }
    }

    /// True for numeric types (usable in range predicates).
    pub const fn is_numeric(self) -> bool {
        !matches!(self, ColumnType::Char(_))
    }
}

/// Definition of a column, before registration in a catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Storage type.
    pub ty: ColumnType,
    /// Lower bound of the value domain (for selectivity estimation).
    pub min_value: f64,
    /// Upper bound of the value domain.
    pub max_value: f64,
}

impl ColumnDef {
    /// Convenience constructor with a `[0, 1)`-normalized domain.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            min_value: 0.0,
            max_value: 1.0,
        }
    }

    /// Set the value domain used by the selectivity model.
    pub fn with_domain(mut self, min: f64, max: f64) -> Self {
        assert!(min <= max, "domain min must not exceed max");
        self.min_value = min;
        self.max_value = max;
        self
    }
}

/// Definition of a table, before registration.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDef {
    /// Table name, unique within the catalog.
    pub name: String,
    /// Columns in declaration order. The first column is treated as the
    /// primary key for identity queries.
    pub columns: Vec<ColumnDef>,
    /// Number of rows.
    pub row_count: u64,
    /// Server hosting this table.
    pub server: ServerId,
}

/// A registered column.
#[derive(Clone, Debug)]
pub struct Column {
    /// Global column id.
    pub id: ColumnId,
    /// Owning table.
    pub table: TableId,
    /// Ordinal within the table (0-based).
    pub ordinal: u16,
    /// Column name.
    pub name: String,
    /// Storage type.
    pub ty: ColumnType,
    /// Domain lower bound.
    pub min_value: f64,
    /// Domain upper bound.
    pub max_value: f64,
}

impl Column {
    /// Storage width in bytes of one value.
    pub fn width(&self) -> u64 {
        self.ty.width()
    }
}

/// A registered table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Global ids of this table's columns, in ordinal order.
    pub columns: Vec<ColumnId>,
    /// Number of rows.
    pub row_count: u64,
    /// Server hosting the table.
    pub server: ServerId,
    /// Sum of column widths: bytes per row.
    pub row_width: u64,
}

impl Table {
    /// Total stored size of the table, saturating at `u64::MAX` bytes.
    pub fn size(&self) -> Bytes {
        Bytes::new(self.row_width.saturating_mul(self.row_count))
    }
}

/// The schema catalog: registered tables and columns with name resolution.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    columns: Vec<Column>,
    table_names: NameMap<TableId>,
    /// Per table, in id order: column name → column id. Looked up by
    /// `&str`, so name resolution allocates nothing.
    column_names: Vec<NameMap<ColumnId>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table definition, assigning dense ids. Every name and
    /// id is checked before the catalog changes, so a refused table
    /// leaves no trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on duplicate table or column names,
    /// a table with no columns, or more tables, columns or columns per
    /// table than the ids can number.
    pub fn add_table(&mut self, def: TableDef) -> Result<TableId> {
        let invalid = |what: &str| Error::InvalidConfig(format!("table {:?} {what}", def.name));
        if def.columns.is_empty() {
            return Err(invalid("has no columns"));
        }
        if self.table_names.contains_key(&def.name) {
            return Err(Error::InvalidConfig(format!(
                "duplicate table name {:?}",
                def.name
            )));
        }
        let tid = u32::try_from(self.tables.len())
            .map(TableId::new)
            .map_err(|_| invalid("overflows the table ids"))?;
        let mut names = NameMap::with_capacity_and_hasher(def.columns.len(), Default::default());
        let mut columns = Vec::with_capacity(def.columns.len());
        for (ordinal, c) in def.columns.iter().enumerate() {
            let cid = self
                .columns
                .len()
                .checked_add(ordinal)
                .and_then(|id| u32::try_from(id).ok())
                .map(ColumnId::new)
                .ok_or_else(|| invalid("overflows the column ids"))?;
            let ordinal = u16::try_from(ordinal).map_err(|_| invalid("has too many columns"))?;
            if names.insert(c.name.clone(), cid).is_some() {
                return Err(Error::InvalidConfig(format!(
                    "duplicate column {:?} in table {:?}",
                    c.name, def.name
                )));
            }
            columns.push(Column {
                id: cid,
                table: tid,
                ordinal,
                name: c.name.clone(),
                ty: c.ty,
                min_value: c.min_value,
                max_value: c.max_value,
            });
        }
        self.tables.push(Table {
            id: tid,
            name: def.name.clone(),
            columns: columns.iter().map(|c| c.id).collect(),
            row_count: def.row_count,
            server: def.server,
            row_width: columns.iter().map(Column::width).sum(),
        });
        self.columns.extend(columns);
        self.column_names.push(names);
        self.table_names.insert(def.name, tid);
        Ok(tid)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// All tables in id order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All columns in id order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Look up a column by id.
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.index()]
    }

    /// Resolve a table by name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownName`] if not registered.
    pub fn table_by_name(&self, name: &str) -> Result<&Table> {
        self.table_names
            .get(name)
            .map(|&id| self.table(id))
            .ok_or_else(|| Error::UnknownName {
                kind: "table",
                name: name.to_string(),
            })
    }

    /// Resolve a column by table id and column name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownName`] if not registered.
    pub fn column_by_name(&self, table: TableId, name: &str) -> Result<&Column> {
        self.find_column(table, name)
            .ok_or_else(|| Error::UnknownName {
                kind: "column",
                name: format!("{}.{}", self.table(table).name, name),
            })
    }

    /// The column of `table` named `name`, if any: the lookup behind
    /// [`Catalog::column_by_name`], without building an error on a miss.
    pub fn find_column(&self, table: TableId, name: &str) -> Option<&Column> {
        let id = self.column_names.get(table.index())?.get(name)?;
        self.columns.get(id.index())
    }

    /// Total stored size of every table in the catalog — the "database
    /// size" that cache capacities are expressed against (paper §6.3).
    pub fn database_size(&self) -> Bytes {
        self.tables.iter().map(Table::size).sum()
    }

    /// The primary-key column of a table (ordinal 0 by convention).
    pub fn primary_key(&self, table: TableId) -> &Column {
        self.column(self.table(table).columns[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_def(name: &str, rows: u64) -> TableDef {
        TableDef {
            name: name.to_string(),
            columns: vec![
                ColumnDef::new("objID", ColumnType::BigInt),
                ColumnDef::new("ra", ColumnType::Float).with_domain(0.0, 360.0),
                ColumnDef::new("dec", ColumnType::Float).with_domain(-90.0, 90.0),
                ColumnDef::new("class", ColumnType::SmallInt).with_domain(0.0, 6.0),
            ],
            row_count: rows,
            server: ServerId::new(0),
        }
    }

    #[test]
    fn register_and_resolve() {
        let mut cat = Catalog::new();
        let tid = cat.add_table(sample_def("PhotoObj", 1000)).unwrap();
        let t = cat.table_by_name("PhotoObj").unwrap();
        assert_eq!(t.id, tid);
        assert_eq!(t.columns.len(), 4);
        assert_eq!(t.row_width, 8 + 8 + 8 + 2);
        assert_eq!(t.size(), Bytes::new(26 * 1000));
        let c = cat.column_by_name(tid, "ra").unwrap();
        assert_eq!(c.ordinal, 1);
        assert_eq!(c.width(), 8);
        assert_eq!(c.max_value, 360.0);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(sample_def("T", 10)).unwrap();
        let err = cat.add_table(sample_def("T", 10)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut cat = Catalog::new();
        let def = TableDef {
            name: "T".into(),
            columns: vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
            ],
            row_count: 1,
            server: ServerId::new(0),
        };
        assert!(cat.add_table(def).is_err());
    }

    #[test]
    fn refused_table_leaves_no_residue() {
        let mut cat = Catalog::new();
        let def = |name: &str, columns: &[&str]| TableDef {
            name: name.into(),
            columns: columns
                .iter()
                .map(|c| ColumnDef::new(*c, ColumnType::Int))
                .collect(),
            row_count: 1,
            server: ServerId::new(0),
        };
        assert!(cat.add_table(def("A", &["x", "y", "x"])).is_err());
        assert_eq!(cat.table_count(), 0);
        assert_eq!(cat.column_count(), 0);
        assert!(cat.table_by_name("A").is_err());
        let b = cat.add_table(def("B", &["z"])).unwrap();
        assert_eq!(b, TableId::new(0));
        assert_eq!(cat.column_count(), 1);
        assert!(cat.column_by_name(b, "x").is_err());
        assert!(cat.find_column(b, "y").is_none());
        let z = cat.column_by_name(b, "z").unwrap();
        assert_eq!((z.id, z.table, z.ordinal), (ColumnId::new(0), b, 0));
        // The refused name is free again, and its column is its own.
        let a = cat.add_table(def("A", &["x"])).unwrap();
        assert_eq!(cat.column_count(), 2);
        assert_eq!(cat.column_by_name(a, "x").unwrap().table, a);
        assert!(cat.find_column(b, "x").is_none());
    }

    #[test]
    fn empty_table_rejected() {
        let mut cat = Catalog::new();
        let def = TableDef {
            name: "T".into(),
            columns: vec![],
            row_count: 1,
            server: ServerId::new(0),
        };
        assert!(cat.add_table(def).is_err());
    }

    #[test]
    fn unknown_lookups_error() {
        let mut cat = Catalog::new();
        let tid = cat.add_table(sample_def("T", 10)).unwrap();
        assert!(matches!(
            cat.table_by_name("Missing").unwrap_err(),
            Error::UnknownName { kind: "table", .. }
        ));
        assert!(matches!(
            cat.column_by_name(tid, "missing").unwrap_err(),
            Error::UnknownName { kind: "column", .. }
        ));
    }

    #[test]
    fn database_size_sums_tables() {
        let mut cat = Catalog::new();
        cat.add_table(sample_def("A", 100)).unwrap();
        cat.add_table(sample_def("B", 200)).unwrap();
        assert_eq!(cat.database_size(), Bytes::new(26 * 300));
    }

    #[test]
    fn primary_key_is_first_column() {
        let mut cat = Catalog::new();
        let tid = cat.add_table(sample_def("T", 10)).unwrap();
        assert_eq!(cat.primary_key(tid).name, "objID");
    }

    #[test]
    fn column_type_widths() {
        assert_eq!(ColumnType::BigInt.width(), 8);
        assert_eq!(ColumnType::Int.width(), 4);
        assert_eq!(ColumnType::SmallInt.width(), 2);
        assert_eq!(ColumnType::Float.width(), 8);
        assert_eq!(ColumnType::Real.width(), 4);
        assert_eq!(ColumnType::Char(16).width(), 16);
        assert!(ColumnType::Float.is_numeric());
        assert!(!ColumnType::Char(4).is_numeric());
    }
}
