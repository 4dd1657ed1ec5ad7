//! The cacheable-object view of a catalog.
//!
//! The bypass-yield algorithms are agnostic to what an "object" is; the
//! paper evaluates two granularities (§6.1): whole **tables** and single
//! **columns** (attributes). An [`ObjectCatalog`] enumerates the objects of
//! a [`Catalog`] at one granularity and precomputes, per
//! object, the two quantities every algorithm consumes:
//!
//! * `size`  — bytes of cache space the object occupies, and
//! * `fetch_cost` — bytes of WAN traffic to load it from its home server.
//!
//! The fetch cost follows the paper's proportional model `f_i = c · s_i`
//! (§3): load traffic scales linearly with object size on TCP networks when
//! transfers are much larger than the frame size. The catalog stores the
//! *raw* cost (`fetch_cost = size`); non-uniform WAN paths — what
//! distinguishes BYHR from the simplified BYU metric — are priced at
//! replay time by the federation's `NetworkModel` using each object's
//! [`ObjectInfo::server`].

use crate::schema::Catalog;
use byc_types::{Bytes, ColumnId, Error, ObjectId, Result, ServerId, TableId};

/// Granularity at which database objects are cached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One cacheable object per base table.
    Table,
    /// One cacheable object per column.
    Column,
}

impl Granularity {
    /// Human-readable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            Granularity::Table => "table",
            Granularity::Column => "column",
        }
    }
}

/// What a cacheable object denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A whole table.
    Table(TableId),
    /// A single column.
    Column(ColumnId),
}

/// Size and cost metadata for one cacheable object.
#[derive(Clone, Debug)]
pub struct ObjectInfo {
    /// The object id (dense, equals its index in the catalog).
    pub id: ObjectId,
    /// What the object denotes.
    pub kind: ObjectKind,
    /// Cache space the object occupies.
    pub size: Bytes,
    /// WAN bytes required to load the object from its server.
    pub fetch_cost: Bytes,
    /// Home server.
    pub server: ServerId,
}

/// Enumeration of a schema's cacheable objects at one granularity.
#[derive(Clone, Debug)]
pub struct ObjectCatalog {
    granularity: Granularity,
    objects: Vec<ObjectInfo>,
    /// table id → object id (Table granularity) .
    by_table: Vec<Option<ObjectId>>,
    /// column id → object id (Column granularity).
    by_column: Vec<Option<ObjectId>>,
    min_object_size: Bytes,
    total_size: Bytes,
}

impl ObjectCatalog {
    /// Build the object view of `catalog` at `granularity`. Fetch costs
    /// are the raw proportional model (`fetch_cost = size`, `c = 1`);
    /// per-server link pricing is applied downstream by the federation's
    /// network model, not baked into the catalog.
    // One object per table or column, and the catalog numbers both with
    // `u32` ids (checked in `Catalog::add_table`): every index fits.
    #[allow(clippy::cast_possible_truncation)]
    pub fn uniform(catalog: &Catalog, granularity: Granularity) -> Self {
        let mut objects = Vec::new();
        let mut by_table = vec![None; catalog.table_count()];
        let mut by_column = vec![None; catalog.column_count()];
        match granularity {
            Granularity::Table => {
                for t in catalog.tables() {
                    let id = ObjectId::new(objects.len() as u32);
                    let size = t.size();
                    objects.push(ObjectInfo {
                        id,
                        kind: ObjectKind::Table(t.id),
                        size,
                        fetch_cost: size,
                        server: t.server,
                    });
                    by_table[t.id.index()] = Some(id);
                }
            }
            Granularity::Column => {
                for c in catalog.columns() {
                    let t = catalog.table(c.table);
                    let id = ObjectId::new(objects.len() as u32);
                    let size = Bytes::new(c.width().saturating_mul(t.row_count));
                    objects.push(ObjectInfo {
                        id,
                        kind: ObjectKind::Column(c.id),
                        size,
                        fetch_cost: size,
                        server: t.server,
                    });
                    by_column[c.id.index()] = Some(id);
                }
            }
        }
        let min_object_size = objects
            .iter()
            .map(|o| o.size)
            .filter(|s| !s.is_zero())
            .min()
            .unwrap_or(Bytes::new(1));
        let total_size = objects.iter().map(|o| o.size).sum();
        Self {
            granularity,
            objects,
            by_table,
            by_column,
            min_object_size,
            total_size,
        }
    }

    /// The granularity this view was built at.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of cacheable objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True iff there are no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// All objects in id order.
    pub fn objects(&self) -> &[ObjectInfo] {
        &self.objects
    }

    /// Metadata for one object.
    pub fn info(&self, id: ObjectId) -> &ObjectInfo {
        &self.objects[id.index()]
    }

    /// Object backing a whole table, if this view is at table granularity.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidId`] when the view is at column granularity.
    pub fn object_for_table(&self, table: TableId) -> Result<ObjectId> {
        self.by_table
            .get(table.index())
            .copied()
            .flatten()
            .ok_or(Error::InvalidId {
                kind: "table-object",
                raw: table.raw(),
            })
    }

    /// Object backing a column, if this view is at column granularity.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidId`] when the view is at table granularity.
    pub fn object_for_column(&self, column: ColumnId) -> Result<ObjectId> {
        self.by_column
            .get(column.index())
            .copied()
            .flatten()
            .ok_or(Error::InvalidId {
                kind: "column-object",
                raw: column.raw(),
            })
    }

    /// Size of the smallest nonempty object — the `k` denominator in the
    /// competitive bounds (`k` = cache size / smallest object size).
    pub fn min_object_size(&self) -> Bytes {
        self.min_object_size
    }

    /// Combined size of all objects (equals the database size at table
    /// granularity, and also at column granularity).
    pub fn total_size(&self) -> Bytes {
        self.total_size
    }

    /// Number of distinct servers the objects span: one more than the
    /// highest home-server id present (0 for an empty catalog). Useful
    /// for sizing per-server cost tables and network models.
    pub fn server_count(&self) -> u32 {
        self.objects
            .iter()
            .map(|o| o.server.raw() + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, TableDef};

    fn two_table_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            name: "A".into(),
            columns: vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("x", ColumnType::Real),
            ],
            row_count: 100,
            server: ServerId::new(0),
        })
        .unwrap();
        cat.add_table(TableDef {
            name: "B".into(),
            columns: vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("y", ColumnType::Float),
                ColumnDef::new("z", ColumnType::SmallInt),
            ],
            row_count: 10,
            server: ServerId::new(1),
        })
        .unwrap();
        cat
    }

    #[test]
    fn table_granularity_sizes() {
        let cat = two_table_catalog();
        let oc = ObjectCatalog::uniform(&cat, Granularity::Table);
        assert_eq!(oc.len(), 2);
        assert_eq!(oc.info(ObjectId::new(0)).size, Bytes::new(12 * 100));
        assert_eq!(oc.info(ObjectId::new(1)).size, Bytes::new(18 * 10));
        assert_eq!(oc.total_size(), cat.database_size());
        assert_eq!(oc.min_object_size(), Bytes::new(180));
        assert_eq!(oc.granularity().label(), "table");
    }

    #[test]
    fn column_granularity_sizes() {
        let cat = two_table_catalog();
        let oc = ObjectCatalog::uniform(&cat, Granularity::Column);
        assert_eq!(oc.len(), 5);
        // A.id: 8 * 100
        assert_eq!(oc.info(ObjectId::new(0)).size, Bytes::new(800));
        // B.z: 2 * 10
        assert_eq!(oc.info(ObjectId::new(4)).size, Bytes::new(20));
        assert_eq!(oc.total_size(), cat.database_size());
        assert_eq!(oc.min_object_size(), Bytes::new(20));
    }

    #[test]
    fn uniform_fetch_cost_equals_size() {
        let cat = two_table_catalog();
        let oc = ObjectCatalog::uniform(&cat, Granularity::Table);
        for o in oc.objects() {
            assert_eq!(o.fetch_cost, o.size);
        }
    }

    #[test]
    fn objects_remember_their_home_servers() {
        let cat = two_table_catalog();
        let oc = ObjectCatalog::uniform(&cat, Granularity::Table);
        let a = oc.info(oc.object_for_table(TableId::new(0)).unwrap());
        let b = oc.info(oc.object_for_table(TableId::new(1)).unwrap());
        assert_eq!(a.server, ServerId::new(0));
        assert_eq!(b.server, ServerId::new(1));
        assert_eq!(oc.server_count(), 2);
    }

    #[test]
    fn lookup_mismatched_granularity_errors() {
        let cat = two_table_catalog();
        let tables = ObjectCatalog::uniform(&cat, Granularity::Table);
        assert!(tables.object_for_column(ColumnId::new(0)).is_err());
        let cols = ObjectCatalog::uniform(&cat, Granularity::Column);
        assert!(cols.object_for_table(TableId::new(0)).is_err());
        assert!(cols.object_for_column(ColumnId::new(3)).is_ok());
    }

    #[test]
    fn object_ids_are_dense() {
        let cat = two_table_catalog();
        let oc = ObjectCatalog::uniform(&cat, Granularity::Column);
        for (i, o) in oc.objects().iter().enumerate() {
            assert_eq!(o.id.index(), i);
        }
    }
}
