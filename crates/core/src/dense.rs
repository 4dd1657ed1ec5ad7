//! A vec-backed map keyed by dense [`ObjectId`]s.
//!
//! The catalog hands out object ids as contiguous `u32` indexes (see
//! `byc-types::ids`), so per-object policy state never needs hashing: a
//! `Vec` indexed by the raw id resolves membership in O(1) with no SipHash
//! work and no iteration-order wobble. [`DenseMap`] replaces the
//! `HashMap<ObjectId, _>` state in the policy crates' hot paths and
//! guarantees **deterministic iteration in ascending id order**, which the
//! replay auditor and the bit-identity tests between the replay kernel
//! and its reference oracle rely on.

use byc_types::ObjectId;

/// A map from [`ObjectId`] to `V` backed by a `Vec<Option<V>>`.
///
/// Slots grow on demand to the highest inserted id; `len` counts occupied
/// slots. Iteration visits entries in ascending id order, so two maps with
/// equal contents always iterate identically — unlike `HashMap`, whose
/// order depends on hasher state and insertion history.
#[derive(Clone, Debug)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DenseMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// An empty map with slots pre-allocated for ids `0..n` (e.g. the
    /// catalog's object count), so the hot path never reallocates.
    pub fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(n, || None);
        Self { slots, len: 0 }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff `object` has an entry.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.slots
            .get(object.index())
            .is_some_and(|slot| slot.is_some())
    }

    /// Shared reference to the value for `object`, if present.
    pub fn get(&self, object: ObjectId) -> Option<&V> {
        self.slots.get(object.index())?.as_ref()
    }

    /// Mutable reference to the value for `object`, if present.
    pub fn get_mut(&mut self, object: ObjectId) -> Option<&mut V> {
        self.slots.get_mut(object.index())?.as_mut()
    }

    /// Insert `value` for `object`, returning the previous value if any.
    pub fn insert(&mut self, object: ObjectId, value: V) -> Option<V> {
        self.grow_to(object);
        let old = self.slots[object.index()].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the entry for `object`, returning its value if present.
    pub fn remove(&mut self, object: ObjectId) -> Option<V> {
        let old = self.slots.get_mut(object.index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Mutable reference to the value for `object`, inserting
    /// `default()` first if absent (the `entry().or_insert_with()`
    /// idiom).
    pub fn get_or_insert_with(&mut self, object: ObjectId, default: impl FnOnce() -> V) -> &mut V {
        self.grow_to(object);
        let slot = &mut self.slots[object.index()];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Iterate `(id, &value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &V)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            let v = slot.as_ref()?;
            Some((id_of(i), v))
        })
    }

    /// Iterate values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().filter_map(|slot| slot.as_ref())
    }

    /// Iterate values mutably in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().filter_map(|slot| slot.as_mut())
    }

    /// Remove every entry, keeping the allocated slots.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    fn grow_to(&mut self, object: ObjectId) {
        if self.slots.len() <= object.index() {
            self.slots.resize_with(object.index() + 1, || None);
        }
    }
}

/// Recover an [`ObjectId`] from a slot index. Slot indexes come from ids,
/// so they always fit back into `u32`; saturate defensively rather than
/// panic (this is a no-panic crate).
fn id_of(index: usize) -> ObjectId {
    ObjectId::new(u32::try_from(index).unwrap_or(u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DenseMap<u64> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(oid(3), 30), None);
        assert_eq!(m.insert(oid(3), 31), Some(30));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(oid(3)), Some(&31));
        assert!(m.contains(oid(3)));
        assert!(!m.contains(oid(2)));
        assert_eq!(m.remove(oid(3)), Some(31));
        assert_eq!(m.remove(oid(3)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_insert_with_fills_once() {
        let mut m: DenseMap<u64> = DenseMap::new();
        *m.get_or_insert_with(oid(7), || 0) += 1;
        *m.get_or_insert_with(oid(7), || 100) += 1;
        assert_eq!(m.get(oid(7)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_by_id() {
        let mut m: DenseMap<&str> = DenseMap::new();
        m.insert(oid(9), "i");
        m.insert(oid(1), "a");
        m.insert(oid(4), "d");
        let order: Vec<ObjectId> = m.iter().map(|(o, _)| o).collect();
        assert_eq!(order, vec![oid(1), oid(4), oid(9)]);
        let values: Vec<&str> = m.values().copied().collect();
        assert_eq!(values, vec!["a", "d", "i"]);
    }

    #[test]
    fn values_mut_updates_in_place() {
        let mut m: DenseMap<u64> = DenseMap::new();
        m.insert(oid(0), 1);
        m.insert(oid(5), 2);
        for v in m.values_mut() {
            *v *= 10;
        }
        assert_eq!(m.get(oid(0)), Some(&10));
        assert_eq!(m.get(oid(5)), Some(&20));
    }

    #[test]
    fn with_capacity_and_clear_keep_slots() {
        let mut m: DenseMap<u64> = DenseMap::with_capacity(16);
        m.insert(oid(10), 5);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(oid(10)), None);
        m.insert(oid(10), 6);
        assert_eq!(m.get(oid(10)), Some(&6));
    }

    #[test]
    fn sparse_ids_grow_on_demand() {
        let mut m: DenseMap<u64> = DenseMap::new();
        m.insert(oid(1000), 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(oid(999)), None);
        assert_eq!(m.get(oid(1000)), Some(&1));
    }
}
