//! The policy interface: one decision per (query, object) access.

use crate::access::Access;
use byc_types::{Bytes, ObjectId};

/// Victims fit inline in an [`Evictions`] list up to this count before it
/// spills to the heap. Steady-state loads evict a handful of objects at
/// most, so the common case allocates nothing.
const INLINE_VICTIMS: usize = 4;

#[derive(Clone)]
enum EvictionsRepr {
    Inline {
        buf: [ObjectId; INLINE_VICTIMS],
        len: u8,
    },
    Spilled(Vec<ObjectId>),
}

/// The victim list of a [`Decision::Load`]: a small-buffer list of
/// [`ObjectId`]s in eviction order.
///
/// Up to `INLINE_VICTIMS` victims live inline in the decision value
/// itself, so the policy hot path emits loads without touching the
/// allocator; longer lists (rare: one large incoming object displacing
/// many small ones) spill to a `Vec`. The representation is invisible:
/// equality, ordering of iteration, and `Debug` all go through the slice
/// view, and the type derefs to `[ObjectId]`.
#[derive(Clone)]
pub struct Evictions {
    repr: EvictionsRepr,
}

impl Evictions {
    /// An empty victim list.
    pub fn new() -> Self {
        Self {
            repr: EvictionsRepr::Inline {
                buf: [ObjectId::new(0); INLINE_VICTIMS],
                len: 0,
            },
        }
    }

    /// Append a victim, spilling to the heap past the inline capacity.
    pub fn push(&mut self, object: ObjectId) {
        match &mut self.repr {
            EvictionsRepr::Inline { buf, len } => {
                let n = usize::from(*len);
                if n < INLINE_VICTIMS {
                    buf[n] = object;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(INLINE_VICTIMS + 1);
                    spilled.extend_from_slice(&buf[..n]);
                    spilled.push(object);
                    self.repr = EvictionsRepr::Spilled(spilled);
                }
            }
            EvictionsRepr::Spilled(v) => v.push(object),
        }
    }

    /// The victims as a slice, in eviction order.
    pub fn as_slice(&self) -> &[ObjectId] {
        match &self.repr {
            EvictionsRepr::Inline { buf, len } => &buf[..usize::from(*len)],
            EvictionsRepr::Spilled(v) => v,
        }
    }
}

impl Default for Evictions {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Evictions {
    type Target = [ObjectId];

    fn deref(&self) -> &[ObjectId] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Evictions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Evictions {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Evictions {}

impl FromIterator<ObjectId> for Evictions {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        let mut evictions = Evictions::new();
        for object in iter {
            evictions.push(object);
        }
        evictions
    }
}

impl From<Vec<ObjectId>> for Evictions {
    fn from(victims: Vec<ObjectId>) -> Self {
        victims.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Evictions {
    type Item = &'a ObjectId;
    type IntoIter = std::slice::Iter<'a, ObjectId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A policy's answer to one access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The object is cached; serve the query locally. WAN cost: 0.
    Hit,
    /// Ship the (sub)query to the object's home server. WAN cost: the
    /// access's yield.
    Bypass,
    /// Load the object into the cache (evicting `evictions` first), then
    /// serve the query locally. WAN cost: the object's fetch cost.
    Load {
        /// Objects evicted to make room, in eviction order.
        evictions: Evictions,
    },
}

impl Decision {
    /// A load with no evictions.
    pub fn load() -> Self {
        Decision::Load {
            evictions: Evictions::new(),
        }
    }

    /// True for [`Decision::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, Decision::Hit)
    }

    /// True for [`Decision::Bypass`].
    pub fn is_bypass(&self) -> bool {
        matches!(self, Decision::Bypass)
    }

    /// True for [`Decision::Load`].
    pub fn is_load(&self) -> bool {
        matches!(self, Decision::Load { .. })
    }
}

/// A cache-management policy.
///
/// Policies own their cache state. The simulator presents accesses in
/// trace order and audits the invariants: a `Hit` requires the object to
/// have been cached, a `Load` must not overflow the capacity, and in-line
/// policies never answer `Bypass` for an object that fits.
pub trait CachePolicy {
    /// Stable display name ("Rate-Profile", "GDS", ...).
    fn name(&self) -> &'static str;

    /// Decide how to serve one access.
    fn on_access(&mut self, access: &Access) -> Decision;

    /// True iff `object` is currently cached.
    fn contains(&self, object: ObjectId) -> bool;

    /// Bytes currently occupied.
    fn used(&self) -> Bytes;

    /// Configured capacity.
    fn capacity(&self) -> Bytes;

    /// Currently cached objects, in unspecified order (introspection for
    /// tests and reports).
    fn cached_objects(&self) -> Vec<ObjectId>;

    /// Drop `object` from the cache because its backing data or metadata
    /// changed at the server (the SkyQuery metadata-change notification of
    /// paper §6). Returns true iff the object was cached. The default
    /// suits stateless policies that never cache.
    fn invalidate(&mut self, object: ObjectId) -> bool {
        let _ = object;
        false
    }
}

impl<P: CachePolicy + ?Sized> CachePolicy for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        (**self).on_access(access)
    }

    fn contains(&self, object: ObjectId) -> bool {
        (**self).contains(object)
    }

    fn used(&self) -> Bytes {
        (**self).used()
    }

    fn capacity(&self) -> Bytes {
        (**self).capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        (**self).cached_objects()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        (**self).invalidate(object)
    }
}

impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_access(&mut self, access: &Access) -> Decision {
        (**self).on_access(access)
    }

    fn contains(&self, object: ObjectId) -> bool {
        (**self).contains(object)
    }

    fn used(&self) -> Bytes {
        (**self).used()
    }

    fn capacity(&self) -> Bytes {
        (**self).capacity()
    }

    fn cached_objects(&self) -> Vec<ObjectId> {
        (**self).cached_objects()
    }

    fn invalidate(&mut self, object: ObjectId) -> bool {
        (**self).invalidate(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn decision_predicates() {
        assert!(Decision::Hit.is_hit());
        assert!(Decision::Bypass.is_bypass());
        assert!(Decision::load().is_load());
        assert!(!Decision::Hit.is_load());
        assert_eq!(
            Decision::load(),
            Decision::Load {
                evictions: Evictions::new()
            }
        );
    }

    #[test]
    fn evictions_inline_then_spill() {
        let mut e = Evictions::new();
        assert!(e.is_empty());
        for i in 0..6u32 {
            e.push(oid(i));
        }
        assert_eq!(e.len(), 6);
        assert_eq!(
            e.as_slice(),
            &[oid(0), oid(1), oid(2), oid(3), oid(4), oid(5)]
        );
        // Deref + iteration see the same order.
        assert_eq!(e.first(), Some(&oid(0)));
        let collected: Vec<ObjectId> = (&e).into_iter().copied().collect();
        assert_eq!(
            collected,
            vec![oid(0), oid(1), oid(2), oid(3), oid(4), oid(5)]
        );
    }

    #[test]
    fn evictions_equality_ignores_representation() {
        // Same sequence, one inline and one spilled.
        let inline: Evictions = vec![oid(1), oid(2)].into();
        let mut spilled: Evictions = (0..6u32).map(oid).collect();
        assert_eq!(spilled.len(), 6);
        spilled = vec![oid(1), oid(2)].into();
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{:?}", vec![oid(1), oid(2)]));
        let empty: Evictions = Vec::new().into();
        assert_eq!(empty, Evictions::new());
    }
}
