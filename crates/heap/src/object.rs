//! Handle-addressed object model over a simulated address space.
//!
//! Objects are identified by a stable handle ([`ObjId`]); their *simulated
//! address* is a separate attribute that copying collectors rewrite when
//! they relocate an object. This split keeps the mutator simple (references
//! never need forwarding) while preserving exactly what the platform model
//! cares about: which addresses the mutator and collector touch.

use vmprobe_platform::Addr;

use crate::plan::Space;

/// Bytes of object header (status word + type information block pointer,
/// matching the paper-era Jikes RVM two-word header rounded to alignment).
pub const OBJECT_HEADER_BYTES: u32 = 16;

/// Stable handle to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

impl std::fmt::Display for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// What kind of heap object a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A class instance; the payload layout is `refs ++ prims`.
    Instance {
        /// Class tag assigned by the runtime (opaque to the heap).
        class: u16,
    },
    /// Array of 64-bit integers.
    IntArray,
    /// Array of 64-bit floats (stored as bits).
    FloatArray,
    /// Array of references (traced).
    RefArray,
}

pub(crate) const FLAG_IN_REMSET: u8 = 0b0000_0001;

/// One live heap object.
///
/// Fields are crate-private; the collectors mutate address/space/mark state
/// directly, while the runtime goes through [`ObjectHeap`] accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    pub(crate) addr: Addr,
    pub(crate) size: u32,
    pub(crate) kind: ObjKind,
    pub(crate) space: Space,
    pub(crate) mark_epoch: u32,
    pub(crate) flags: u8,
    pub(crate) refs: Vec<Option<ObjId>>,
    pub(crate) prims: Vec<u64>,
}

impl Object {
    pub(crate) fn new(
        addr: Addr,
        size: u32,
        kind: ObjKind,
        space: Space,
        ref_len: u32,
        prim_len: u32,
    ) -> Self {
        Self {
            addr,
            size,
            kind,
            space,
            mark_epoch: 0,
            flags: 0,
            refs: vec![None; ref_len as usize],
            prims: vec![0; prim_len as usize],
        }
    }

    /// Simulated address of the object header.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Total simulated size in bytes, header included.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Object kind.
    pub fn kind(&self) -> ObjKind {
        self.kind
    }

    /// Which collector space currently holds the object.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Number of reference slots (fields or array elements).
    pub fn ref_count(&self) -> usize {
        self.refs.len()
    }

    /// Number of primitive slots.
    pub fn prim_count(&self) -> usize {
        self.prims.len()
    }

    pub(crate) fn in_remset(&self) -> bool {
        self.flags & FLAG_IN_REMSET != 0
    }

    pub(crate) fn set_in_remset(&mut self, v: bool) {
        if v {
            self.flags |= FLAG_IN_REMSET;
        } else {
            self.flags &= !FLAG_IN_REMSET;
        }
    }
}

/// The object table: every live object, indexed by [`ObjId`].
///
/// Slots of freed objects are recycled. Allocation statistics accumulate for
/// the lifetime of the heap (they feed the workload inventories and GC
/// reports).
#[derive(Debug, Clone, Default)]
pub struct ObjectHeap {
    slots: Vec<Option<Object>>,
    free_slots: Vec<u32>,
    live_objects: u64,
    live_bytes: u64,
    total_alloc_objects: u64,
    total_alloc_bytes: u64,
}

impl ObjectHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Sum of live object sizes in bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Objects allocated over the heap's lifetime.
    pub fn total_alloc_objects(&self) -> u64 {
        self.total_alloc_objects
    }

    /// Bytes allocated over the heap's lifetime.
    pub fn total_alloc_bytes(&self) -> u64 {
        self.total_alloc_bytes
    }

    pub(crate) fn insert(&mut self, obj: Object) -> ObjId {
        self.live_objects += 1;
        self.live_bytes += u64::from(obj.size);
        self.total_alloc_objects += 1;
        self.total_alloc_bytes += u64::from(obj.size);
        match self.free_slots.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(obj);
                ObjId(i)
            }
            None => {
                self.slots.push(Some(obj));
                ObjId((self.slots.len() - 1) as u32)
            }
        }
    }

    pub(crate) fn remove(&mut self, id: ObjId) -> Object {
        let obj = self.slots[id.0 as usize].take().expect("double free");
        self.free_slots.push(id.0);
        self.live_objects -= 1;
        self.live_bytes -= u64::from(obj.size);
        obj
    }

    /// Whether `id` refers to a live object.
    pub fn contains(&self, id: ObjId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Borrow an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` has been freed — with a correct collector and runtime
    /// this indicates a GC safety bug, so failing loudly is deliberate.
    pub fn get(&self, id: ObjId) -> &Object {
        self.slots[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("{id} used after free"))
    }

    pub(crate) fn get_mut(&mut self, id: ObjId) -> &mut Object {
        self.slots[id.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("{id} used after free"))
    }

    /// Read reference slot `i`.
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn get_ref(&self, id: ObjId, i: usize) -> Option<ObjId> {
        self.get(id).refs[i]
    }

    /// Write reference slot `i`. The *runtime* is responsible for invoking
    /// the collector's write barrier around this store.
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn set_ref(&mut self, id: ObjId, i: usize, v: Option<ObjId>) {
        self.get_mut(id).refs[i] = v;
    }

    /// Read primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn get_prim(&self, id: ObjId, i: usize) -> u64 {
        self.get(id).prims[i]
    }

    /// Write primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn set_prim(&mut self, id: ObjId, i: usize, v: u64) {
        self.get_mut(id).prims[i] = v;
    }

    /// Iterate over the ids of all live objects.
    pub fn iter_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ObjId(i as u32)))
    }

    /// Free every live object for which `pred` returns true, returning
    /// `(count, bytes)` freed. Used by collectors to reclaim unmarked
    /// objects.
    pub(crate) fn free_matching(&mut self, mut pred: impl FnMut(&Object) -> bool) -> (u64, u64) {
        let mut count = 0;
        let mut bytes = 0;
        for i in 0..self.slots.len() {
            let matches = match &self.slots[i] {
                Some(o) => pred(o),
                None => false,
            };
            if matches {
                let o = self.remove(ObjId(i as u32));
                count += 1;
                bytes += u64::from(o.size);
            }
        }
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(size: u32) -> Object {
        Object::new(
            0x1000_0000,
            size,
            ObjKind::Instance { class: 0 },
            Space::Half(0),
            2,
            2,
        )
    }

    #[test]
    fn insert_and_accounting() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let b = h.insert(obj(32));
        assert_eq!(h.live_objects(), 2);
        assert_eq!(h.live_bytes(), 96);
        assert_eq!(h.total_alloc_bytes(), 96);
        assert!(h.contains(a) && h.contains(b));
    }

    #[test]
    fn remove_recycles_slots() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        h.remove(a);
        assert!(!h.contains(a));
        let b = h.insert(obj(32));
        // Slot reuse: same index.
        assert_eq!(a.0, b.0);
        assert_eq!(h.live_objects(), 1);
        // Lifetime totals keep counting.
        assert_eq!(h.total_alloc_objects(), 2);
    }

    #[test]
    fn ref_and_prim_slots() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        let b = h.insert(obj(64));
        h.set_ref(a, 0, Some(b));
        h.set_prim(a, 1, 42);
        assert_eq!(h.get_ref(a, 0), Some(b));
        assert_eq!(h.get_ref(a, 1), None);
        assert_eq!(h.get_prim(a, 1), 42);
    }

    #[test]
    #[should_panic(expected = "used after free")]
    fn use_after_free_panics() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(64));
        h.remove(a);
        let _ = h.get(a);
    }

    #[test]
    fn free_matching_filters() {
        let mut h = ObjectHeap::new();
        let _a = h.insert(obj(64));
        let b = h.insert(obj(128));
        let (n, bytes) = h.free_matching(|o| o.size() == 64);
        assert_eq!((n, bytes), (1, 64));
        assert!(h.contains(b));
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    fn iter_ids_covers_live_only() {
        let mut h = ObjectHeap::new();
        let a = h.insert(obj(8));
        let b = h.insert(obj(8));
        h.remove(a);
        let ids: Vec<_> = h.iter_ids().collect();
        assert_eq!(ids, vec![b]);
    }

    #[test]
    fn remset_flag_round_trips() {
        let mut o = obj(64);
        assert!(!o.in_remset());
        o.set_in_remset(true);
        assert!(o.in_remset());
        o.set_in_remset(false);
        assert!(!o.in_remset());
    }
}
