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

/// Payload words an object keeps inline; larger payloads are boxed.
const INLINE_SLOTS: usize = 4;

/// An object's payload: `ref_len` reference slots, each stored as
/// `id + 1` with 0 for null, followed by the primitive slots.
#[derive(Debug, Clone, PartialEq)]
enum Slots {
    /// Payloads of up to [`INLINE_SLOTS`] words; unused words stay 0.
    Inline([u64; INLINE_SLOTS]),
    /// Larger payloads, exactly `ref_len + prim_len` words.
    Boxed(Box<[u64]>),
}

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
    ref_len: u32,
    prim_len: u32,
    slots: Slots,
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
        let words = ref_len as usize + prim_len as usize;
        Self {
            addr,
            size,
            kind,
            space,
            mark_epoch: 0,
            flags: 0,
            ref_len,
            prim_len,
            slots: if words <= INLINE_SLOTS {
                Slots::Inline([0; INLINE_SLOTS])
            } else {
                Slots::Boxed(vec![0; words].into_boxed_slice())
            },
        }
    }

    fn words(&self) -> &[u64] {
        match &self.slots {
            Slots::Inline(w) => w,
            Slots::Boxed(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.slots {
            Slots::Inline(w) => w,
            Slots::Boxed(w) => w,
        }
    }

    /// Index of reference slot `i` in the payload.
    fn ref_word(&self, i: usize) -> usize {
        assert!(i < self.ref_count(), "ref slot {i} out of range");
        i
    }

    /// Index of primitive slot `i` in the payload.
    fn prim_word(&self, i: usize) -> usize {
        assert!(i < self.prim_count(), "prim slot {i} out of range");
        self.ref_count() + i
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
        self.ref_len as usize
    }

    /// Number of primitive slots.
    pub fn prim_count(&self) -> usize {
        self.prim_len as usize
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
        let o = self.get(id);
        let w = o.words()[o.ref_word(i)];
        w.checked_sub(1).map(|v| ObjId(v as u32))
    }

    /// Write reference slot `i`. The *runtime* is responsible for invoking
    /// the collector's write barrier around this store.
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn set_ref(&mut self, id: ObjId, i: usize, v: Option<ObjId>) {
        let o = self.get_mut(id);
        let w = o.ref_word(i);
        o.words_mut()[w] = v.map_or(0, |r| u64::from(r.0) + 1);
    }

    /// Read primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn get_prim(&self, id: ObjId, i: usize) -> u64 {
        let o = self.get(id);
        o.words()[o.prim_word(i)]
    }

    /// Write primitive slot `i` (raw bits).
    ///
    /// # Panics
    ///
    /// Panics on a freed `id` or out-of-range slot.
    pub fn set_prim(&mut self, id: ObjId, i: usize, v: u64) {
        let o = self.get_mut(id);
        let w = o.prim_word(i);
        o.words_mut()[w] = v;
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

    fn with_slots(h: &mut ObjectHeap, refs: u32, prims: u32) -> ObjId {
        let size = OBJECT_HEADER_BYTES + 8 * (refs + prims);
        h.insert(Object::new(
            0x1000_0000,
            size,
            ObjKind::Instance { class: 0 },
            Space::Cells,
            refs,
            prims,
        ))
    }

    /// Fill every slot with a distinct value, then read them all back.
    fn round_trip(refs: u32, prims: u32) {
        let mut h = ObjectHeap::new();
        let o = with_slots(&mut h, refs, prims);
        let inline = matches!(h.get(o).slots, Slots::Inline(_));
        assert_eq!(inline, refs + prims <= 4, "{refs}+{prims} slots");
        assert_eq!(h.get(o).ref_count(), refs as usize);
        assert_eq!(h.get(o).prim_count(), prims as usize);
        for i in 0..refs as usize {
            assert_eq!(h.get_ref(o, i), None, "refs start null");
            h.set_ref(o, i, Some(ObjId(i as u32)));
        }
        for i in 0..prims as usize {
            assert_eq!(h.get_prim(o, i), 0, "prims start zeroed");
            h.set_prim(o, i, u64::MAX - i as u64);
        }
        for i in 0..refs as usize {
            assert_eq!(h.get_ref(o, i), Some(ObjId(i as u32)));
        }
        for i in 0..prims as usize {
            assert_eq!(h.get_prim(o, i), u64::MAX - i as u64);
        }
        if refs > 0 {
            h.set_ref(o, 0, None);
            assert_eq!(h.get_ref(o, 0), None);
        }
    }

    #[test]
    fn payloads_round_trip_across_the_inline_limit() {
        for (refs, prims) in [
            (0, 0),
            (2, 2),
            (4, 0),
            (0, 4),
            (3, 2),
            (5, 0),
            (0, 5),
            (9, 7),
        ] {
            round_trip(refs, prims);
        }
    }

    #[test]
    fn object_id_zero_is_not_null() {
        let mut h = ObjectHeap::new();
        let o = with_slots(&mut h, 1, 0);
        h.set_ref(o, 0, Some(ObjId(0)));
        assert_eq!(h.get_ref(o, 0), Some(ObjId(0)));
    }

    /// Payload shapes on both sides of the inline limit: inline payloads
    /// with spare words past the last slot and without, boxed ones with and
    /// without primitive slots.
    const SHAPES: [(u32, u32); 6] = [(1, 0), (0, 1), (2, 2), (1, 3), (3, 3), (5, 0)];

    #[test]
    fn ref_index_past_ref_count_panics_in_both_layouts() {
        for (refs, prims) in SHAPES {
            let mut h = ObjectHeap::new();
            let o = with_slots(&mut h, refs, prims);
            if prims > 0 {
                // The word right after the last ref slot.
                h.set_prim(o, 0, 1);
            }
            let i = refs as usize;
            let read = std::panic::catch_unwind(|| h.get_ref(o, i));
            assert!(read.is_err(), "get_ref({i}) on {refs}+{prims} slots");
            let mut h2 = h.clone();
            let write = std::panic::catch_unwind(move || h2.set_ref(o, i, None));
            assert!(write.is_err(), "set_ref({i}) on {refs}+{prims} slots");
        }
    }

    #[test]
    fn prim_index_past_prim_count_panics_in_both_layouts() {
        for (refs, prims) in SHAPES {
            let mut h = ObjectHeap::new();
            let o = with_slots(&mut h, refs, prims);
            let i = prims as usize;
            let read = std::panic::catch_unwind(|| h.get_prim(o, i));
            assert!(read.is_err(), "get_prim({i}) on {refs}+{prims} slots");
            let mut h2 = h.clone();
            let write = std::panic::catch_unwind(move || h2.set_prim(o, i, 1));
            assert!(write.is_err(), "set_prim({i}) on {refs}+{prims} slots");
        }
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
