//! The collector-plan interface and shared tracing machinery.

use std::fmt;

use vmprobe_platform::{Exec, HEAP_BASE, VM_BASE};

use crate::{
    CollectionStats, GcStats, ObjId, ObjKind, Object, ObjectHeap, RootSet, OBJECT_HEADER_BYTES,
};

/// Which space within a plan's heap layout an object currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The generational nursery.
    Nursery,
    /// Copying half `0` or `1` (SemiSpace halves, or a generational mature
    /// semispace).
    Half(u8),
    /// A segregated free-list cell (MarkSweep / GenMS mature / Kaffe).
    Cells,
}

/// Parameters of one allocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// Kind of object to create.
    pub kind: ObjKind,
    /// Number of reference slots.
    pub ref_len: u32,
    /// Number of primitive slots.
    pub prim_len: u32,
}

impl AllocRequest {
    /// An instance of class `class` with the given slot counts.
    pub fn instance(class: u16, ref_slots: u32, prim_slots: u32) -> Self {
        Self {
            kind: ObjKind::Instance { class },
            ref_len: ref_slots,
            prim_len: prim_slots,
        }
    }

    /// An integer array of `len` elements.
    pub fn int_array(len: u32) -> Self {
        Self {
            kind: ObjKind::IntArray,
            ref_len: 0,
            prim_len: len,
        }
    }

    /// A float array of `len` elements.
    pub fn float_array(len: u32) -> Self {
        Self {
            kind: ObjKind::FloatArray,
            ref_len: 0,
            prim_len: len,
        }
    }

    /// A reference array of `len` elements.
    pub fn ref_array(len: u32) -> Self {
        Self {
            kind: ObjKind::RefArray,
            ref_len: len,
            prim_len: 0,
        }
    }

    /// Total modeled bytes this object occupies (header + 8-byte slots).
    pub fn size_bytes(&self) -> u32 {
        OBJECT_HEADER_BYTES + 8 * (self.ref_len + self.prim_len)
    }
}

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The plan needs a collection before retrying.
    NeedsGc,
    /// Even a full collection cannot make room: the live set exceeds the
    /// configured heap. The runtime surfaces this as a VM error.
    OutOfMemory,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NeedsGc => write!(f, "allocation requires a garbage collection"),
            AllocError::OutOfMemory => write!(f, "heap exhausted: live data exceeds heap size"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A garbage collection policy over an [`ObjectHeap`].
///
/// Plans are stop-the-world from the runtime's point of view: `alloc`
/// returning [`AllocError::NeedsGc`] makes the runtime enter its GC
/// component (flagging the measurement port), call [`CollectorPlan::collect`]
/// and retry. All collector work is charged to the supplied [`Exec`] so the
/// sampling infrastructure observes the pause.
pub trait CollectorPlan {
    /// Which algorithm this plan implements.
    fn kind(&self) -> CollectorKind;

    /// Configured heap size in (simulated) bytes.
    fn heap_bytes(&self) -> u64;

    /// Try to allocate. Charges the allocation-sequence cost (bump or
    /// free-list search plus header initialization) to `exec` on success.
    ///
    /// # Errors
    ///
    /// [`AllocError::NeedsGc`] when a collection must run first;
    /// [`AllocError::OutOfMemory`] when the last collection failed to free
    /// enough room for this request.
    fn alloc(
        &mut self,
        heap: &mut ObjectHeap,
        req: AllocRequest,
        exec: &mut dyn Exec,
    ) -> Result<ObjId, AllocError>;

    /// Run a stop-the-world collection (plans choose minor vs major
    /// internally).
    fn collect(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats;

    /// Run a *full* collection (`System.gc()` semantics): generational
    /// plans force a major collection so mature-space garbage is also
    /// reclaimed. Non-generational plans collect normally.
    fn collect_full(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        self.collect(heap, roots, exec)
    }

    /// Mutator write barrier, invoked by the runtime *before* a reference
    /// store `src.field = target`. Non-generational plans inherit the no-op.
    fn write_barrier(
        &mut self,
        heap: &mut ObjectHeap,
        src: ObjId,
        target: Option<ObjId>,
        exec: &mut dyn Exec,
    ) {
        let _ = (heap, src, target, exec);
    }

    /// Whether the plan wants an incremental step soon (Kaffe's tri-color
    /// collector marks in bounded slices near heap pressure).
    fn wants_increment(&self) -> bool {
        false
    }

    /// Perform one bounded incremental step; returns stats when the step
    /// completed a whole cycle.
    fn increment(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> Option<CollectionStats> {
        let _ = (heap, roots, exec);
        None
    }

    /// Cumulative statistics.
    fn stats(&self) -> &GcStats;

    /// Human-readable plan name.
    fn name(&self) -> &'static str;
}

/// The collectors studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Non-generational copying collector with two semispaces.
    SemiSpace,
    /// Non-generational, non-moving mark-and-sweep over segregated free
    /// lists.
    MarkSweep,
    /// Generational: copying nursery + copying (semispace) mature space.
    GenCopy,
    /// Generational: copying nursery + mark-sweep mature space.
    GenMs,
    /// Kaffe's incremental conservative tri-color mark-sweep.
    KaffeIncremental,
}

/// A heap configuration the collector cannot honour — the typed form of
/// what used to be `assert!(heap_bytes >= ...)` panics in the concrete
/// plans, so misconfigured experiments surface as errors the supervised
/// runner can report and quarantine instead of aborting a whole sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfigError {
    /// The collector that rejected the configuration.
    pub collector: CollectorKind,
    /// Minimum heap the collector's layout needs, in bytes.
    pub required_bytes: u64,
    /// The heap that was requested, in bytes.
    pub actual_bytes: u64,
}

impl fmt::Display for HeapConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs a heap of at least {} bytes, got {}",
            self.collector, self.required_bytes, self.actual_bytes
        )
    }
}

impl std::error::Error for HeapConfigError {}

impl CollectorKind {
    /// Smallest heap the collector's layout can manage, in simulated bytes.
    pub fn min_heap_bytes(self) -> u64 {
        if self.is_generational() {
            // Nursery plus two mature halves.
            16384
        } else {
            // A single frame of workload data.
            4096
        }
    }

    /// The four Jikes RVM collectors in the paper's Figure 3, in its order.
    pub fn jikes_collectors() -> [CollectorKind; 4] {
        [
            CollectorKind::SemiSpace,
            CollectorKind::MarkSweep,
            CollectorKind::GenCopy,
            CollectorKind::GenMs,
        ]
    }

    /// Whether the plan maintains a nursery + write barrier.
    pub fn is_generational(self) -> bool {
        matches!(self, CollectorKind::GenCopy | CollectorKind::GenMs)
    }

    /// Whether the plan moves objects.
    pub fn is_moving(self) -> bool {
        !matches!(
            self,
            CollectorKind::MarkSweep | CollectorKind::KaffeIncremental
        )
    }

    /// Instantiate a plan managing `heap_bytes` of simulated heap.
    ///
    /// # Panics
    ///
    /// Panics on an undersized heap; use [`CollectorKind::try_new_plan`]
    /// when the configuration is untrusted (experiment sweeps).
    pub fn new_plan(self, heap_bytes: u64) -> Box<dyn CollectorPlan> {
        self.new_plan_configured(heap_bytes, None)
    }

    /// Fallible form of [`CollectorKind::new_plan`].
    pub fn try_new_plan(self, heap_bytes: u64) -> Result<Box<dyn CollectorPlan>, HeapConfigError> {
        self.try_new_plan_configured(heap_bytes, None)
    }

    /// Instantiate a plan with an optional nursery-size override for the
    /// generational plans (ignored by non-generational plans). Used by
    /// nursery-sizing ablation studies.
    ///
    /// # Panics
    ///
    /// Panics on an undersized heap; use
    /// [`CollectorKind::try_new_plan_configured`] when the configuration is
    /// untrusted.
    pub fn new_plan_configured(
        self,
        heap_bytes: u64,
        nursery_override: Option<u64>,
    ) -> Box<dyn CollectorPlan> {
        self.try_new_plan_configured(heap_bytes, nursery_override)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`CollectorKind::new_plan_configured`]: rejects
    /// heaps below [`CollectorKind::min_heap_bytes`] with a typed error
    /// instead of panicking.
    pub fn try_new_plan_configured(
        self,
        heap_bytes: u64,
        nursery_override: Option<u64>,
    ) -> Result<Box<dyn CollectorPlan>, HeapConfigError> {
        if heap_bytes < self.min_heap_bytes() {
            return Err(HeapConfigError {
                collector: self,
                required_bytes: self.min_heap_bytes(),
                actual_bytes: heap_bytes,
            });
        }
        Ok(match (self, nursery_override) {
            (CollectorKind::SemiSpace, _) => Box::new(crate::SemiSpace::new(heap_bytes)),
            (CollectorKind::MarkSweep, _) => Box::new(crate::MarkSweep::new(heap_bytes)),
            (CollectorKind::GenCopy, None) => Box::new(crate::GenCopy::new(heap_bytes)),
            (CollectorKind::GenCopy, Some(n)) => {
                Box::new(crate::GenCopy::with_nursery(heap_bytes, n))
            }
            (CollectorKind::GenMs, None) => Box::new(crate::GenMs::new(heap_bytes)),
            (CollectorKind::GenMs, Some(n)) => Box::new(crate::GenMs::with_nursery(heap_bytes, n)),
            (CollectorKind::KaffeIncremental, _) => {
                Box::new(crate::KaffeIncremental::new(heap_bytes))
            }
        })
    }
}

impl CollectorKind {
    /// The collector's display name as a static string (handy for typed
    /// errors that avoid allocation).
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::SemiSpace => "SemiSpace",
            CollectorKind::MarkSweep => "MarkSweep",
            CollectorKind::GenCopy => "GenCopy",
            CollectorKind::GenMs => "GenMS",
            CollectorKind::KaffeIncremental => "KaffeIncMS",
        }
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---- shared machinery used by the concrete plans ----

/// The collector's hot working set (the active mark-queue segment):
/// L1-resident on both platforms.
const GC_QUEUE_SET: u64 = 8 << 10;
const GC_QUEUE_BASE: u64 = VM_BASE + 0x0040_0000;
/// The collector's cold metadata (mark bitmap / side tables): L2-resident
/// on the P6, the traffic mix behind the paper's ~54% GC L2 miss rate.
const GC_BITMAP_SET: u64 = 192 << 10;
const GC_BITMAP_BASE: u64 = VM_BASE + 0x0050_0000;

/// Charge the cost of examining one object during tracing: header load,
/// one load per reference slot, mark-state tests, and mark-queue /
/// mark-bitmap traffic.
pub(crate) fn charge_scan(exec: &mut dyn Exec, obj: &Object) {
    exec.load(obj.addr);
    let n = obj.ref_count() as u32;
    for i in 0..n {
        exec.load(obj.addr + u64::from(OBJECT_HEADER_BYTES) + u64::from(i) * 8);
    }
    // Mark tests, queue pushes/pops, space checks.
    exec.int_ops(6 * n + 16);
    exec.load(GC_QUEUE_BASE + (obj.addr * 8) % GC_QUEUE_SET);
    exec.store(GC_QUEUE_BASE + (obj.addr * 8 + 64) % GC_QUEUE_SET);
    // Mark-bitmap word for this object's chunk.
    exec.load(GC_BITMAP_BASE + (obj.addr / 512 * 8) % GC_BITMAP_SET);
    exec.branch();
}

/// Charge the cost of scanning the root set (register/stack/static scan).
pub(crate) fn charge_root_scan(exec: &mut dyn Exec, roots: &RootSet) {
    let n = roots.scan_len() as u32;
    exec.int_ops(2 * n + 16);
    // Roots live in stack/static memory; touch a line per few entries.
    let lines = n / 8 + 1;
    for i in 0..lines {
        exec.load(vmprobe_platform::STACK_BASE + u64::from(i) * 64);
    }
}

/// Charge the bookkeeping of one allocation fast path.
pub(crate) fn charge_alloc(exec: &mut dyn Exec, addr: u64, size: u32) {
    exec.int_ops(6);
    // Header initialization touches the new object's first line.
    exec.store(addr);
    // Zeroing cost for the payload, one store per line.
    if size > 64 {
        exec.stream_write(addr + 64, size - 64);
    }
}

/// Charge a remembered-set insertion (slow path of the write barrier).
pub(crate) fn charge_remember(exec: &mut dyn Exec, slot: u64) {
    exec.int_ops(3);
    exec.store(VM_BASE + (slot % 4096) * 8);
}

/// Mark helper: returns true when `id` was not yet marked in `epoch`.
pub(crate) fn mark(heap: &mut ObjectHeap, id: ObjId, epoch: u32) -> bool {
    let o = heap.get_mut(id);
    if o.mark_epoch == epoch {
        false
    } else {
        o.mark_epoch = epoch;
        true
    }
}

/// Align `n` up to 8 bytes.
pub(crate) fn align8(n: u64) -> u64 {
    (n + 7) & !7
}

/// Base address helper: plans carve their spaces out of the heap region.
pub(crate) fn heap_region(offset: u64) -> u64 {
    HEAP_BASE + offset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes() {
        assert_eq!(AllocRequest::instance(0, 2, 2).size_bytes(), 16 + 32);
        assert_eq!(AllocRequest::int_array(10).size_bytes(), 16 + 80);
        assert_eq!(AllocRequest::ref_array(4).size_bytes(), 16 + 32);
    }

    #[test]
    fn kind_predicates() {
        assert!(CollectorKind::GenCopy.is_generational());
        assert!(!CollectorKind::SemiSpace.is_generational());
        assert!(CollectorKind::SemiSpace.is_moving());
        assert!(!CollectorKind::MarkSweep.is_moving());
        assert_eq!(CollectorKind::jikes_collectors().len(), 4);
    }

    #[test]
    fn align8_works() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }

    #[test]
    fn alloc_error_display() {
        assert!(format!("{}", AllocError::OutOfMemory).contains("heap exhausted"));
        assert!(format!("{}", AllocError::NeedsGc).contains("collection"));
    }
}
