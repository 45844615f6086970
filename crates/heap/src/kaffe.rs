//! Kaffe's incremental, conservative, tri-color mark-sweep collector.
//!
//! Kaffe 1.1.4 (the version the paper measures) uses a non-moving
//! mark-sweep collector with three distinguishing behaviours this plan
//! reproduces:
//!
//! * **incremental**: once heap occupancy crosses a trigger threshold the
//!   collector marks in bounded slices interleaved with allocation, rather
//!   than one long pause — the reason Kaffe's GC shows up as many short
//!   component activations in the paper's traces;
//! * **conservative**: in addition to precise roots, every raw word in the
//!   mutator stacks ([`RootSet::ambiguous`]) that *looks like* a heap
//!   address pins the object it points into, retaining extra floating
//!   garbage;
//! * **tri-color safety**: objects allocated during a marking cycle are
//!   allocated *black* (marked), and the final slice re-seeds from the
//!   current roots and completes the trace before sweeping, so no object
//!   reachable at sweep time is ever reclaimed.

use std::collections::VecDeque;

use vmprobe_platform::Exec;

use crate::marksweep::SegregatedFreeList;
use crate::plan::{charge_alloc, charge_root_scan, charge_scan, heap_region, mark};
use crate::{
    AllocError, AllocRequest, CollectionKind, CollectionStats, CollectorKind, CollectorPlan,
    GcStats, ObjId, Object, ObjectHeap, RootSet, Space,
};

/// Heap-occupancy fraction at which incremental marking begins.
const TRIGGER_FRACTION: f64 = 0.75;

/// Objects scanned per incremental slice.
const INCREMENT_BUDGET: usize = 192;

#[derive(Debug, Clone)]
enum Phase {
    Idle,
    Marking { queue: VecDeque<ObjId> },
}

/// Live objects sorted by start address, built for one root scan.
struct AddrIndex(Vec<(u64, ObjId, u32)>);

impl AddrIndex {
    fn new(heap: &ObjectHeap) -> Self {
        let mut v: Vec<_> = heap
            .iter_ids()
            .map(|id| {
                let o = heap.get(id);
                (o.addr(), id, o.size())
            })
            .collect();
        v.sort_unstable_by_key(|&(addr, ..)| addr);
        Self(v)
    }

    /// The object whose cell contains `word`: the last one starting at or
    /// below it, if `word` is inside that object's cell.
    fn target(&self, word: u64) -> Option<ObjId> {
        let i = self.0.partition_point(|&(addr, ..)| addr <= word);
        let &(addr, id, size) = self.0.get(i.checked_sub(1)?)?;
        (word < addr + SegregatedFreeList::cell_size(size)).then_some(id)
    }
}

/// Kaffe-style incremental conservative mark-sweep plan.
#[derive(Debug, Clone)]
pub struct KaffeIncremental {
    heap_bytes: u64,
    fl: SegregatedFreeList,
    epoch: u32,
    phase: Phase,
    trigger_bytes: u64,
    stats: GcStats,
}

impl KaffeIncremental {
    /// Create a plan managing `heap_bytes` of simulated heap.
    ///
    /// # Panics
    ///
    /// Panics if `heap_bytes < 4096`. Use [`KaffeIncremental::try_new`]
    /// for untrusted configurations.
    pub fn new(heap_bytes: u64) -> Self {
        assert!(heap_bytes >= 4096, "heap too small");
        Self {
            heap_bytes,
            fl: SegregatedFreeList::new(heap_region(0), heap_bytes),
            epoch: 0,
            phase: Phase::Idle,
            trigger_bytes: (heap_bytes as f64 * TRIGGER_FRACTION) as u64,
            stats: GcStats::default(),
        }
    }

    /// Fallible constructor: rejects undersized heaps with a typed error
    /// instead of panicking.
    pub fn try_new(heap_bytes: u64) -> Result<Self, crate::plan::HeapConfigError> {
        let min = crate::CollectorKind::KaffeIncremental.min_heap_bytes();
        if heap_bytes < min {
            return Err(crate::plan::HeapConfigError {
                collector: crate::CollectorKind::KaffeIncremental,
                required_bytes: min,
                actual_bytes: heap_bytes,
            });
        }
        Ok(Self::new(heap_bytes))
    }

    /// Cell-granular occupancy.
    pub fn used_bytes(&self) -> u64 {
        self.fl.used_bytes()
    }

    /// Whether a marking cycle is in progress.
    pub fn is_marking(&self) -> bool {
        matches!(self.phase, Phase::Marking { .. })
    }

    /// Seed the mark queue from precise and ambiguous roots.
    fn seed_roots(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
        queue: &mut VecDeque<ObjId>,
    ) {
        charge_root_scan(exec, roots);
        let epoch = self.epoch;
        for &r in &roots.refs {
            if mark(heap, r, epoch) {
                queue.push_back(r);
            }
        }
        if roots.ambiguous.is_empty() {
            return;
        }
        // Conservative scan: each raw word costs a range lookup. The plan is
        // the only allocator of its heap, so the live objects are exactly
        // the cells it has handed out and not swept.
        let index = AddrIndex::new(heap);
        for &w in &roots.ambiguous {
            exec.int_ops(4);
            if let Some(id) = index.target(w) {
                if mark(heap, id, epoch) {
                    queue.push_back(id);
                }
            }
        }
    }

    /// Scan up to `budget` objects off the queue; returns objects scanned.
    fn mark_slice(
        &mut self,
        heap: &mut ObjectHeap,
        exec: &mut dyn Exec,
        queue: &mut VecDeque<ObjId>,
        budget: usize,
    ) -> u64 {
        let epoch = self.epoch;
        let mut scanned = 0u64;
        while scanned < budget as u64 {
            let Some(id) = queue.pop_front() else { break };
            charge_scan(exec, heap.get(id));
            for i in 0..heap.get(id).ref_count() {
                if let Some(t) = heap.get_ref(id, i) {
                    if mark(heap, t, epoch) {
                        queue.push_back(t);
                    }
                }
            }
            scanned += 1;
        }
        scanned
    }

    /// Sweep every cell, freeing objects not marked in the current epoch.
    fn sweep(
        &mut self,
        heap: &mut ObjectHeap,
        exec: &mut dyn Exec,
        start_cycles: u64,
        live_hint: u64,
    ) -> CollectionStats {
        let epoch = self.epoch;
        let ids: Vec<ObjId> = heap.iter_ids().collect();
        let mut freed_objects = 0u64;
        let mut freed_bytes = 0u64;
        let mut live_objects = 0u64;
        let mut live_bytes = 0u64;
        for id in ids {
            let (addr, size, marked) = {
                let o = heap.get(id);
                (o.addr(), o.size(), o.mark_epoch == epoch)
            };
            exec.load(addr);
            exec.int_ops(3);
            self.stats.total_swept_objects += 1;
            if marked {
                live_objects += 1;
                live_bytes += u64::from(size);
            } else {
                self.fl.free(addr, size);
                heap.remove(id);
                freed_objects += 1;
                freed_bytes += u64::from(size);
            }
        }
        self.phase = Phase::Idle;
        let c = CollectionStats {
            kind: CollectionKind::Major,
            live_objects: live_objects.max(live_hint),
            live_bytes,
            freed_objects,
            freed_bytes,
            copied_bytes: 0,
            pause_cycles: exec.cycles() - start_cycles,
        };
        self.stats.record(&c);
        c
    }

    /// Run marking to completion from the current phase and sweep.
    fn finish_cycle(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        let start = exec.cycles();
        let mut queue = match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Marking { queue } => queue,
            Phase::Idle => {
                self.epoch += 1;
                VecDeque::new()
            }
        };
        // Re-seed from the *current* roots (tri-color completion: anything
        // reachable now must be marked before we sweep).
        self.seed_roots(heap, roots, exec, &mut queue);
        let mut marked = 0u64;
        loop {
            let n = self.mark_slice(heap, exec, &mut queue, usize::MAX);
            marked += n;
            if queue.is_empty() {
                break;
            }
        }
        self.sweep(heap, exec, start, marked)
    }
}

impl CollectorPlan for KaffeIncremental {
    fn kind(&self) -> CollectorKind {
        CollectorKind::KaffeIncremental
    }

    fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    fn alloc(
        &mut self,
        heap: &mut ObjectHeap,
        req: AllocRequest,
        exec: &mut dyn Exec,
    ) -> Result<ObjId, AllocError> {
        let size = req.size_bytes();
        let addr = self.fl.alloc(size, exec).ok_or(AllocError::NeedsGc)?;
        charge_alloc(exec, addr, size);
        let id = heap.insert(Object::new(
            addr,
            size,
            req.kind,
            Space::Cells,
            req.ref_len,
            req.prim_len,
        ));
        // Allocate black during a marking cycle.
        if self.is_marking() {
            heap.get_mut(id).mark_epoch = self.epoch;
        }
        Ok(id)
    }

    fn collect(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> CollectionStats {
        self.finish_cycle(heap, roots, exec)
    }

    fn wants_increment(&self) -> bool {
        self.is_marking() || self.fl.used_bytes() > self.trigger_bytes
    }

    fn increment(
        &mut self,
        heap: &mut ObjectHeap,
        roots: &RootSet,
        exec: &mut dyn Exec,
    ) -> Option<CollectionStats> {
        let start = exec.cycles();
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {
                if self.fl.used_bytes() <= self.trigger_bytes {
                    return None;
                }
                // Start a new cycle: bump epoch, seed roots, scan a slice.
                self.epoch += 1;
                let mut queue = VecDeque::new();
                self.seed_roots(heap, roots, exec, &mut queue);
                self.mark_slice(heap, exec, &mut queue, INCREMENT_BUDGET);
                self.stats.increments += 1;
                self.stats.total_pause_cycles += exec.cycles() - start;
                // Keep the cycle's phase (and epoch) alive for the finish.
                self.phase = Phase::Marking { queue };
                if let Phase::Marking { queue } = &self.phase {
                    if queue.is_empty() {
                        return Some(self.finish_cycle(heap, roots, exec));
                    }
                }
                None
            }
            Phase::Marking { mut queue } => {
                self.mark_slice(heap, exec, &mut queue, INCREMENT_BUDGET);
                self.stats.increments += 1;
                self.stats.total_pause_cycles += exec.cycles() - start;
                let done = queue.is_empty();
                self.phase = Phase::Marking { queue };
                if done {
                    Some(self.finish_cycle(heap, roots, exec))
                } else {
                    None
                }
            }
        }
    }

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "Kaffe incremental conservative mark-sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    fn setup(bytes: u64) -> (ObjectHeap, KaffeIncremental, Machine) {
        (
            ObjectHeap::new(),
            KaffeIncremental::new(bytes),
            Machine::new(PlatformKind::PentiumM),
        )
    }

    #[test]
    fn precise_collection_frees_garbage() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let live = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let _dead = plan
            .alloc(&mut heap, AllocRequest::instance(0, 1, 1), &mut m)
            .unwrap();
        let s = plan.collect(&mut heap, &RootSet::from_refs(vec![live]), &mut m);
        assert_eq!(s.freed_objects, 1);
        assert!(heap.contains(live));
    }

    #[test]
    fn ambiguous_word_pins_object() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        // A raw word pointing into the middle of `a`'s cell.
        let interior = heap.get(a).addr() + 12;
        let roots = RootSet {
            refs: vec![],
            ambiguous: vec![interior],
        };
        let s = plan.collect(&mut heap, &roots, &mut m);
        assert_eq!(s.freed_objects, 0);
        assert!(
            heap.contains(a),
            "conservatively pinned object must survive"
        );
    }

    #[test]
    fn non_pointer_words_do_not_pin() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        let roots = RootSet {
            refs: vec![],
            ambiguous: vec![7, 0xdead_beef],
        };
        plan.collect(&mut heap, &roots, &mut m);
        assert!(!heap.contains(a));
    }

    /// Collect with only `words` as (ambiguous) roots.
    fn collect_ambiguous(
        heap: &mut ObjectHeap,
        plan: &mut KaffeIncremental,
        m: &mut Machine,
        words: Vec<u64>,
    ) -> CollectionStats {
        let roots = RootSet {
            refs: vec![],
            ambiguous: words,
        };
        plan.collect(heap, &roots, m)
    }

    #[test]
    fn word_in_cell_slack_pins_object() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        // 16 + 3 * 8 = 40 bytes in a 48-byte cell: bytes 40..48 are slack.
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 3), &mut m)
            .unwrap();
        let (addr, size) = (heap.get(a).addr(), heap.get(a).size());
        assert_eq!(SegregatedFreeList::cell_size(size), 48);
        // The header word pins too, as does any interior word.
        for w in [addr, addr + u64::from(size), addr + 47] {
            let s = collect_ambiguous(&mut heap, &mut plan, &mut m, vec![w]);
            assert_eq!(s.freed_objects, 0, "word {w:#x} in the cell must pin");
            assert!(heap.contains(a));
        }
    }

    #[test]
    fn word_at_cell_end_does_not_pin() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 3), &mut m)
            .unwrap();
        let end = heap.get(a).addr() + SegregatedFreeList::cell_size(heap.get(a).size());
        let s = collect_ambiguous(&mut heap, &mut plan, &mut m, vec![end]);
        assert_eq!(s.freed_objects, 1);
        assert!(!heap.contains(a));
    }

    #[test]
    fn word_below_lowest_object_does_not_pin() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 3), &mut m)
            .unwrap();
        let below = heap.get(a).addr() - 1;
        let s = collect_ambiguous(&mut heap, &mut plan, &mut m, vec![below]);
        assert_eq!(s.freed_objects, 1);
        assert!(!heap.contains(a));
    }

    #[test]
    fn swept_object_no_longer_pins_its_address() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        // `p` sits just below `a`, in a different size class, so `a`'s cell
        // cannot be reused by the later allocation of `p`'s class.
        let p = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 1), &mut m)
            .unwrap();
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 3), &mut m)
            .unwrap();
        let a_addr = heap.get(a).addr();
        let keep = RootSet::from_refs(vec![p]);
        plan.collect(&mut heap, &keep, &mut m);
        assert!(!heap.contains(a));
        // An unrooted object allocated after the sweep, in `p`'s class.
        let d = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 1), &mut m)
            .unwrap();
        assert_ne!(heap.get(d).addr(), a_addr);
        let roots = RootSet {
            refs: vec![p],
            ambiguous: vec![a_addr, a_addr + 8],
        };
        let s = plan.collect(&mut heap, &roots, &mut m);
        assert_eq!(s.freed_objects, 1);
        assert!(heap.contains(p) && !heap.contains(d));
        // Once the cell is reused, the same word pins the new tenant.
        let b = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 3), &mut m)
            .unwrap();
        assert_eq!(heap.get(b).addr(), a_addr);
        let s = collect_ambiguous(&mut heap, &mut plan, &mut m, vec![a_addr + 8]);
        assert_eq!(s.freed_objects, 1, "only `p` is unrooted now");
        assert!(heap.contains(b) && !heap.contains(p));
    }

    #[test]
    fn incremental_cycle_triggers_under_pressure_and_completes() {
        let (mut heap, mut plan, mut m) = setup(32 << 10);
        let mut roots = Vec::new();
        // Fill past the 75% trigger with half-live data (96-byte cells;
        // 300 x 96 = 28.1 KiB > 24 KiB trigger).
        for i in 0..300 {
            let id = plan
                .alloc(&mut heap, AllocRequest::instance(0, 0, 10), &mut m)
                .unwrap();
            if i % 2 == 0 {
                roots.push(id);
            }
        }
        assert!(plan.wants_increment());
        let rs = RootSet::from_refs(roots);
        let mut completed = false;
        for _ in 0..64 {
            if let Some(s) = plan.increment(&mut heap, &rs, &mut m) {
                assert!(s.freed_objects > 0);
                completed = true;
                break;
            }
        }
        assert!(completed, "incremental cycle should finish");
        assert!(plan.stats().increments > 0);
        assert!(!plan.is_marking());
    }

    #[test]
    fn objects_allocated_during_marking_survive() {
        let (mut heap, mut plan, mut m) = setup(32 << 10);
        let mut roots = Vec::new();
        for _ in 0..280 {
            roots.push(
                plan.alloc(&mut heap, AllocRequest::instance(0, 0, 10), &mut m)
                    .unwrap(),
            );
        }
        let rs = RootSet::from_refs(roots.clone());
        // Start marking.
        assert!(plan.increment(&mut heap, &rs, &mut m).is_none());
        assert!(plan.is_marking());
        // Allocate mid-cycle, hold no root to it *during the remaining
        // increments*, but it was allocated black so it survives the sweep.
        let mid = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 2), &mut m)
            .unwrap();
        for _ in 0..64 {
            if plan.increment(&mut heap, &rs, &mut m).is_some() {
                break;
            }
        }
        assert!(heap.contains(mid));
    }

    #[test]
    fn floating_garbage_is_collected_next_cycle() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        // First cycle: a live.
        plan.collect(&mut heap, &RootSet::from_refs(vec![a]), &mut m);
        assert!(heap.contains(a));
        // Second cycle: a dead.
        plan.collect(&mut heap, &RootSet::new(), &mut m);
        assert!(!heap.contains(a));
    }

    #[test]
    fn cells_are_reused_after_sweep() {
        let (mut heap, mut plan, mut m) = setup(64 << 10);
        let a = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        let addr = heap.get(a).addr();
        plan.collect(&mut heap, &RootSet::new(), &mut m);
        let b = plan
            .alloc(&mut heap, AllocRequest::instance(0, 0, 4), &mut m)
            .unwrap();
        assert_eq!(heap.get(b).addr(), addr);
    }
}
