//! Collection statistics, per-collection and cumulative.

/// What kind of collection a plan performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionKind {
    /// Nursery-only collection of a generational plan.
    Minor,
    /// Full-heap collection.
    Major,
    /// A bounded incremental marking step (Kaffe).
    Increment,
}

/// Outcome of one `collect` (or completed increment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionStats {
    /// Kind of collection performed.
    pub kind: CollectionKind,
    /// Objects found live (in the collected region).
    pub live_objects: u64,
    /// Bytes found live (in the collected region).
    pub live_bytes: u64,
    /// Objects reclaimed.
    pub freed_objects: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Bytes physically copied (zero for non-moving plans).
    pub copied_bytes: u64,
    /// Cycles the collection charged to the machine (the GC pause).
    pub pause_cycles: u64,
}

/// Cumulative collector statistics over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Total collections (minor + major + completed incremental cycles).
    pub collections: u64,
    /// Minor (nursery) collections.
    pub minor_collections: u64,
    /// Major (full-heap) collections.
    pub major_collections: u64,
    /// Incremental marking steps taken (Kaffe).
    pub increments: u64,
    /// Total cycles spent inside collections.
    pub total_pause_cycles: u64,
    /// Total bytes copied by moving plans.
    pub total_copied_bytes: u64,
    /// Total objects marked/visited while tracing.
    pub total_marked_objects: u64,
    /// Total objects examined by sweeps.
    pub total_swept_objects: u64,
    /// Mutator pointer stores that took the write-barrier slow path
    /// (remembered-set insertions).
    pub barrier_remembers: u64,
    /// Mutator pointer stores that ran the barrier fast path.
    pub barrier_stores: u64,
}

impl GcStats {
    /// Record one finished collection.
    pub(crate) fn record(&mut self, c: &CollectionStats) {
        match c.kind {
            CollectionKind::Minor => {
                self.collections += 1;
                self.minor_collections += 1;
            }
            CollectionKind::Major => {
                self.collections += 1;
                self.major_collections += 1;
            }
            CollectionKind::Increment => self.increments += 1,
        }
        self.total_pause_cycles += c.pause_cycles;
        self.total_copied_bytes += c.copied_bytes;
        self.total_marked_objects += c.live_objects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_kinds() {
        let mut g = GcStats::default();
        let minor = CollectionStats {
            kind: CollectionKind::Minor,
            live_objects: 10,
            live_bytes: 100,
            freed_objects: 5,
            freed_bytes: 50,
            copied_bytes: 100,
            pause_cycles: 1000,
        };
        let major = CollectionStats {
            kind: CollectionKind::Major,
            ..minor
        };
        let inc = CollectionStats {
            kind: CollectionKind::Increment,
            ..minor
        };
        g.record(&minor);
        g.record(&major);
        g.record(&inc);
        assert_eq!(g.collections, 2);
        assert_eq!(g.minor_collections, 1);
        assert_eq!(g.major_collections, 1);
        assert_eq!(g.increments, 1);
        assert_eq!(g.total_pause_cycles, 3000);
        assert_eq!(g.total_marked_objects, 30);
    }
}
