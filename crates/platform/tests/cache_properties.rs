//! Property tests: the set-associative LRU cache against an executable
//! reference model, and machine cycle-accounting invariants.

use std::collections::VecDeque;

use proptest::prelude::*;
use vmprobe_platform::{Cache, CacheConfig, CacheStats, CpuSpec, Machine, PlatformKind};

/// Reference model: per-set recency queues, most recent at the back.
struct RefLru {
    sets: u64,
    ways: usize,
    line_shift: u32,
    queues: Vec<VecDeque<u64>>,
}

impl RefLru {
    fn new(cfg: CacheConfig) -> Self {
        let sets = u64::from(cfg.sets());
        Self {
            sets,
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            queues: (0..sets).map(|_| VecDeque::new()).collect(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let q = &mut self.queues[set];
        if let Some(pos) = q.iter().position(|&l| l == line) {
            q.remove(pos);
            q.push_back(line);
            true
        } else {
            if q.len() == self.ways {
                q.pop_front();
            }
            q.push_back(line);
            false
        }
    }

    fn flush(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
    }
}

fn small_config() -> CacheConfig {
    CacheConfig {
        name: "prop",
        size_bytes: 1024,
        ways: 4,
        line_bytes: 32,
    }
}

proptest! {
    /// Toy and shipped geometries, sequential or same-set bursts, flushed halfway.
    #[test]
    fn cache_matches_reference_lru(
        bursts in prop::collection::vec((0u64..4096, any::<bool>(), 1u64..49, 1u64..97), 1..40),
    ) {
        let (p6, pxa) = (CpuSpec::of(PlatformKind::PentiumM), CpuSpec::of(PlatformKind::Pxa255));
        for cfg in [small_config(), p6.l1d, p6.l2.expect("P6 has an L2"), pxa.l1d] {
            let (line, cycle) = (u64::from(cfg.line_bytes), u64::from(cfg.ways) * 3 / 2);
            let (mut cache, mut oracle, mut misses) = (Cache::new(cfg), RefLru::new(cfg), 0);
            for (i, &(start, same_set, span, len)) in bursts.iter().enumerate() {
                if i == bursts.len() / 2 {
                    cache.flush();
                    oracle.flush();
                }
                let stride = if same_set { u64::from(cfg.sets()) * line } else { line };
                for k in 0..len {
                    let a = start * line + (k % span.min(cycle)) * stride;
                    let hit = cache.access(a);
                    prop_assert_eq!(hit, oracle.access(a), "{} at {:#x}", cfg.name, a);
                    misses += u64::from(!hit);
                }
            }
            let accesses = bursts.iter().map(|b| b.3).sum();
            prop_assert_eq!(cache.stats(), CacheStats { accesses, misses });
        }
    }

    #[test]
    fn contains_never_lies(addrs in prop::collection::vec(0u64..2048, 1..200)) {
        let mut cache = Cache::new(small_config());
        for &a in &addrs {
            cache.access(a);
            prop_assert!(cache.contains(a), "just-accessed line must be resident");
        }
    }

    #[test]
    fn machine_cycles_are_monotonic_and_work_scales(
        ops in prop::collection::vec((0u8..5, 0u64..1_000_000), 1..300),
    ) {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut last = 0u64;
        for &(kind, addr) in &ops {
            match kind {
                0 => m.int_ops(3),
                1 => m.fp_ops(2),
                2 => m.load(0x1000_0000 + addr * 8),
                3 => m.store(0x1000_0000 + addr * 8),
                _ => m.branch(),
            }
            let now = m.cycles();
            prop_assert!(now >= last, "cycles must never go backwards");
            last = now;
        }
        // Instruction count equals what we charged.
        let expected: u64 = ops
            .iter()
            .map(|&(k, _)| match k {
                0 => 3,
                1 => 2,
                _ => 1,
            })
            .sum();
        prop_assert_eq!(m.hpm().instructions, expected);
    }

    #[test]
    fn snapshot_deltas_are_consistent(splits in prop::collection::vec(1u32..500, 2..20)) {
        let mut m = Machine::new(PlatformKind::Pxa255);
        let mut snaps = vec![m.snapshot()];
        for &n in &splits {
            m.int_ops(n);
            snaps.push(m.snapshot());
        }
        // Sum of window deltas equals the full-run delta.
        let total = snaps.last().unwrap().delta_since(&snaps[0]);
        let sum_instr: u64 = snaps
            .windows(2)
            .map(|w| w[1].delta_since(&w[0]).instructions)
            .sum();
        prop_assert_eq!(total.instructions, sum_instr);
        let sum_cycles: u64 = snaps
            .windows(2)
            .map(|w| w[1].delta_since(&w[0]).cycles)
            .sum();
        prop_assert_eq!(total.cycles, sum_cycles);
    }
}
