//! Set-associative LRU cache simulation.

use crate::Addr;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "L2", ...).
    pub name: &'static str,
    /// Total capacity in bytes. Must be a multiple of `ways * line_bytes`.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (allocations).
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One level of set-associative cache with true-LRU replacement.
///
/// Tag state only — we model hit/miss behaviour and replacement, not data.
/// Stores allocate on miss (write-allocate) and are charged identically to
/// loads; write-back traffic is folded into the modeled miss penalty.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u32,
    line_shift: u32,
    /// `sets * ways` tags. Each set is a ring read most recently used first
    /// from its entry in `heads`; `u64::MAX` marks an invalid way, which
    /// stays at the logical tail and is refilled first.
    tags: Vec<u64>,
    /// Physical way holding each set's most recently used line.
    heads: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_bytes`, or non-power-of-two sets/lines).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            cfg.size_bytes % (cfg.ways * cfg.line_bytes),
            0,
            "capacity must divide evenly into ways x lines"
        );
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let n = (sets * cfg.ways) as usize;
        Self {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; n],
            heads: vec![0; sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access the line containing `addr`, updating LRU state; returns `true`
    /// on hit. On miss the line is allocated, evicting the LRU way.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as u32) & (self.sets - 1);
        let base = (set * self.cfg.ways) as usize;
        let ways = &mut self.tags[base..base + self.cfg.ways as usize];
        let head = &mut self.heads[set as usize];
        let h = *head as usize;
        if ways[h] == line {
            return true;
        }
        let last = ways.len() - 1;
        match ways.iter().position(|&t| t == line) {
            // Shift the lines more recent than the hit back one way, then
            // put the hit line at the head.
            Some(hit) => {
                let mut w = hit;
                while w != h {
                    let prev = if w == 0 { last } else { w - 1 };
                    ways[w] = ways[prev];
                    w = prev;
                }
                ways[h] = line;
                true
            }
            // Step the head back onto the least recent way and overwrite it.
            None => {
                let w = if h == 0 { last } else { h - 1 };
                *head = w as u32;
                ways[w] = line;
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Probe whether `addr` is resident without touching LRU state or stats.
    pub fn contains(&self, addr: Addr) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as u32) & (self.sets - 1);
        let base = (set * self.cfg.ways) as usize;
        self.tags[base..base + self.cfg.ways as usize].contains(&line)
    }

    /// Invalidate every line (e.g. on simulated context loss).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = sets*line = 256B).
        let a = 0x0u64;
        let b = 0x100;
        let d = 0x200;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    /// One set of four 64-byte ways: line `n` is address `n * 64`.
    fn one_set() -> Cache {
        Cache::new(CacheConfig {
            name: "R",
            size_bytes: 256,
            ways: 4,
            line_bytes: 64,
        })
    }

    /// The set's lines, most recently used first (`X` = invalid way).
    fn order(c: &Cache) -> Vec<u64> {
        let h = c.heads[0] as usize;
        (0..4).map(|k| c.tags[(h + k) % 4]).collect()
    }

    const X: u64 = u64::MAX;

    #[test]
    fn ring_keeps_true_lru_order_across_head_wraps() {
        let mut c = one_set();
        // (line, hit?, recency order afterwards, physical head afterwards)
        let steps: [(u64, bool, [u64; 4], u32); 9] = [
            // The first miss steps the head back past way 0.
            (0, false, [0, X, X, X], 3),
            (1, false, [1, 0, X, X], 2),
            (0, true, [0, 1, X, X], 2),
            (2, false, [2, 0, 1, X], 1),
            (3, false, [3, 2, 0, 1], 0),
            // The set is full; the next miss wraps again and evicts 1.
            (4, false, [4, 3, 2, 0], 3),
            // Line 0 sits in way 2, behind the wrap from way 3 to way 0:
            // the shift crosses it.
            (0, true, [0, 4, 3, 2], 3),
            (2, true, [2, 0, 4, 3], 3),
            (2, true, [2, 0, 4, 3], 3),
        ];
        for (n, hit, want, head) in steps {
            assert_eq!(c.access(n * 64), hit, "line {n}");
            assert_eq!(order(&c), want, "after line {n}");
            assert_eq!(c.heads[0], head, "after line {n}");
        }
        // Several more wraps: eight misses move the head twice round.
        for n in 10..18 {
            assert!(!c.access(n * 64));
        }
        assert_eq!(order(&c), [17, 16, 15, 14]);
        assert_eq!(c.heads[0], 3);
        c.flush();
        assert_eq!(order(&c), [X; 4]);
        for n in 14..18 {
            assert!(!c.contains(n * 64), "line {n} survived the flush");
        }
        // Refill: invalid ways are used before any valid line is evicted.
        for n in [20, 21, 22, 23] {
            assert!(!c.access(n * 64));
        }
        assert_eq!(order(&c), [23, 22, 21, 20]);
        assert!(c.access(20 * 64));
        assert!(!c.access(24 * 64));
        assert_eq!(order(&c), [24, 20, 23, 22]);
        assert_eq!(c.stats().accesses, 9 + 8 + 6);
        assert_eq!(c.stats().misses, 5 + 8 + 5);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x40);
        c.flush();
        assert!(!c.contains(0x40));
        assert!(!c.access(0x40));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64);
        }
        // 512B cache holds exactly 8 lines; first pass all miss.
        assert_eq!(c.stats().miss_rate(), 1.0);
        for i in 0..8u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            name: "X",
            size_bytes: 512,
            ways: 2,
            line_bytes: 48,
        });
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // Cycle over 16 distinct lines in a 8-line cache repeatedly: with
        // LRU and a cyclic pattern every access misses after warmup.
        for _ in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        assert!(
            s.miss_rate() > 0.9,
            "cyclic over-capacity scan should thrash, got {}",
            s.miss_rate()
        );
    }
}
