//! Order statistics and seeded input generation.
//!
//! The benchmark owns its generator instead of borrowing the program's,
//! so a change to the program's random streams can never change the
//! inputs the benchmark feeds it.

/// SplitMix64: a tiny, well-mixed generator for input orderings.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`; the modulo bias is irrelevant
    /// for shuffling a few hundred items).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The request sequence of a closed-loop client: back-to-back seeded
/// permutations of the `cells` cached cells, so every cell is requested
/// once per pass and the pass order differs from pass to pass.
pub struct RequestSequence {
    cells: usize,
    rng: SplitMix64,
    pass: Vec<usize>,
}

impl RequestSequence {
    pub fn new(seed: u64, cells: usize) -> Self {
        assert!(cells > 0, "a request sequence needs at least one cell");
        Self {
            cells,
            rng: SplitMix64::new(seed),
            pass: Vec::new(),
        }
    }
}

impl Iterator for RequestSequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pass.is_empty() {
            self.pass = shuffled(self.cells, &mut self.rng);
        }
        self.pass.pop()
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// The highest whole percentile, at most the 99th, that has at least ten
/// samples beyond it — the tail a run of `n` samples can resolve. `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n as u64 - (u64::from(p) * n as u64).div_ceil(100) >= 10)
}

/// Median and tail of a sample set, with the tail's percentile and the
/// sample count, as the report states them.
#[derive(Debug, Clone, Copy)]
pub struct Distribution {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: u32,
    pub tail: f64,
}

impl Distribution {
    /// Summarise `samples`; with fewer than 20 samples the tail falls
    /// back to the median (and says so through `tail_pct == 50`).
    pub fn of(samples: &[f64]) -> Option<Distribution> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len()).unwrap_or(50);
        Some(Distribution {
            n: sorted.len(),
            p50: percentile(&sorted, 50),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        })
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(48), Some(79));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 resolves the median");
            let beyond = |p: u32| n as u64 - (u64::from(p) * n as u64).div_ceil(100);
            assert!(beyond(p) >= 10, "n={n} p={p}");
            assert!(p == 99 || beyond(p + 1) < 10, "n={n}: p{} also fits", p + 1);
        }
    }

    #[test]
    fn distribution_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let d = Distribution::of(&samples).unwrap();
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.0);
        assert_eq!(d.tail_pct, 99);
        assert_eq!(d.tail, 990.0);
        let few = Distribution::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.n, few.p50, few.tail_pct, few.tail), (3, 2.0, 50, 2.0));
        assert!(Distribution::of(&[]).is_none());
    }

    #[test]
    fn same_seed_same_request_sequence() {
        let a: Vec<usize> = RequestSequence::new(7, 64).take(1000).collect();
        let b: Vec<usize> = RequestSequence::new(7, 64).take(1000).collect();
        let c: Vec<usize> = RequestSequence::new(8, 64).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every pass requests every cell exactly once.
        for pass in a.chunks(64).take(15) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffles_are_permutations() {
        let mut rng = SplitMix64::new(1);
        let mut order = shuffled(30, &mut rng);
        assert_ne!(order, (0..30).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
