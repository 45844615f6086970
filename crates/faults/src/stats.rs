//! The fault ledger: everything injected, and the resulting error bound.

/// Counters and energy-error accounting filled in by the fault-injecting
/// consumers (DAQ, perf monitor, port, VM).
///
/// The energy fields implement the degradation contract. For every due
/// sampling window the DAQ records the *clean* (fault-free) energy it
/// would have attributed, and logs each perturbation's absolute deviation
/// here. By the triangle inequality the total measured energy then differs
/// from the clean energy by at most [`FaultStats::energy_error_bound_j`] —
/// an exact, checkable bound, not an estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Due sampling instants the DAQ processed (including faulted ones).
    pub samples_total: u64,
    /// Samples lost entirely (trigger missed the window).
    pub samples_dropped: u64,
    /// Samples double-clocked (counted twice).
    pub samples_duplicated: u64,
    /// Component-port reads that returned a stale or invalid ID.
    pub port_glitches: u64,
    /// 32-bit counter wraps detected and unwrapped (DAQ + perf monitor).
    pub wraps_unwrapped: u64,
    /// Forced heap exhaustions injected by the VM.
    pub injected_oom: u64,
    /// Runs aborted by an exhausted step budget.
    pub budget_exhausted: u64,

    /// Clean energy of windows lost to drops (cpu + memory), joules.
    pub dropped_energy_j: f64,
    /// Extra (second-count) energy added by duplicated samples, joules.
    pub duplicated_energy_j: f64,
    /// Sum of absolute per-window deviations introduced by sensor noise.
    pub noise_abs_j: f64,
    /// Sum of absolute per-window deviations introduced by calibration drift.
    pub drift_abs_j: f64,
    /// Energy attributed to the wrong component (including `Spurious`)
    /// because of port glitches. Conserved in the total — only mislabeled.
    pub misattributed_energy_j: f64,
}

impl FaultStats {
    /// Upper bound (joules) on `|measured_total_energy - clean_total_energy|`.
    ///
    /// Misattributed energy is excluded: glitches move energy between
    /// component buckets but never create or destroy it.
    pub fn energy_error_bound_j(&self) -> f64 {
        self.dropped_energy_j + self.duplicated_energy_j + self.noise_abs_j + self.drift_abs_j
    }

    /// True when nothing was injected anywhere.
    pub fn is_clean(&self) -> bool {
        self.samples_dropped == 0
            && self.samples_duplicated == 0
            && self.port_glitches == 0
            && self.wraps_unwrapped == 0
            && self.injected_oom == 0
            && self.budget_exhausted == 0
            && self.energy_error_bound_j() == 0.0
            && self.misattributed_energy_j == 0.0
    }

    /// Fold another ledger into this one (used by the supervised runner to
    /// aggregate per-run statistics into the sweep-level `RunReport`).
    pub fn merge(&mut self, other: &FaultStats) {
        self.samples_total += other.samples_total;
        self.samples_dropped += other.samples_dropped;
        self.samples_duplicated += other.samples_duplicated;
        self.port_glitches += other.port_glitches;
        self.wraps_unwrapped += other.wraps_unwrapped;
        self.injected_oom += other.injected_oom;
        self.budget_exhausted += other.budget_exhausted;
        self.dropped_energy_j += other.dropped_energy_j;
        self.duplicated_energy_j += other.duplicated_energy_j;
        self.noise_abs_j += other.noise_abs_j;
        self.drift_abs_j += other.drift_abs_j;
        self.misattributed_energy_j += other.misattributed_energy_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean_with_zero_bound() {
        let s = FaultStats::default();
        assert!(s.is_clean());
        assert_eq!(s.energy_error_bound_j(), 0.0);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = FaultStats {
            samples_total: 1,
            samples_dropped: 2,
            dropped_energy_j: 0.5,
            ..FaultStats::default()
        };
        let b = FaultStats {
            samples_total: 10,
            samples_dropped: 1,
            noise_abs_j: 0.25,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.samples_total, 11);
        assert_eq!(a.samples_dropped, 3);
        assert_eq!(a.energy_error_bound_j(), 0.75);
    }
}
