//! CPU timing specifications for the two boards the paper instruments.

use crate::CacheConfig;

/// Which hardware platform a [`Machine`](crate::Machine) models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// The paper's "P6": 1.6 GHz Pentium M development board, 32 KB L1I/L1D,
    /// 1 MB on-die L2, 512 MB DDR SDRAM.
    PentiumM,
    /// The paper's "DBPXA255": 400 MHz Intel PXA255 (XScale) development
    /// board, 32-way 32 KB I/D caches, no L2, 64 MB SDRAM. No hardware FPU —
    /// floating point is software-emulated, the mechanism behind the
    /// component-power inversion the paper reports in Section VI-E.
    Pxa255,
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlatformKind::PentiumM => "Pentium M 1.6GHz (P6)",
            PlatformKind::Pxa255 => "Intel PXA255 400MHz (DBPXA255)",
        })
    }
}

/// Timing parameters of a CPU model.
///
/// Per-µop costs are *effective* cycles per retired operation and therefore
/// encode issue width (values below 1.0 on the 3-wide Pentium M). Miss
/// penalties are effective stall cycles after out-of-order overlap
/// (`PentiumM`) or in full (`Pxa255`, in-order single-issue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Which platform these parameters describe.
    pub kind: PlatformKind,
    /// Core clock frequency in hertz.
    pub freq_hz: f64,
    /// Effective cycles per integer ALU operation.
    pub int_cost: f64,
    /// Effective cycles per floating-point operation (large on the FPU-less
    /// PXA255: software emulation).
    pub fp_cost: f64,
    /// Cycles per transcendental math intrinsic.
    pub math_cost: f64,
    /// Effective cycles per branch, averaging in the misprediction rate.
    pub branch_cost: f64,
    /// Base (hit) cycles per load or store.
    pub mem_base_cost: f64,
    /// Effective stall cycles for an L1 miss that hits L2 (unused when the
    /// platform has no L2).
    pub l1_miss_penalty: f64,
    /// Effective stall cycles for a miss that goes to DRAM.
    pub mem_penalty: f64,
    /// Effective stall cycles for an instruction-cache line refill.
    pub ifetch_miss_penalty: f64,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry, if present.
    pub l2: Option<CacheConfig>,
}

impl CpuSpec {
    /// Timing/geometry specification for `kind`.
    pub fn of(kind: PlatformKind) -> Self {
        match kind {
            PlatformKind::PentiumM => Self {
                kind,
                freq_hz: 1.6e9,
                // 3-wide out-of-order core: sub-cycle effective ALU cost.
                int_cost: 0.45,
                fp_cost: 0.9,
                math_cost: 35.0,
                branch_cost: 1.1,
                mem_base_cost: 0.55,
                l1_miss_penalty: 8.0,
                // ~190 cycles DRAM, ~55% hidden by the OoO window.
                mem_penalty: 85.0,
                ifetch_miss_penalty: 10.0,
                l1i: CacheConfig {
                    name: "L1I",
                    size_bytes: 32 << 10,
                    ways: 8,
                    line_bytes: 64,
                },
                l1d: CacheConfig {
                    name: "L1D",
                    size_bytes: 32 << 10,
                    ways: 8,
                    line_bytes: 64,
                },
                l2: Some(CacheConfig {
                    name: "L2",
                    size_bytes: 1 << 20,
                    ways: 8,
                    line_bytes: 64,
                }),
            },
            PlatformKind::Pxa255 => Self {
                kind,
                freq_hz: 400e6,
                // Single-issue in-order: every op is at least a cycle.
                int_cost: 1.15,
                fp_cost: 55.0, // software floating point
                math_cost: 420.0,
                branch_cost: 2.2,
                mem_base_cost: 1.0,
                l1_miss_penalty: 0.0, // no L2
                // ~185 ns SDRAM at 400 MHz, no latency hiding.
                mem_penalty: 70.0,
                ifetch_miss_penalty: 40.0,
                l1i: CacheConfig {
                    name: "L1I",
                    size_bytes: 32 << 10,
                    ways: 32,
                    line_bytes: 32,
                },
                l1d: CacheConfig {
                    name: "L1D",
                    size_bytes: 32 << 10,
                    ways: 32,
                    line_bytes: 32,
                },
                l2: None,
            },
        }
    }

    /// Convert a cycle count on this CPU to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.freq_hz
    }

    /// This specification at a DVFS-scaled clock (`freq_factor` in
    /// `(0, 1]`). DRAM latency is constant in nanoseconds, so the miss
    /// penalty in *cycles* shrinks with the clock; on-die latencies (L1/L2
    /// hit paths, per-op costs) are expressed in cycles and are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `freq_factor` is not in `(0, 1]`.
    pub fn scaled(&self, freq_factor: f64) -> Self {
        assert!(
            freq_factor > 0.0 && freq_factor <= 1.0,
            "frequency factor {freq_factor} outside (0, 1]"
        );
        Self {
            freq_hz: self.freq_hz * freq_factor,
            mem_penalty: self.mem_penalty * freq_factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_matches_paper_description() {
        let s = CpuSpec::of(PlatformKind::PentiumM);
        assert_eq!(s.freq_hz, 1.6e9);
        assert_eq!(s.l1i.size_bytes, 32 << 10);
        assert_eq!(s.l2.unwrap().size_bytes, 1 << 20);
    }

    #[test]
    fn pxa255_has_no_l2_and_slow_fp() {
        let s = CpuSpec::of(PlatformKind::Pxa255);
        assert!(s.l2.is_none());
        assert_eq!(s.l1d.ways, 32);
        // Software FP is at least an order of magnitude costlier than int.
        assert!(s.fp_cost > 10.0 * s.int_cost);
    }

    #[test]
    fn cycles_to_seconds() {
        let s = CpuSpec::of(PlatformKind::PentiumM);
        assert!((s.cycles_to_seconds(1.6e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert!(format!("{}", PlatformKind::PentiumM).contains("Pentium M"));
        assert!(format!("{}", PlatformKind::Pxa255).contains("PXA255"));
    }
}
