//! Power-model calibration constants.
//!
//! All free parameters of the activity-based power model live here, fit to
//! the anchor measurements the paper reports:
//!
//! | anchor | paper value | section |
//! |---|---|---|
//! | P6 idle CPU power | 4.5 W | IV-D |
//! | P6 idle DRAM power | 250 mW | IV-D |
//! | application power at IPC ≈ 0.8 | ≈ 13–14 W | VI-C |
//! | GenCopy GC power at IPC ≈ 0.55, 54 % L2 miss | 12.8 W | VI-C |
//! | MarkSweep GC power | 11.7 W | VI-C |
//! | PXA255 idle CPU power | ≈ 70 mW | IV-D |
//! | PXA255 idle DRAM power | ≈ 5 mW | IV-D |
//! | PXA255 GC power (most power-hungry component) | ≈ 270 mW | VI-E |
//! | memory energy share of total | 5–8 % | VI-B |
//!
//! The model form is
//! `P_cpu = idle + c_ipc · IPC + c_fp · (FP ops/cycle) + c_mem · (DRAM accesses/µs)`,
//! the standard IPC-linear runtime power estimation the paper itself cites
//! (Isci & Martonosi; Joseph & Martonosi; Bellosa's event-driven
//! accounting).

use vmprobe_platform::PlatformKind;

/// Calibrated coefficients for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCoeffs {
    /// CPU idle (static + clock-tree) power in watts.
    pub cpu_idle_w: f64,
    /// Watts per unit of IPC.
    pub c_ipc: f64,
    /// Watts per FP operation per cycle (FP units are the hungriest blocks;
    /// raises peaks for FP-dense windows like `_222_mpegaudio`).
    pub c_fp: f64,
    /// Watts per DRAM access per microsecond (bus + pad power on the CPU
    /// rail).
    pub c_mem: f64,
    /// DRAM idle (refresh + standby) power in watts.
    pub dram_idle_w: f64,
    /// DRAM energy per access in joules (activate/precharge + burst).
    pub dram_energy_per_access_j: f64,
}

impl PowerCoeffs {
    /// Calibration for `kind`; values justified in the module docs.
    pub fn of(kind: PlatformKind) -> Self {
        match kind {
            PlatformKind::PentiumM => Self {
                cpu_idle_w: 4.5,
                c_ipc: 10.8,
                c_fp: 9.0,
                c_mem: 0.12,
                dram_idle_w: 0.25,
                dram_energy_per_access_j: 45e-9,
            },
            PlatformKind::Pxa255 => Self {
                cpu_idle_w: 0.070,
                c_ipc: 0.42,
                c_fp: 0.15,
                c_mem: 0.004,
                dram_idle_w: 0.005,
                dram_energy_per_access_j: 8e-9,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_anchors_match_paper() {
        let p6 = PowerCoeffs::of(PlatformKind::PentiumM);
        assert_eq!(p6.cpu_idle_w, 4.5);
        assert_eq!(p6.dram_idle_w, 0.25);
        let xs = PowerCoeffs::of(PlatformKind::Pxa255);
        assert!((xs.cpu_idle_w - 0.070).abs() < 1e-9);
        assert!((xs.dram_idle_w - 0.005).abs() < 1e-9);
    }

    #[test]
    fn p6_dynamic_range_is_plausible() {
        // At IPC 1.0 with some FP the model should stay under the Pentium M
        // thermal design power (~24.5 W).
        let c = PowerCoeffs::of(PlatformKind::PentiumM);
        let p = c.cpu_idle_w + c.c_ipc * 1.3 + c.c_fp * 0.3 + c.c_mem * 20.0;
        assert!(p < 24.5, "max modeled power {p} exceeds TDP");
    }
}
