//! Dynamic voltage and frequency scaling (DVFS).
//!
//! The paper's future-work section (VII) names DVFS as "a very effective
//! tool in leveraging energy for performance", citing the event-driven
//! scaling work of Choi, Hsu/Kremer and Weissel/Bellosa. This module
//! implements that extension: operating points for the two modeled parts
//! and the coefficient scaling that turns the calibrated nominal power
//! model into a model for a scaled point.
//!
//! Physics of the model:
//!
//! * dynamic power scales with `f · V²`;
//! * idle power mixes leakage (`∝ V²`) with clock-tree switching
//!   (`∝ f · V²`);
//! * DRAM latency is constant in *nanoseconds*, so the miss penalty in
//!   *cycles* shrinks with the clock — memory-bound phases lose much less
//!   performance than compute-bound ones, which is exactly the lever
//!   event-driven DVFS policies exploit.

use vmprobe_platform::PlatformKind;

use crate::PowerCoeffs;

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Human-readable name ("1.6 GHz", "600 MHz", ...).
    pub name: &'static str,
    /// Clock frequency relative to nominal, in `(0, 1]`.
    pub freq_factor: f64,
    /// Supply voltage relative to nominal, in `(0, 1]`.
    pub voltage_factor: f64,
}

impl DvfsPoint {
    /// The nominal (full-speed) operating point.
    pub const NOMINAL: DvfsPoint = DvfsPoint {
        name: "nominal",
        freq_factor: 1.0,
        voltage_factor: 1.0,
    };

    /// The operating-point ladder for `kind`.
    ///
    /// Pentium M: the six Enhanced-SpeedStep points of the 1.6 GHz part
    /// (1.6 GHz @ 1.484 V down to 600 MHz @ 0.956 V). PXA255: the three
    /// run-mode points of the 400 MHz part.
    pub fn ladder(kind: PlatformKind) -> Vec<DvfsPoint> {
        match kind {
            PlatformKind::PentiumM => vec![
                DvfsPoint {
                    name: "1.6GHz/1.484V",
                    freq_factor: 1.0,
                    voltage_factor: 1.0,
                },
                DvfsPoint {
                    name: "1.4GHz/1.420V",
                    freq_factor: 1.4 / 1.6,
                    voltage_factor: 1.420 / 1.484,
                },
                DvfsPoint {
                    name: "1.2GHz/1.276V",
                    freq_factor: 1.2 / 1.6,
                    voltage_factor: 1.276 / 1.484,
                },
                DvfsPoint {
                    name: "1.0GHz/1.164V",
                    freq_factor: 1.0 / 1.6,
                    voltage_factor: 1.164 / 1.484,
                },
                DvfsPoint {
                    name: "800MHz/1.036V",
                    freq_factor: 0.8 / 1.6,
                    voltage_factor: 1.036 / 1.484,
                },
                DvfsPoint {
                    name: "600MHz/0.956V",
                    freq_factor: 0.6 / 1.6,
                    voltage_factor: 0.956 / 1.484,
                },
            ],
            PlatformKind::Pxa255 => vec![
                DvfsPoint {
                    name: "400MHz/1.3V",
                    freq_factor: 1.0,
                    voltage_factor: 1.0,
                },
                DvfsPoint {
                    name: "300MHz/1.1V",
                    freq_factor: 0.75,
                    voltage_factor: 1.1 / 1.3,
                },
                DvfsPoint {
                    name: "200MHz/1.0V",
                    freq_factor: 0.5,
                    voltage_factor: 1.0 / 1.3,
                },
            ],
        }
    }

    /// Whether this is the full-speed point.
    pub fn is_nominal(&self) -> bool {
        self.freq_factor >= 1.0 && self.voltage_factor >= 1.0
    }

    /// Scale the calibrated nominal coefficients to this operating point.
    pub fn scale_coeffs(&self, base: PowerCoeffs) -> PowerCoeffs {
        let v2 = self.voltage_factor * self.voltage_factor;
        let dyn_scale = self.freq_factor * v2;
        // Idle: ~35% leakage (voltage-dependent) + ~65% clock tree
        // (frequency- and voltage-dependent).
        let idle_scale = 0.35 * v2 + 0.65 * dyn_scale;
        PowerCoeffs {
            cpu_idle_w: base.cpu_idle_w * idle_scale,
            c_ipc: base.c_ipc * dyn_scale,
            c_fp: base.c_fp * dyn_scale,
            // The memory-event coefficient covers bus/pad power on the CPU
            // rail; the bus voltage does not scale with the core.
            c_mem: base.c_mem,
            dram_idle_w: base.dram_idle_w,
            dram_energy_per_access_j: base.dram_energy_per_access_j,
        }
    }
}

impl Default for DvfsPoint {
    fn default() -> Self {
        Self::NOMINAL
    }
}

impl std::fmt::Display for DvfsPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_identity() {
        let base = PowerCoeffs::of(PlatformKind::PentiumM);
        let scaled = DvfsPoint::NOMINAL.scale_coeffs(base);
        assert_eq!(scaled, base);
        assert!(DvfsPoint::NOMINAL.is_nominal());
    }

    #[test]
    fn ladder_is_monotonic_in_both_factors() {
        for kind in [PlatformKind::PentiumM, PlatformKind::Pxa255] {
            let ladder = DvfsPoint::ladder(kind);
            assert!(ladder[0].is_nominal());
            assert!(ladder
                .windows(2)
                .all(|w| w[1].freq_factor < w[0].freq_factor
                    && w[1].voltage_factor <= w[0].voltage_factor));
        }
    }

    #[test]
    fn lowest_point_saves_superlinear_power() {
        let base = PowerCoeffs::of(PlatformKind::PentiumM);
        let low = DvfsPoint::ladder(PlatformKind::PentiumM).pop().unwrap();
        let scaled = low.scale_coeffs(base);
        // f*V^2 at 600MHz/0.956V: 0.375 * 0.415 = ~0.156 of nominal
        // dynamic power for 0.375x the frequency.
        let dyn_ratio = scaled.c_ipc / base.c_ipc;
        assert!(
            dyn_ratio < low.freq_factor * 0.5,
            "dynamic power ratio {dyn_ratio:.3} should be well below the frequency ratio"
        );
        assert!(scaled.cpu_idle_w < base.cpu_idle_w);
    }
}
