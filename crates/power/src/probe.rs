//! The probe cost model: what measurement itself costs.
//!
//! The paper's rig treats its own instrumentation as free — the component-ID
//! port write, the 40 µs DAQ interrupt and the 1 ms / 10 ms OS-timer HPM
//! read all happen "outside" the measured system. Section IV-D concedes the
//! quantization artifact this hides (sub-window transitions are invisible),
//! and real-system monitoring studies show the probes tax the very power
//! rails they observe. Because every layer here is simulated, the rig can do
//! what the physical setup could not: charge each probe its realistic
//! cycle/energy cost and measure the observer effect *exactly*.
//!
//! [`ProbeSpec`] selects the measurement mode for a run: the DAQ sampling
//! period (default 40 µs, the paper's hardware limit) and whether probes are
//! *non-transparent* — i.e. charged into the machine like any other work:
//!
//! * each component-ID port write performs a store to the memory-mapped
//!   register at [`PROBE_BASE`](vmprobe_platform::PROBE_BASE) (on top of the
//!   existing I/O stall);
//! * each DAQ sample runs an ISR that walks [`DAQ_ISR_LINES`] cache lines of
//!   its sample ring buffer, evicting workload lines;
//! * each OS-timer HPM read takes a syscall-shaped stall
//!   ([`hpm_read_stall_cycles`]) plus one load per counter in the file
//!   ([`HPM_COUNTER_COUNT`](vmprobe_platform::HPM_COUNTER_COUNT)).
//!
//! [`ProbeStats`] is the ledger: costs actually paid, plus the
//! *misattribution exposure* every mode records for free — the number of
//! sampling windows that contained at least one component transition, and
//! the energy of those windows. A window with an interior transition is
//! attributed wholesale to whichever component holds the port at the sample
//! instant, so this energy is the exact upper bound on the §IV-D
//! quantization error, and it shrinks as the sampling period shrinks toward
//! the transition scale.

use vmprobe_platform::PlatformKind;

use crate::daq::DAQ_PERIOD_S;

/// The default DAQ sampling period in nanoseconds: the paper's 40 µs.
pub const DEFAULT_DAQ_PERIOD_NS: u64 = 40_000;

/// Cache lines the DAQ's interrupt handler touches per sample: the ISR
/// reads the two ADC channels, the component register and the timestamp
/// into a ring buffer and advances its cursor — eight lines of traffic that
/// contend with the workload for the data cache.
pub const DAQ_ISR_LINES: u64 = 8;

/// Syscall-shaped stall for one OS-timer HPM read: ring transition, handler
/// prologue/epilogue and the serializing counter-read instructions. The P6
/// pays a deeper pipeline flush; the shallow XScale core takes a smaller
/// (but at 400 MHz proportionally similar) hit.
pub fn hpm_read_stall_cycles(kind: PlatformKind) -> f64 {
    match kind {
        PlatformKind::PentiumM => 1500.0,
        PlatformKind::Pxa255 => 600.0,
    }
}

/// Measurement-mode selector for one run.
///
/// The default spec — 40 µs period, transparent — is the classic rig and
/// must leave every byte of existing output unchanged; anything else marks
/// the experiment's cache key so perturbed results never alias clean ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeSpec {
    /// DAQ sampling period in nanoseconds.
    pub daq_period_ns: u64,
    /// When set, probes are charged into the machine (stores, ISR cache
    /// traffic, syscall stalls) instead of happening for free.
    pub nontransparent: bool,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        Self {
            daq_period_ns: DEFAULT_DAQ_PERIOD_NS,
            nontransparent: false,
        }
    }
}

impl ProbeSpec {
    /// Transparent probes sampling every `daq_period_ns`.
    pub fn transparent_at(daq_period_ns: u64) -> Self {
        Self {
            daq_period_ns,
            nontransparent: false,
        }
    }

    /// Charged probes sampling every `daq_period_ns`.
    pub fn nontransparent_at(daq_period_ns: u64) -> Self {
        Self {
            daq_period_ns,
            nontransparent: true,
        }
    }

    /// Whether this is the classic rig (40 µs, transparent) whose behaviour
    /// — and cache identity — must be bit-identical to a spec-less run.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// The DAQ period in seconds. At the default 40 000 ns this returns the
    /// [`DAQ_PERIOD_S`] literal itself, so the conversion cannot introduce
    /// an f64 that differs in its last bit from the classic constant.
    pub fn daq_period_s(&self) -> f64 {
        if self.daq_period_ns == DEFAULT_DAQ_PERIOD_NS {
            DAQ_PERIOD_S
        } else {
            self.daq_period_ns as f64 * 1e-9
        }
    }

    /// Cache-key marker for non-default specs. Default specs contribute
    /// nothing so classic keys stay byte-identical.
    pub fn key_marker(&self) -> String {
        format!(
            "probe:{}ns:{}",
            self.daq_period_ns,
            if self.nontransparent { "nt" } else { "t" }
        )
    }
}

/// Ledger of probe costs paid and misattribution exposure observed.
///
/// The cost fields are zero for transparent runs; the transition fields are
/// filled in every mode (tracking them mutates only DAQ-side counters, never
/// the machine, so transparent trajectories stay bit-identical).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeStats {
    /// Component-ID register stores charged through the cache hierarchy.
    pub port_stores: u64,
    /// DAQ samples whose ISR cache traffic was charged.
    pub daq_samples_paid: u64,
    /// OS-timer HPM reads whose syscall stall + counter loads were charged.
    pub hpm_reads_paid: u64,
    /// Total machine cycles consumed by charged probes.
    pub cycles_paid: u64,
    /// Sampling windows that contained at least one component transition
    /// (their whole energy goes to whoever holds the port at sample time).
    pub transition_windows: u64,
    /// Clean energy of those transition windows, in joules — the exact
    /// upper bound on per-component attribution error from quantization.
    pub transition_energy_j: f64,
}

impl ProbeStats {
    /// Attribution-error bound as a fraction of `total_energy_j` (0 when
    /// the total is not positive).
    pub fn attribution_error_bound(&self, total_energy_j: f64) -> f64 {
        if total_energy_j <= 0.0 {
            0.0
        } else {
            self.transition_energy_j / total_energy_j
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_classic_rig() {
        let d = ProbeSpec::default();
        assert!(d.is_default());
        assert_eq!(d.daq_period_ns, 40_000);
        assert!(!d.nontransparent);
        // Bit-identity with the classic constant, not mere closeness.
        assert_eq!(d.daq_period_s().to_bits(), DAQ_PERIOD_S.to_bits());
    }

    #[test]
    fn non_default_specs_mark_the_key() {
        assert_eq!(
            ProbeSpec::transparent_at(4_000).key_marker(),
            "probe:4000ns:t"
        );
        assert_eq!(
            ProbeSpec::nontransparent_at(4_000_000).key_marker(),
            "probe:4000000ns:nt"
        );
        assert!(!ProbeSpec::nontransparent_at(40_000).is_default());
        assert!(!ProbeSpec::transparent_at(4_000).is_default());
    }

    #[test]
    fn attribution_error_bound_is_a_fraction() {
        let s = ProbeStats {
            transition_windows: 3,
            transition_energy_j: 0.5,
            ..ProbeStats::default()
        };
        assert!((s.attribution_error_bound(10.0) - 0.05).abs() < 1e-12);
        assert_eq!(s.attribution_error_bound(0.0), 0.0);
    }

    #[test]
    fn hpm_read_cost_is_platform_specific() {
        assert!(
            hpm_read_stall_cycles(PlatformKind::PentiumM)
                > hpm_read_stall_cycles(PlatformKind::Pxa255)
        );
    }
}
