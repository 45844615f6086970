//! Offline analysis: match the power trace with the performance trace.
//!
//! The right-hand box of the paper's Figure 4 — per-component energy and
//! power from the DAQ joined with per-component IPC and cache statistics
//! from the performance monitor, after the run finishes.

use std::collections::BTreeMap;

use vmprobe_faults::FaultStats;
use vmprobe_platform::{Machine, PlatformKind};

use crate::{ComponentId, Daq, EnergyDelay, Joules, PerfMonitor, Seconds, Watts};

/// Per-component measurement summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentProfile {
    /// Wall-clock time attributed.
    pub time: Seconds,
    /// CPU energy attributed.
    pub energy: Joules,
    /// DRAM energy attributed.
    pub mem_energy: Joules,
    /// Average CPU power while running.
    pub avg_power: Watts,
    /// Peak single-window CPU power.
    pub peak_power: Watts,
    /// Instructions retired (from the perf trace).
    pub instructions: u64,
    /// Instructions per cycle (from the perf trace).
    pub ipc: f64,
    /// L2 miss rate (from the perf trace; zero on platforms without L2).
    pub l2_miss_rate: f64,
    /// Number of 40 µs power samples attributed.
    pub samples: u64,
}

/// A complete per-run measurement report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Which platform the run executed on.
    pub platform: PlatformKind,
    /// Profiles for every component that received at least one sample.
    pub components: BTreeMap<ComponentId, ComponentProfile>,
    /// Total run duration.
    pub duration: Seconds,
    /// Total CPU energy.
    pub cpu_energy: Joules,
    /// Total DRAM energy.
    pub mem_energy: Joules,
    /// CPU + DRAM energy.
    pub total_energy: Joules,
    /// Energy-delay product: total energy × duration.
    pub edp: EnergyDelay,
    /// CPU + DRAM energy a fault-free measurement would have reported
    /// (equals `total_energy` when nothing was injected).
    pub clean_total_energy: Joules,
    /// Ledger of injected measurement faults; `faults.energy_error_bound_j()`
    /// bounds `|total_energy - clean_total_energy|`.
    pub faults: FaultStats,
    /// Probe-cost ledger: costs charged in non-transparent measurement mode
    /// plus the transition-window misattribution exposure (recorded in
    /// every mode).
    pub probe: crate::ProbeStats,
}

impl Report {
    /// Fraction of CPU energy attributed to `c` (0 when none).
    pub fn energy_fraction(&self, c: ComponentId) -> f64 {
        if self.cpu_energy.joules() <= 0.0 {
            return 0.0;
        }
        self.components
            .get(&c)
            .map_or(0.0, |p| p.energy.joules() / self.cpu_energy.joules())
    }

    /// Fraction of CPU energy consumed by VM services — GC, class loader,
    /// compilers, scheduler and controller. This is the paper's "JVM
    /// energy", reported as high as 60% for `_213_javac` at a 32 MB heap.
    pub fn jvm_energy_fraction(&self) -> f64 {
        ComponentId::ALL
            .iter()
            .filter(|c| c.is_vm_service())
            .map(|&c| self.energy_fraction(c))
            .sum()
    }

    /// DRAM energy as a fraction of total (CPU + DRAM) energy — the paper
    /// reports 5–8 % depending on suite.
    pub fn mem_energy_fraction(&self) -> f64 {
        if self.total_energy.joules() <= 0.0 {
            return 0.0;
        }
        self.mem_energy.joules() / self.total_energy.joules()
    }

    /// Profile for `c`, if it ever ran.
    pub fn component(&self, c: ComponentId) -> Option<&ComponentProfile> {
        self.components.get(&c)
    }

    /// Absolute deviation of the measured total energy from the clean
    /// total, in joules. Bounded by `self.faults.energy_error_bound_j()`.
    pub fn energy_deviation_j(&self) -> f64 {
        (self.total_energy.joules() - self.clean_total_energy.joules()).abs()
    }
}

/// Join the DAQ and performance traces into a [`Report`].
pub fn analyze(daq: &Daq, perf: &PerfMonitor, machine: &Machine) -> Report {
    let dr = daq.report();
    let agg = perf.aggregate();

    let mut components = BTreeMap::new();
    for c in ComponentId::ALL {
        let p = dr.component(c);
        let d = &agg[c.index()];
        if p.samples == 0 && d.instructions == 0 {
            continue;
        }
        components.insert(
            c,
            ComponentProfile {
                time: p.time,
                energy: p.energy,
                mem_energy: p.mem_energy,
                avg_power: p.avg_power(),
                peak_power: p.peak,
                instructions: d.instructions,
                ipc: d.ipc(),
                l2_miss_rate: d.l2_miss_rate(),
                samples: p.samples,
            },
        );
    }

    let duration = Seconds::new(machine.now());
    let total_energy = dr.cpu_energy + dr.mem_energy;
    let mut faults = dr.faults;
    faults.wraps_unwrapped += perf.wraps_detected();
    Report {
        platform: machine.platform(),
        components,
        duration,
        cpu_energy: dr.cpu_energy,
        mem_energy: dr.mem_energy,
        total_energy,
        edp: total_energy * duration,
        clean_total_energy: dr.clean_cpu_energy + dr.clean_mem_energy,
        faults,
        // Transition exposure comes from the DAQ; the probe *costs* are
        // known only to the metering adapter, which overwrites this ledger
        // after analysis (see `Meter::probe_stats`).
        probe: crate::ProbeStats {
            transition_windows: dr.transition_windows,
            transition_energy_j: dr.transition_energy_j,
            ..crate::ProbeStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::HEAP_BASE;

    fn drive(
        m: &mut Machine,
        daq: &mut Daq,
        perf: &mut PerfMonitor,
        c: ComponentId,
        until_s: f64,
        memory_heavy: bool,
    ) {
        let mut i = 0u64;
        while m.now() < until_s {
            m.int_ops(12);
            if memory_heavy {
                // Stream line-by-line through 32 MB (far beyond L2): every
                // access is a compulsory or capacity miss.
                m.load(HEAP_BASE + (i * 64) % (32 << 20));
            } else {
                // 256 KB working set: misses L1 but lives in the 1 MB L2,
                // so the L2 miss rate settles low after the first pass.
                m.load(HEAP_BASE + (i * 64) % (256 << 10));
            }
            i += 1;
            daq.observe(&m.snapshot(), c);
            perf.observe(&m.snapshot(), c);
        }
    }

    fn measured_run() -> Report {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut daq = Daq::new(PlatformKind::PentiumM);
        let mut perf = PerfMonitor::new(PlatformKind::PentiumM);
        drive(
            &mut m,
            &mut daq,
            &mut perf,
            ComponentId::Application,
            8e-3,
            false,
        );
        drive(&mut m, &mut daq, &mut perf, ComponentId::Gc, 12e-3, true);
        drive(
            &mut m,
            &mut daq,
            &mut perf,
            ComponentId::Application,
            20e-3,
            false,
        );
        analyze(&daq, &perf, &m)
    }

    #[test]
    fn fractions_sum_to_one_over_active_components() {
        let r = measured_run();
        let total: f64 = ComponentId::ALL.iter().map(|&c| r.energy_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn gc_has_lower_ipc_higher_miss_rate_and_lower_power_than_app() {
        let r = measured_run();
        let app = r.component(ComponentId::Application).unwrap();
        let gc = r.component(ComponentId::Gc).unwrap();
        assert!(gc.ipc < app.ipc, "gc ipc {} vs app {}", gc.ipc, app.ipc);
        assert!(gc.l2_miss_rate > app.l2_miss_rate);
        assert!(
            gc.avg_power < app.avg_power,
            "gc {} vs app {}",
            gc.avg_power,
            app.avg_power
        );
    }

    #[test]
    fn jvm_fraction_counts_only_services() {
        let r = measured_run();
        let f = r.jvm_energy_fraction();
        assert!(f > 0.0 && f < 1.0);
        assert!((f - r.energy_fraction(ComponentId::Gc)).abs() < 1e-9);
    }

    #[test]
    fn edp_is_energy_times_duration() {
        let r = measured_run();
        let expect = r.total_energy.joules() * r.duration.seconds();
        assert!((r.edp.joule_seconds() - expect).abs() < 1e-12);
        assert!(r.mem_energy_fraction() > 0.0 && r.mem_energy_fraction() < 0.5);
    }
}
