//! The OS-timer performance sampler.
//!
//! The paper's setup has the operating system's main timer take a snapshot
//! of the hardware performance monitors every **1 ms on the P6** and every
//! **10 ms on the DBPXA255**, tagged with the component the JVM most
//! recently announced via system call (Section IV-E). The records are the
//! raw material for the offline per-component IPC / L2-miss-rate statistics
//! in the paper's Section VI-C.

use vmprobe_platform::{HpmDelta, HpmSnapshot, HpmUnwrapper, PlatformKind};

use crate::ComponentId;

/// One OS-timer performance sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfRecord {
    /// Simulated time of the sample in seconds.
    pub t: f64,
    /// Component executing at the sample instant.
    pub component: ComponentId,
    /// HPM movement since the previous sample.
    pub delta: HpmDelta,
}

/// The periodic HPM sampler.
#[derive(Debug, Clone)]
pub struct PerfMonitor {
    freq_hz: f64,
    /// OS-timer period in wall-clock seconds (platform-specific).
    period_s: f64,
    period_cycles: u64,
    next_due: u64,
    last: HpmSnapshot,
    /// Wall-clock seconds accumulated before the most recent clock change.
    time_base_s: f64,
    /// Cycle count at the most recent clock change.
    cycle_base: u64,
    records: Vec<PerfRecord>,
    /// When set, reads see a 32-bit counter file and are unwrapped.
    wrap32: bool,
    unwrapper: HpmUnwrapper,
}

impl PerfMonitor {
    /// Sampler for `kind` at the paper's platform-specific period.
    pub fn new(kind: PlatformKind) -> Self {
        Self::with_clock(kind, vmprobe_platform::CpuSpec::of(kind).freq_hz)
    }

    /// Sampler for `kind` against an explicit (DVFS-scaled) clock; the OS
    /// timer fires on wall-clock time, so the period in cycles scales.
    pub fn with_clock(kind: PlatformKind, freq_hz: f64) -> Self {
        let period_s = match kind {
            PlatformKind::PentiumM => 1e-3,
            PlatformKind::Pxa255 => 10e-3,
        };
        let period_cycles = crate::daq::period_cycles_at(period_s, freq_hz);
        Self {
            freq_hz,
            period_s,
            period_cycles,
            next_due: period_cycles,
            last: HpmSnapshot::default(),
            time_base_s: 0.0,
            cycle_base: 0,
            records: Vec::new(),
            wrap32: false,
            unwrapper: HpmUnwrapper::new(),
        }
    }

    /// Retarget the sampler to a new clock, effective at `now_cycles`: the
    /// OS timer keeps firing on wall-clock time, so the period in cycles is
    /// recomputed and the pending tick is rescheduled to fire after the
    /// same remaining wall-clock time at the new rate.
    pub fn set_clock(&mut self, now_cycles: u64, freq_hz: f64) {
        debug_assert!(freq_hz > 0.0, "clock must be positive");
        let remaining_s = self.next_due.saturating_sub(now_cycles) as f64 / self.freq_hz;
        self.time_base_s = self.wall_time_s(now_cycles);
        self.cycle_base = now_cycles;
        self.freq_hz = freq_hz;
        self.period_cycles = crate::daq::period_cycles_at(self.period_s, freq_hz);
        self.next_due = now_cycles + (remaining_s * freq_hz).round() as u64;
    }

    /// Wall-clock seconds for a cycle count, piecewise across clock
    /// changes; reduces to `cycles / freq_hz` exactly while the clock has
    /// never changed.
    fn wall_time_s(&self, cycles: u64) -> f64 {
        self.time_base_s + (cycles - self.cycle_base) as f64 / self.freq_hz
    }

    /// Simulate the physical 32-bit counter file: every observed snapshot is
    /// truncated to 32 bits and reconstructed with an [`HpmUnwrapper`], as
    /// the paper's offline accumulation must. Exact while each counter moves
    /// by < 2^32 per period (always true at 1–10 ms sampling).
    pub fn with_wrap32(mut self) -> Self {
        self.wrap32 = true;
        self
    }

    /// Counter wraps detected and unwrapped so far.
    pub fn wraps_detected(&self) -> u64 {
        self.unwrapper.wraps_detected()
    }

    /// Cycle count at which the next sample is due.
    pub fn next_due_cycles(&self) -> u64 {
        self.next_due
    }

    /// Take a sample if one is due.
    pub fn observe(&mut self, snap: &HpmSnapshot, component: ComponentId) {
        if snap.cycles < self.next_due {
            return;
        }
        // The cycle counter is the timebase (not wrapped); only the counter
        // file goes through the 32-bit read + unwrap path, and only at due
        // instants so the hot-path early return stays one compare.
        let snap = &if self.wrap32 {
            self.unwrapper.unwrap_snapshot(&snap.wrapped32())
        } else {
            *snap
        };
        let delta = snap.delta_since(&self.last);
        self.records.push(PerfRecord {
            t: self.wall_time_s(snap.cycles),
            component,
            delta,
        });
        self.last = *snap;
        self.next_due = snap.cycles + self.period_cycles;
    }

    /// All records, in time order.
    pub fn records(&self) -> &[PerfRecord] {
        &self.records
    }

    /// Merge all windows attributed to each component (indexed by
    /// [`ComponentId::index`]).
    pub fn aggregate(&self) -> Vec<HpmDelta> {
        let mut out = vec![HpmDelta::default(); ComponentId::ALL.len()];
        for r in &self.records {
            out[r.component.index()] = out[r.component.index()].merged(&r.delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_platform::{Machine, PlatformKind};

    #[test]
    fn samples_at_platform_period() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut pm = PerfMonitor::new(PlatformKind::PentiumM);
        // 5 ms of work = ~5 samples at 1 ms.
        while m.now() < 5e-3 {
            m.int_ops(1000);
            pm.observe(&m.snapshot(), ComponentId::Application);
        }
        assert!(
            (4..=6).contains(&pm.records().len()),
            "got {}",
            pm.records().len()
        );
    }

    #[test]
    fn pxa_period_is_ten_times_coarser() {
        let mut m = Machine::new(PlatformKind::Pxa255);
        let mut pm = PerfMonitor::new(PlatformKind::Pxa255);
        while m.now() < 35e-3 {
            m.int_ops(1000);
            pm.observe(&m.snapshot(), ComponentId::Application);
        }
        assert!(
            (2..=4).contains(&pm.records().len()),
            "got {}",
            pm.records().len()
        );
    }

    #[test]
    fn aggregate_partitions_by_component() {
        let mut m = Machine::new(PlatformKind::PentiumM);
        let mut pm = PerfMonitor::new(PlatformKind::PentiumM);
        while m.now() < 2.5e-3 {
            m.int_ops(1000);
            pm.observe(&m.snapshot(), ComponentId::Application);
        }
        while m.now() < 4.5e-3 {
            m.int_ops(500);
            m.load(0x1000_0000 + (m.cycles() % 100_000) * 64);
            pm.observe(&m.snapshot(), ComponentId::Gc);
        }
        let agg = pm.aggregate();
        let app = agg[ComponentId::Application.index()];
        let gc = agg[ComponentId::Gc.index()];
        assert!(app.instructions > 0 && gc.instructions > 0);
        let total: u64 = agg.iter().map(|d| d.instructions).sum();
        assert_eq!(total, app.instructions + gc.instructions);
        // The GC-style loop misses more.
        assert!(gc.l2_miss_rate() >= app.l2_miss_rate());
    }
}
