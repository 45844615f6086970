//! The metering adapter: machine + measurement rig as one charging sink.
//!
//! All execution work — interpreter, compilers, class loader and garbage
//! collectors — flows through a [`Meter`], which forwards the charge to the
//! [`Machine`] and then lets the DAQ and performance monitor take any
//! samples that have come due. This is what keeps the 40 µs power sampling
//! running *during* GC pauses and compilations, exactly like the physical
//! rig.

use vmprobe_platform::{Addr, CpuSpec, Exec, Machine, PlatformKind, HPM_COUNTER_COUNT, PROBE_BASE};
use vmprobe_power::{
    hpm_read_stall_cycles, ComponentId, ComponentPort, Daq, DvfsPoint, FaultPlan, PerfMonitor,
    PowerCoeffs, PowerModel, ProbeSpec, ProbeStats, DAQ_ISR_LINES, DEFAULT_DAQ_PERIOD_NS,
};
use vmprobe_telemetry::SpanTrace;

/// Cycles charged per component-ID register write (parallel-port I/O on the
/// P6 board is slow; GPIO on the PXA255 is cheap). The paper's "efficient,
/// low-perturbation infrastructure" still pays this on every transition.
fn io_write_cycles(kind: PlatformKind) -> f64 {
    match kind {
        PlatformKind::PentiumM => 180.0,
        PlatformKind::Pxa255 => 6.0,
    }
}

/// Bytes of the DAQ ISR's sample ring buffer inside the probe region.
/// Twice the 32 KB L1D on both platforms, so a charged ISR steadily evicts
/// workload lines instead of settling into a resident hot set.
const PROBE_RING_BYTES: u64 = 1 << 16;
/// Offset of the kernel-side HPM counter file inside the probe region.
const PROBE_HPM_OFFSET: u64 = 1 << 20;
/// Offset of the memory-mapped component-ID register inside the probe
/// region.
const PROBE_PORT_OFFSET: u64 = 2 << 20;

/// Machine plus measurement rig.
#[derive(Debug)]
pub struct Meter {
    machine: Machine,
    port: ComponentPort,
    daq: Daq,
    perf: PerfMonitor,
    io_cycles: f64,
    next_probe: f64,
    spans: Option<SpanTrace>,
    /// Measurement mode: sampling period and probe transparency.
    probe: ProbeSpec,
    /// Syscall-shaped stall per charged HPM read (platform-specific).
    hpm_stall: f64,
    /// Cursor into the ISR sample ring (advances one line per load).
    isr_cursor: u64,
    port_stores: u64,
    daq_samples_paid: u64,
    hpm_reads_paid: u64,
    cycles_paid: u64,
}

impl Meter {
    /// Build a cold machine with its measurement rig attached, at the
    /// nominal operating point.
    pub fn new(kind: PlatformKind, trace_power: bool) -> Self {
        Self::with_dvfs(kind, trace_power, DvfsPoint::NOMINAL)
    }

    /// Build a machine running at a DVFS operating point: the clock, the
    /// DRAM penalty (constant in nanoseconds, fewer cycles at lower clocks)
    /// and the power-model coefficients all scale together.
    pub fn with_dvfs(kind: PlatformKind, trace_power: bool, dvfs: DvfsPoint) -> Self {
        Self::with_faults(kind, trace_power, dvfs, FaultPlan::none())
    }

    /// Build a machine whose measurement rig runs under a fault plan: the
    /// DAQ injects drops/dups/noise/glitches/drift, and when `wrap32` is set
    /// the performance monitor reads 32-bit wrapped counters and unwraps
    /// them.
    pub fn with_faults(
        kind: PlatformKind,
        trace_power: bool,
        dvfs: DvfsPoint,
        faults: FaultPlan,
    ) -> Self {
        Self::with_probe(kind, trace_power, dvfs, faults, ProbeSpec::default())
    }

    /// Build a machine whose measurement rig runs in an explicit probe mode:
    /// a retargeted DAQ period, charged probes, or both. The default spec
    /// takes exactly the [`Meter::with_faults`] construction path, so
    /// classic runs stay bit-identical.
    pub fn with_probe(
        kind: PlatformKind,
        trace_power: bool,
        dvfs: DvfsPoint,
        faults: FaultPlan,
        probe: ProbeSpec,
    ) -> Self {
        let spec = CpuSpec::of(kind).scaled(dvfs.freq_factor);
        let model = PowerModel::with_coeffs(dvfs.scale_coeffs(PowerCoeffs::of(kind)));
        let mut daq = Daq::with_model(model, spec.freq_hz, trace_power).with_faults(faults);
        if probe.daq_period_ns != DEFAULT_DAQ_PERIOD_NS {
            daq = daq.with_period(probe.daq_period_s());
        }
        let perf = PerfMonitor::with_clock(kind, spec.freq_hz);
        let perf = if faults.wrap32 {
            perf.with_wrap32()
        } else {
            perf
        };
        let next_probe = Self::deadline(daq.next_due_cycles().min(perf.next_due_cycles()));
        Self {
            machine: Machine::from_spec(spec),
            port: ComponentPort::new(),
            daq,
            perf,
            io_cycles: io_write_cycles(kind),
            next_probe,
            spans: None,
            probe,
            hpm_stall: hpm_read_stall_cycles(kind),
            isr_cursor: 0,
            port_stores: 0,
            daq_samples_paid: 0,
            hpm_reads_paid: 0,
            cycles_paid: 0,
        }
    }

    /// Cycle `n` as the `f64` deadline the sample and quantum polls compare
    /// [`Machine::raw_cycles`] against, which is exact below 2⁵³.
    pub(crate) fn deadline(n: u64) -> f64 {
        debug_assert!(n < 1 << 53, "cycle deadline {n} is not exact as f64");
        n as f64
    }

    /// Start recording component enter/exit spans on the virtual cycle
    /// clock. Span capture happens *after* the charged register write, so
    /// it adds zero simulated cycles: the machine's trajectory — and with
    /// it every energy/power figure — is bit-identical with recording on
    /// or off.
    pub fn enable_spans(&mut self) {
        let clock_hz = self.machine.spec().freq_hz;
        self.spans = Some(SpanTrace::new(clock_hz));
    }

    /// Take the recorded span trace, closing any spans still open at the
    /// current cycle count. `None` when recording was never enabled.
    pub fn take_spans(&mut self) -> Option<SpanTrace> {
        let cycles = self.machine.cycles();
        self.spans.take().map(|mut t| {
            t.finish(cycles);
            t
        })
    }

    /// The underlying machine (read-only; charge work through `Exec`).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The component register.
    pub fn port(&self) -> &ComponentPort {
        &self.port
    }

    /// The DAQ (for reports/traces after a run).
    pub fn daq(&self) -> &Daq {
        &self.daq
    }

    /// The performance monitor.
    pub fn perf(&self) -> &PerfMonitor {
        &self.perf
    }

    /// Decompose into measurement components for offline analysis.
    pub fn into_parts(self) -> (Machine, Daq, PerfMonitor) {
        (self.machine, self.daq, self.perf)
    }

    /// The measurement mode in force.
    pub fn probe_spec(&self) -> ProbeSpec {
        self.probe
    }

    /// The probe-cost ledger: costs charged so far plus the DAQ's
    /// transition-window exposure.
    pub fn probe_stats(&self) -> ProbeStats {
        ProbeStats {
            port_stores: self.port_stores,
            daq_samples_paid: self.daq_samples_paid,
            hpm_reads_paid: self.hpm_reads_paid,
            cycles_paid: self.cycles_paid,
            transition_windows: self.daq.transition_windows(),
            transition_energy_j: self.daq.transition_energy_j(),
        }
    }

    /// Enter a nested component: write the register (charged I/O) and push.
    pub fn enter(&mut self, c: ComponentId) {
        self.port_write();
        self.port.push(c);
        if let Some(t) = &mut self.spans {
            t.enter(c.label(), self.machine.cycles());
        }
        self.maybe_sample();
    }

    /// Exit the current component.
    pub fn exit(&mut self) {
        self.port_write();
        self.port.pop();
        if let Some(t) = &mut self.spans {
            t.exit(self.machine.cycles());
        }
        self.maybe_sample();
    }

    /// Scheduler-style base-context write.
    pub fn set_base(&mut self, c: ComponentId) {
        self.port_write();
        self.port.set_base(c);
        self.maybe_sample();
    }

    /// The shared cost of any component-ID register write: the classic I/O
    /// stall, the DAQ's transition bookkeeping (counters only — free), and
    /// in non-transparent mode a real store through the cache hierarchy to
    /// the memory-mapped register.
    fn port_write(&mut self) {
        self.machine.stall(self.io_cycles);
        self.daq.note_port_write();
        if self.probe.nontransparent {
            let c0 = self.machine.cycles();
            self.machine.store(PROBE_BASE + PROBE_PORT_OFFSET);
            self.port_stores += 1;
            self.cycles_paid += self.machine.cycles() - c0;
        }
    }

    /// Charged DAQ interrupt handler: walk [`DAQ_ISR_LINES`] lines of the
    /// sample ring, advancing the cursor so the traffic keeps evicting
    /// workload lines instead of settling into a resident set.
    fn pay_daq_sample(&mut self) {
        let c0 = self.machine.cycles();
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        for _ in 0..DAQ_ISR_LINES {
            self.machine
                .load(PROBE_BASE + (self.isr_cursor % PROBE_RING_BYTES));
            self.isr_cursor += line;
        }
        self.daq_samples_paid += 1;
        self.cycles_paid += self.machine.cycles() - c0;
    }

    /// Charged OS-timer HPM read: a syscall-shaped stall plus one load per
    /// counter in the file.
    fn pay_hpm_read(&mut self) {
        let c0 = self.machine.cycles();
        self.machine.stall(self.hpm_stall);
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        for i in 0..HPM_COUNTER_COUNT as u64 {
            self.machine.load(PROBE_BASE + PROBE_HPM_OFFSET + i * line);
        }
        self.hpm_reads_paid += 1;
        self.cycles_paid += self.machine.cycles() - c0;
    }

    #[inline]
    fn maybe_sample(&mut self) {
        if self.machine.raw_cycles() >= self.next_probe {
            self.sample();
        }
    }

    #[cold]
    #[inline(never)]
    fn sample(&mut self) {
        let snap = self.machine.snapshot();
        let c = self.port.current();
        // Which monitors actually fire at this snapshot (observe() is a
        // no-op for the one whose deadline has not arrived).
        let daq_fired = snap.cycles >= self.daq.next_due_cycles();
        let perf_fired = snap.cycles >= self.perf.next_due_cycles();
        self.daq.observe(&snap, c);
        self.perf.observe(&snap, c);
        if self.probe.nontransparent {
            // Probe costs are charged *after* the sample commits — the
            // handler's own work lands in the next window, exactly like
            // an ISR running with further sampling masked.
            if daq_fired {
                self.pay_daq_sample();
            }
            if perf_fired {
                self.pay_hpm_read();
            }
        }
        self.next_probe =
            Self::deadline(self.daq.next_due_cycles().min(self.perf.next_due_cycles()));
    }

    /// Drain any sample that is due right now (call at run end so the final
    /// partial window is not lost).
    pub fn flush_samples(&mut self) {
        // Force one final observation by stalling to the next boundary.
        let due = (self.next_probe as u64).saturating_sub(self.machine.cycles());
        if due > 0 {
            self.machine.stall(due as f64);
        }
        self.maybe_sample();
    }
}

impl Exec for Meter {
    fn int_ops(&mut self, n: u32) {
        self.machine.int_ops(n);
        self.maybe_sample();
    }
    fn fp_ops(&mut self, n: u32) {
        self.machine.fp_ops(n);
        self.maybe_sample();
    }
    fn math_op(&mut self) {
        self.machine.math_op();
        self.maybe_sample();
    }
    fn branch(&mut self) {
        self.machine.branch();
        self.maybe_sample();
    }
    fn load(&mut self, addr: Addr) {
        self.machine.load(addr);
        self.maybe_sample();
    }
    fn store(&mut self, addr: Addr) {
        self.machine.store(addr);
        self.maybe_sample();
    }
    fn ifetch(&mut self, addr: Addr) {
        self.machine.ifetch(addr);
        self.maybe_sample();
    }
    fn stall(&mut self, cycles: f64) {
        self.machine.stall(cycles);
        self.maybe_sample();
    }
    fn stream_read(&mut self, addr: Addr, bytes: u32) {
        // Sample at line granularity: delegate per-line so long streams
        // cannot skip sampling windows.
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.machine.load(a);
            self.maybe_sample();
            a += line;
        }
    }
    fn stream_write(&mut self, addr: Addr, bytes: u32) {
        let line = u64::from(self.machine.spec().l1d.line_bytes);
        let mut a = addr & !(line - 1);
        let end = addr + u64::from(bytes);
        while a < end {
            self.machine.store(a);
            self.maybe_sample();
            a += line;
        }
    }
    fn memcpy(&mut self, src: Addr, dst: Addr, bytes: u32) {
        self.stream_read(src, bytes);
        self.stream_write(dst, bytes);
        self.machine.int_ops(bytes / 4);
        self.maybe_sample();
    }
    fn cycles(&self) -> u64 {
        self.machine.cycles()
    }
    fn now(&self) -> f64 {
        self.machine.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_fire_during_long_work() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        // 2 ms of work = ~50 DAQ windows.
        while Exec::now(&m) < 2e-3 {
            m.int_ops(1000);
        }
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Application).samples >= 40);
    }

    #[test]
    fn attribution_respects_nesting() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        while Exec::now(&m) < 1e-3 {
            m.int_ops(1000);
        }
        m.enter(ComponentId::Gc);
        while Exec::now(&m) < 2e-3 {
            m.load(0x1000_0000 + (m.cycles() % (1 << 22)));
        }
        m.exit();
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Gc).samples > 10);
        assert!(r.component(ComponentId::Application).samples > 10);
    }

    #[test]
    fn gc_pause_is_sampled_via_exec_interface() {
        // Drive the meter through the dyn Exec interface the collectors use.
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        m.enter(ComponentId::Gc);
        let e: &mut dyn Exec = &mut m;
        for i in 0..100_000u64 {
            e.load(0x1000_0000 + i * 64);
        }
        m.exit();
        m.flush_samples();
        assert!(m.daq().report().component(ComponentId::Gc).samples > 0);
    }

    #[test]
    fn io_writes_cost_cycles() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        let c0 = Exec::cycles(&m);
        m.enter(ComponentId::ClassLoader);
        m.exit();
        assert!(Exec::cycles(&m) - c0 >= 2 * 180);
        assert_eq!(m.port().writes(), 2);
    }

    #[test]
    fn span_recording_charges_zero_cycles() {
        let drive = |record: bool| {
            let mut m = Meter::new(PlatformKind::PentiumM, false);
            if record {
                m.enable_spans();
            }
            m.set_base(ComponentId::Application);
            m.enter(ComponentId::Gc);
            m.int_ops(5000);
            m.enter(ComponentId::ClassLoader);
            m.int_ops(100);
            m.exit();
            m.exit();
            m.flush_samples();
            (Exec::cycles(&m), m.take_spans())
        };
        let (bare_cycles, none) = drive(false);
        let (rec_cycles, spans) = drive(true);
        assert!(none.is_none());
        assert_eq!(bare_cycles, rec_cycles);
        let trace = spans.expect("recording enabled");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans()[0].name, "CL");
        assert_eq!(trace.spans()[1].name, "GC");
        assert_eq!(trace.max_depth(), 2);
        assert_eq!(trace.total_cycles(), rec_cycles);
    }

    #[test]
    fn nontransparent_probes_cost_cycles_and_fill_the_ledger() {
        let drive = |probe: ProbeSpec| {
            let mut m = Meter::with_probe(
                PlatformKind::PentiumM,
                false,
                DvfsPoint::NOMINAL,
                FaultPlan::none(),
                probe,
            );
            m.set_base(ComponentId::Application);
            // Fixed work, not fixed time: the observer effect shows up as
            // extra cycles for the same workload.
            for _ in 0..10_000 {
                m.int_ops(1000);
            }
            m.enter(ComponentId::Gc);
            m.int_ops(5000);
            m.exit();
            m.flush_samples();
            (Exec::cycles(&m), m.probe_stats())
        };
        let (t_cycles, t_stats) = drive(ProbeSpec::default());
        let (nt_cycles, nt_stats) = drive(ProbeSpec::nontransparent_at(DEFAULT_DAQ_PERIOD_NS));
        // Transparent mode pays nothing but still tracks transitions.
        assert_eq!(t_stats.port_stores, 0);
        assert_eq!(t_stats.cycles_paid, 0);
        assert!(t_stats.transition_windows >= 1);
        // Non-transparent mode pays for every probe class.
        assert!(nt_stats.port_stores >= 3);
        assert!(nt_stats.daq_samples_paid >= 40);
        assert!(nt_stats.hpm_reads_paid >= 1);
        assert!(nt_stats.cycles_paid > 0);
        // Direct probe cycles are a lower bound on the observer effect —
        // evicted workload lines add knock-on misses on top.
        assert!(nt_cycles > t_cycles);
        assert!(nt_cycles - t_cycles >= nt_stats.cycles_paid);
    }

    #[test]
    fn retargeted_period_changes_sample_density() {
        let samples_at = |period_ns: u64| {
            let mut m = Meter::with_probe(
                PlatformKind::PentiumM,
                false,
                DvfsPoint::NOMINAL,
                FaultPlan::none(),
                ProbeSpec::transparent_at(period_ns),
            );
            m.set_base(ComponentId::Application);
            while Exec::now(&m) < 2e-3 {
                m.int_ops(1000);
            }
            m.flush_samples();
            m.daq().report().component(ComponentId::Application).samples
        };
        let fine = samples_at(4_000);
        let classic = samples_at(40_000);
        assert!(
            fine > 5 * classic,
            "4 µs sampling ({fine}) should far outnumber 40 µs ({classic})"
        );
    }

    #[test]
    fn float_poll_fires_exactly_where_the_integer_rule_does() {
        // 1.15-cycle ops leave the accumulator fractional at every boundary;
        // 4000-cycle stalls land exactly on the DAQ and OS-timer boundaries.
        let fractional: fn(&mut dyn Exec) = |e| e.int_ops(1);
        let exact: fn(&mut dyn Exec) = |e| e.stall(4000.0);
        let kind = PlatformKind::Pxa255;
        for (work, steps) in [(fractional, 4_000_000), (exact, 2_000)] {
            let mut meter = Meter::new(kind, false);
            let (mut m, mut daq, mut perf) =
                (Machine::new(kind), Daq::new(kind), PerfMonitor::new(kind));
            for _ in 0..steps {
                work(&mut meter);
                work(&mut m);
                if m.cycles() >= daq.next_due_cycles().min(perf.next_due_cycles()) {
                    daq.observe(&m.snapshot(), meter.port().current());
                    perf.observe(&m.snapshot(), meter.port().current());
                }
            }
            assert_eq!(meter.daq().report(), daq.report());
            assert_eq!(meter.perf().records(), perf.records());
            assert!(!perf.records().is_empty());
        }
    }

    #[test]
    fn flush_captures_trailing_partial_window() {
        let mut m = Meter::new(PlatformKind::PentiumM, false);
        m.set_base(ComponentId::Application);
        m.int_ops(10); // far less than one window
        m.flush_samples();
        let r = m.daq().report();
        assert!(r.component(ComponentId::Application).samples >= 1);
    }
}
