//! Regeneration of every figure and in-text table of the paper's
//! evaluation (Section VI), one entry point per artifact.
//!
//! Each function returns a typed data structure that also implements
//! [`Display`](std::fmt::Display) so `vmprobe-run <artifact…>` can print
//! the same rows/series the paper reports.
//! Absolute values differ from the paper's silicon — the substrate here is
//! a calibrated simulator — but the *shapes* (who wins, by what factor,
//! where crossovers fall) are the reproduction target; `EXPERIMENTS.md`
//! records paper-vs-measured for each.

use std::fmt;
use std::sync::Arc;

use vmprobe_heap::CollectorKind;
use vmprobe_power::{ComponentId, ThermalConfig, ThermalSim, Watts};
use vmprobe_workloads::{all_benchmarks, pxa255_benchmarks, suite_benchmarks, Suite};

use crate::{
    ExperimentConfig, ExperimentError, FailedCell, RunSummary, Runner, Table, P6_HEAPS_MB,
};

/// Names of every registered benchmark, in registry order — the default
/// benchmark list for the full paper-scope sweeps.
pub fn all_benchmark_names() -> Vec<&'static str> {
    all_benchmarks().iter().map(|b| b.name).collect()
}

/// Names of the PXA255 benchmark subset (SpecJVM98 `-s10`).
pub fn pxa_benchmark_names() -> Vec<&'static str> {
    pxa255_benchmarks().iter().map(|b| b.name).collect()
}

/// Propagate the first failure (in submission order) of a strict sweep.
///
/// Unlike the serial loops these replaced, the whole grid has already run
/// in parallel by the time the first error surfaces — later cells are
/// executed (and cached, and accounted) rather than skipped. The surfaced
/// error is deterministic: always the earliest failing cell in submission
/// order, regardless of thread count.
fn strict(
    results: Vec<Result<Arc<RunSummary>, ExperimentError>>,
) -> Result<Vec<Arc<RunSummary>>, ExperimentError> {
    results.into_iter().collect()
}

fn write_failed(f: &mut fmt::Formatter<'_>, failed: &[FailedCell]) -> fmt::Result {
    for cell in failed {
        writeln!(f, "{cell}")?;
    }
    Ok(())
}

/// The components the paper monitors for Jikes RVM, in its legend order.
pub const JIKES_COMPONENTS: [ComponentId; 4] = [
    ComponentId::OptCompiler,
    ComponentId::BaseCompiler,
    ComponentId::ClassLoader,
    ComponentId::Gc,
];

/// The components the paper monitors for Kaffe.
pub const KAFFE_COMPONENTS: [ComponentId; 3] = [
    ComponentId::Gc,
    ComponentId::ClassLoader,
    ComponentId::JitCompiler,
];

fn pct(v: f64) -> String {
    format!("{:5.1}%", 100.0 * v)
}

// ---------------------------------------------------------------- Figure 1

/// One sample of the thermal trace.
#[derive(Debug, Clone, Copy)]
pub struct ThermalPoint {
    /// Elapsed seconds.
    pub t_s: f64,
    /// Die temperature in °C.
    pub temp_c: f64,
    /// Effective clock duty cycle (0.5 while throttled).
    pub duty: f64,
}

/// Figure 1: processor temperature under repetitive `_222_mpegaudio` with
/// the fan enabled vs disabled, including the 99 °C emergency throttle.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Average chip power of the underlying run, in watts.
    pub run_power_w: f64,
    /// Fan-enabled trace (settles near 60 °C).
    pub fan_on: Vec<ThermalPoint>,
    /// Fan-disabled trace (trips the throttle near 99 °C).
    pub fan_off: Vec<ThermalPoint>,
    /// Seconds until the throttle first engages in the fan-off trace.
    pub throttle_onset_s: Option<f64>,
}

/// Regenerate Figure 1.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from the underlying mpegaudio run.
pub fn fig1(runner: &mut Runner) -> Result<Fig1, ExperimentError> {
    let _phase = runner.phase("fig1");
    let cfg = ExperimentConfig::jikes("_222_mpegaudio", CollectorKind::GenCopy, 64);
    let run = runner.run(&cfg)?;
    let power =
        Watts::new(run.report.cpu_energy.joules() / run.report.duration.seconds().max(1e-12));
    let idle = Watts::new(4.5);

    // Package calibration anchored to the paper's Figure 1: the fan-on
    // steady state sits near 60 °C and the fan-off steady state well above
    // the 99 °C trip point, for *this* workload's measured power.
    let thermal_cfg = ThermalConfig {
        r_fan_on: 35.0 / power.watts().max(1.0),
        r_fan_off: 82.0 / power.watts().max(1.0),
        capacitance: 2.4 * power.watts().max(1.0),
        ..ThermalConfig::default()
    };

    let simulate = |fan: bool, start_warm: bool| {
        let mut sim = ThermalSim::new(thermal_cfg, true);
        if start_warm {
            // Reach fan-on steady state first (the paper's scenario starts
            // from normal operation).
            for _ in 0..6_000 {
                sim.step(power, idle, vmprobe_power::Seconds::new(0.1));
            }
        }
        sim.set_fan(fan);
        let mut trace = Vec::new();
        let dt = vmprobe_power::Seconds::new(0.1);
        for i in 0..6_000 {
            let s = sim.step(power, idle, dt);
            if i % 20 == 0 {
                trace.push(ThermalPoint {
                    t_s: i as f64 * 0.1,
                    temp_c: s.temp.celsius(),
                    duty: if s.throttled { 0.5 } else { 1.0 },
                });
            }
        }
        trace
    };

    let fan_on = simulate(true, false);
    let fan_off = simulate(false, true);
    let throttle_onset_s = fan_off.iter().find(|p| p.duty < 1.0).map(|p| p.t_s);
    Ok(Fig1 {
        run_power_w: power.watts(),
        fan_on,
        fan_off,
        throttle_onset_s,
    })
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1: thermal behaviour, repetitive _222_mpegaudio (GenCopy), \
             chip power {:.1} W",
            self.run_power_w
        )?;
        let mut t = Table::new(vec![
            "t (s)".into(),
            "fan-on temp (C)".into(),
            "fan-off temp (C)".into(),
            "fan-off duty".into(),
        ]);
        for (a, b) in self.fan_on.iter().zip(&self.fan_off) {
            t.row(vec![
                format!("{:.0}", a.t_s),
                format!("{:.1}", a.temp_c),
                format!("{:.1}", b.temp_c),
                format!("{:.2}", b.duty),
            ]);
        }
        write!(f, "{t}")?;
        match self.throttle_onset_s {
            Some(s) => writeln!(
                f,
                "emergency throttle engaged after {s:.0} s (paper: ~240 s)"
            ),
            None => writeln!(f, "throttle never engaged"),
        }
    }
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: the benchmark inventory.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// (suite, name, description, modeled alloc bytes, modeled live bytes).
    pub rows: Vec<(String, String, String, u64, u64)>,
}

/// Regenerate Figure 5 (the workload table).
pub fn fig5() -> Fig5 {
    Fig5 {
        rows: all_benchmarks()
            .into_iter()
            .map(|b| {
                (
                    b.suite.to_string(),
                    b.name.to_string(),
                    b.description.to_string(),
                    b.blueprint.est_alloc_bytes(),
                    b.blueprint.est_live_bytes(),
                )
            })
            .collect(),
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 5: benchmark suites")?;
        let mut t = Table::new(vec![
            "Suite".into(),
            "Benchmark".into(),
            "Description".into(),
            "alloc (KiB)".into(),
            "live (KiB)".into(),
        ]);
        for (s, n, d, a, l) in &self.rows {
            t.row(vec![
                s.clone(),
                n.clone(),
                d.clone(),
                format!("{}", a >> 10),
                format!("{}", l >> 10),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------- Figure 6

/// One energy-decomposition bar.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Heap label (MB).
    pub heap_mb: u32,
    /// Fractions per monitored component, in legend order, with the
    /// application holding the remainder.
    pub fractions: Vec<(ComponentId, f64)>,
    /// Application (mutator) fraction: the remainder after the monitored
    /// VM components.
    pub app_fraction: f64,
}

/// Figure 6: per-component energy decomposition under Jikes + SemiSpace.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// All bars, benchmark-major then heap order.
    pub rows: Vec<BreakdownRow>,
    /// Cells that could not be filled (failed or quarantined runs).
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 6 for the given benchmarks (paper scope:
/// [`all_benchmark_names`]) across the given heap labels (defaults:
/// [`P6_HEAPS_MB`]). The whole grid executes as one parallel batch on the
/// runner's configured workers.
///
/// Degrades gracefully: a failing or quarantined cell is recorded in
/// [`Fig6::failed`] (and the runner's [`crate::RunReport`]) and the sweep
/// continues.
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig6(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig6, ExperimentError> {
    let _phase = runner.phase("fig6");
    let configs: Vec<ExperimentConfig> = benchmarks
        .iter()
        .flat_map(|&b| {
            heaps
                .iter()
                .map(move |&h| ExperimentConfig::jikes(b, CollectorKind::SemiSpace, h))
        })
        .collect();
    let mut failed = Vec::new();
    let runs = runner.cells(&configs, &mut failed);
    let rows = configs
        .iter()
        .zip(&runs)
        .filter_map(|(cfg, run)| {
            run.as_ref()
                .map(|r| breakdown_row(&cfg.benchmark, cfg.heap_mb, r, &JIKES_COMPONENTS))
        })
        .collect();
    Ok(Fig6 { rows, failed })
}

fn breakdown_row(
    name: &str,
    heap_mb: u32,
    run: &crate::RunSummary,
    components: &[ComponentId],
) -> BreakdownRow {
    let fractions: Vec<(ComponentId, f64)> =
        components.iter().map(|&c| (c, run.fraction(c))).collect();
    let monitored: f64 = fractions.iter().map(|(_, v)| v).sum();
    BreakdownRow {
        benchmark: name.to_owned(),
        heap_mb,
        fractions,
        app_fraction: (1.0 - monitored).max(0.0),
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 6: energy decomposition, Jikes RVM + SemiSpace")?;
        let mut t = Table::new(vec![
            "benchmark".into(),
            "heap".into(),
            "opt_comp".into(),
            "base_comp".into(),
            "CL".into(),
            "GC".into(),
            "App".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone(), format!("{}MB", r.heap_mb)];
            cells.extend(r.fractions.iter().map(|(_, v)| pct(*v)));
            cells.push(pct(r.app_fraction));
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ---------------------------------------------------------------- Figure 7

/// EDP of one benchmark under one collector across heaps.
#[derive(Debug, Clone)]
pub struct EdpCurve {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector.
    pub collector: CollectorKind,
    /// `(heap MB, EDP J·s)` points.
    pub points: Vec<(u32, f64)>,
}

/// Figure 7: energy-delay product vs heap size for the four Jikes
/// collectors.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One curve per (benchmark, collector).
    pub curves: Vec<EdpCurve>,
    /// Cells that could not be filled; their `(heap, EDP)` points are
    /// simply absent from the affected curves.
    pub failed: Vec<FailedCell>,
}

impl Fig7 {
    /// The curve for (benchmark, collector), if present.
    pub fn curve(&self, benchmark: &str, collector: CollectorKind) -> Option<&EdpCurve> {
        self.curves
            .iter()
            .find(|c| c.benchmark == benchmark && c.collector == collector)
    }
}

impl EdpCurve {
    /// EDP at a heap label, if that point exists.
    pub fn at(&self, heap_mb: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(h, _)| *h == heap_mb)
            .map(|(_, e)| *e)
    }
}

/// Regenerate Figure 7 for the given benchmarks and heaps (defaults: all
/// benchmarks, [`P6_HEAPS_MB`]). The full benchmark × collector × heap
/// grid executes as one parallel batch.
///
/// Degrades gracefully: failing cells leave gaps in the affected curves
/// and are listed in [`Fig7::failed`].
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig7(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig7, ExperimentError> {
    let _phase = runner.phase("fig7");
    let mut configs = Vec::new();
    for &name in benchmarks {
        for collector in CollectorKind::jikes_collectors() {
            for &h in heaps {
                configs.push(ExperimentConfig::jikes(name, collector, h));
            }
        }
    }
    let mut failed = Vec::new();
    let mut runs = runner.cells(&configs, &mut failed).into_iter();
    let mut curves = Vec::new();
    for &name in benchmarks {
        for collector in CollectorKind::jikes_collectors() {
            let mut points = Vec::new();
            for &h in heaps {
                if let Some(run) = runs.next().expect("one result per cell") {
                    points.push((h, run.edp()));
                }
            }
            curves.push(EdpCurve {
                benchmark: name.to_owned(),
                collector,
                points,
            });
        }
    }
    Ok(Fig7 { curves, failed })
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7: energy-delay product (J*s) vs heap size, Jikes RVM"
        )?;
        let heaps: Vec<u32> = self
            .curves
            .first()
            .map(|c| c.points.iter().map(|(h, _)| *h).collect())
            .unwrap_or_default();
        let mut header = vec!["benchmark".into(), "collector".into()];
        header.extend(heaps.iter().map(|h| format!("{h}MB")));
        let mut t = Table::new(header);
        for c in &self.curves {
            let mut cells = vec![c.benchmark.clone(), c.collector.to_string()];
            cells.extend(
                heaps
                    .iter()
                    .map(|&h| c.at(h).map_or_else(|| "--".into(), |e| format!("{e:.4}"))),
            );
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ---------------------------------------------------------------- Figure 8

/// Average and peak power of one component for one benchmark.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `(component, avg W, peak W)` for App, GC, CL.
    pub components: Vec<(ComponentId, f64, f64)>,
}

/// Figure 8: average (top) and peak (bottom) power per component under
/// GenCopy, aggregated across the heap sweep.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per benchmark.
    pub rows: Vec<PowerRow>,
    /// Cells excluded from the aggregation because their runs failed.
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 8 for the given benchmarks (paper scope:
/// [`all_benchmark_names`]), GenCopy, aggregated over `heaps`. The grid
/// executes as one parallel batch.
///
/// Degrades gracefully: failing cells are excluded from each benchmark's
/// aggregate and listed in [`Fig8::failed`].
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig8(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig8, ExperimentError> {
    let _phase = runner.phase("fig8");
    let comps = [
        ComponentId::Application,
        ComponentId::Gc,
        ComponentId::ClassLoader,
    ];
    let configs: Vec<ExperimentConfig> = benchmarks
        .iter()
        .flat_map(|&b| {
            heaps
                .iter()
                .map(move |&h| ExperimentConfig::jikes(b, CollectorKind::GenCopy, h))
        })
        .collect();
    let mut failed = Vec::new();
    let mut runs = runner.cells(&configs, &mut failed).into_iter();
    let mut rows = Vec::new();
    for &name in benchmarks {
        let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); comps.len()]; // (energy, time, peak)
        for _ in heaps {
            let Some(run) = runs.next().expect("one result per cell") else {
                continue;
            };
            for (i, &c) in comps.iter().enumerate() {
                if let Some(p) = run.report.component(c) {
                    acc[i].0 += p.energy.joules();
                    acc[i].1 += p.time.seconds();
                    acc[i].2 = acc[i].2.max(p.peak_power.watts());
                }
            }
        }
        rows.push(PowerRow {
            benchmark: name.to_owned(),
            components: comps
                .iter()
                .zip(&acc)
                .map(|(&c, &(e, t, pk))| (c, if t > 0.0 { e / t } else { 0.0 }, pk))
                .collect(),
        });
    }
    Ok(Fig8 { rows, failed })
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: average and peak power per component, Jikes RVM + GenCopy"
        )?;
        let mut t = Table::new(vec![
            "benchmark".into(),
            "App avg W".into(),
            "App peak W".into(),
            "GC avg W".into(),
            "GC peak W".into(),
            "CL avg W".into(),
            "CL peak W".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone()];
            for &(_, avg, peak) in &r.components {
                cells.push(format!("{avg:.2}"));
                cells.push(format!("{peak:.2}"));
            }
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ------------------------------------------------------- Figures 9 and 10

/// Figure 9: Kaffe energy distribution on the P6 platform.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One bar per (benchmark, heap).
    pub rows: Vec<BreakdownRow>,
    /// Cells that could not be filled (failed or quarantined runs).
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 9 for the given benchmarks (paper scope:
/// [`all_benchmark_names`]). The grid executes as one parallel batch.
///
/// Degrades gracefully: failing cells are listed in [`Fig9::failed`] and
/// the sweep continues.
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig9(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig9, ExperimentError> {
    let _phase = runner.phase("fig9");
    let configs: Vec<ExperimentConfig> = benchmarks
        .iter()
        .flat_map(|&b| heaps.iter().map(move |&h| ExperimentConfig::kaffe(b, h)))
        .collect();
    let mut failed = Vec::new();
    let runs = runner.cells(&configs, &mut failed);
    let rows = configs
        .iter()
        .zip(&runs)
        .filter_map(|(cfg, run)| {
            run.as_ref()
                .map(|r| breakdown_row(&cfg.benchmark, cfg.heap_mb, r, &KAFFE_COMPONENTS))
        })
        .collect();
    Ok(Fig9 { rows, failed })
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 9: energy distribution, Kaffe on Pentium M")?;
        let mut t = Table::new(vec![
            "benchmark".into(),
            "heap".into(),
            "GC".into(),
            "CL".into(),
            "JIT".into(),
            "App".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone(), format!("{}MB", r.heap_mb)];
            cells.extend(r.fractions.iter().map(|(_, v)| pct(*v)));
            cells.push(pct(r.app_fraction));
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

/// Figure 10: Kaffe energy-delay product vs heap on the P6.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// One curve per benchmark.
    pub curves: Vec<EdpCurve>,
    /// Cells that could not be filled; their points are absent from the
    /// affected curves.
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 10 for the given benchmarks (paper scope:
/// [`all_benchmark_names`]). The grid executes as one parallel batch —
/// and entirely from cache when Figure 9 already ran on the same runner.
///
/// Degrades gracefully: failing cells leave gaps in the affected curves
/// and are listed in [`Fig10::failed`].
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig10(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig10, ExperimentError> {
    let _phase = runner.phase("fig10");
    let configs: Vec<ExperimentConfig> = benchmarks
        .iter()
        .flat_map(|&b| heaps.iter().map(move |&h| ExperimentConfig::kaffe(b, h)))
        .collect();
    let mut failed = Vec::new();
    let mut runs = runner.cells(&configs, &mut failed).into_iter();
    let mut curves = Vec::new();
    for &name in benchmarks {
        let mut points = Vec::new();
        for &h in heaps {
            if let Some(run) = runs.next().expect("one result per cell") {
                points.push((h, run.edp()));
            }
        }
        curves.push(EdpCurve {
            benchmark: name.to_owned(),
            collector: CollectorKind::KaffeIncremental,
            points,
        });
    }
    Ok(Fig10 { curves, failed })
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: energy-delay product (J*s) vs heap, Kaffe on Pentium M"
        )?;
        let heaps: Vec<u32> = self
            .curves
            .first()
            .map(|c| c.points.iter().map(|(h, _)| *h).collect())
            .unwrap_or_default();
        let mut header = vec!["benchmark".into()];
        header.extend(heaps.iter().map(|h| format!("{h}MB")));
        let mut t = Table::new(header);
        for c in &self.curves {
            let mut cells = vec![c.benchmark.clone()];
            cells.extend(
                heaps
                    .iter()
                    .map(|&h| c.at(h).map_or_else(|| "--".into(), |e| format!("{e:.4}"))),
            );
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// --------------------------------------------------------------- Figure 11

/// Figure 11: Kaffe on the PXA255 (five SpecJVM98 benchmarks, `-s10`).
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// One bar per (benchmark, heap).
    pub rows: Vec<BreakdownRow>,
    /// Cells that could not be filled (failed or quarantined runs).
    pub failed: Vec<FailedCell>,
}

/// Regenerate Figure 11 for the given benchmarks (paper scope:
/// [`pxa_benchmark_names`]) across the PXA255 heap sweep (defaults:
/// [`crate::PXA_HEAPS_MB`]). The grid executes as one parallel batch.
///
/// Degrades gracefully: failing cells are listed in [`Fig11::failed`] and
/// the sweep continues.
///
/// # Errors
///
/// Reserved for sweep-level failures; per-cell failures no longer
/// propagate.
pub fn fig11(
    runner: &mut Runner,
    benchmarks: &[&str],
    heaps: &[u32],
) -> Result<Fig11, ExperimentError> {
    let _phase = runner.phase("fig11");
    let configs: Vec<ExperimentConfig> = benchmarks
        .iter()
        .flat_map(|&b| {
            heaps
                .iter()
                .map(move |&h| ExperimentConfig::kaffe_pxa(b, h))
        })
        .collect();
    let mut failed = Vec::new();
    let runs = runner.cells(&configs, &mut failed);
    let rows = configs
        .iter()
        .zip(&runs)
        .filter_map(|(cfg, run)| {
            run.as_ref()
                .map(|r| breakdown_row(&cfg.benchmark, cfg.heap_mb, r, &KAFFE_COMPONENTS))
        })
        .collect();
    Ok(Fig11 { rows, failed })
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 11: energy decomposition, Kaffe on Intel PXA255 (s10)"
        )?;
        let mut t = Table::new(vec![
            "benchmark".into(),
            "heap".into(),
            "GC".into(),
            "CL".into(),
            "JIT".into(),
            "App".into(),
        ]);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone(), format!("{}MB", r.heap_mb)];
            cells.extend(r.fractions.iter().map(|(_, v)| pct(*v)));
            cells.push(pct(r.app_fraction));
            t.row(cells);
        }
        write!(f, "{t}")?;
        write_failed(f, &self.failed)
    }
}

// ------------------------------------------------------------ Tables T1-T5

/// T1 (§VI-C in-text): average GC power per collector over SpecJVM98.
#[derive(Debug, Clone)]
pub struct T1CollectorPower {
    /// `(collector, average GC watts)`.
    pub rows: Vec<(CollectorKind, f64)>,
}

/// Regenerate T1 across `heaps`. The full collector × benchmark × heap
/// grid executes as one parallel batch before aggregation.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t1_collector_power(
    runner: &mut Runner,
    heaps: &[u32],
) -> Result<T1CollectorPower, ExperimentError> {
    let _phase = runner.phase("t1");
    let benches = suite_benchmarks(Suite::SpecJvm98);
    let mut configs = Vec::new();
    for collector in CollectorKind::jikes_collectors() {
        for b in &benches {
            for &h in heaps {
                configs.push(ExperimentConfig::jikes(b.name, collector, h));
            }
        }
    }
    let mut runs = strict(runner.run_batch(&configs))?.into_iter();
    let mut rows = Vec::new();
    for collector in CollectorKind::jikes_collectors() {
        let mut energy = 0.0;
        let mut time = 0.0;
        for _ in &benches {
            for _ in heaps {
                let run = runs.next().expect("one result per cell");
                if let Some(gc) = run.report.component(ComponentId::Gc) {
                    energy += gc.energy.joules();
                    time += gc.time.seconds();
                }
            }
        }
        rows.push((collector, if time > 0.0 { energy / time } else { 0.0 }));
    }
    Ok(T1CollectorPower { rows })
}

impl fmt::Display for T1CollectorPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T1: average GC power per collector (SpecJVM98)")?;
        writeln!(
            f,
            "    paper: GenCopy 12.8 W, SemiSpace 12.3 W, GenMS 12.7 W, MarkSweep 11.7 W"
        )?;
        let mut t = Table::new(vec!["collector".into(), "avg GC power (W)".into()]);
        for (c, w) in &self.rows {
            t.row(vec![c.to_string(), format!("{w:.2}")]);
        }
        write!(f, "{t}")
    }
}

/// T2 (§VI-C in-text): per-component IPC and L2 miss rate (GenCopy).
#[derive(Debug, Clone)]
pub struct T2L2Ipc {
    /// `(component, suite, ipc, l2 miss rate)`.
    pub rows: Vec<(ComponentId, Suite, f64, f64)>,
}

/// Regenerate T2 for SpecJVM98 and DaCapo under GenCopy at `heaps`. Each
/// suite's benchmark × heap grid executes as one parallel batch.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t2_l2_ipc(runner: &mut Runner, heaps: &[u32]) -> Result<T2L2Ipc, ExperimentError> {
    let _phase = runner.phase("t2");
    let mut rows = Vec::new();
    for suite in [Suite::SpecJvm98, Suite::DaCapo] {
        let benches = suite_benchmarks(suite);
        let mut configs = Vec::new();
        for b in &benches {
            for &h in heaps {
                configs.push(ExperimentConfig::jikes(b.name, CollectorKind::GenCopy, h));
            }
        }
        let runs = strict(runner.run_batch(&configs))?;
        for comp in [
            ComponentId::Gc,
            ComponentId::ClassLoader,
            ComponentId::Application,
        ] {
            let mut ipc_num = 0.0;
            let mut cycles = 0.0;
            let mut l2m = 0.0;
            let mut l2a = 0.0;
            for run in &runs {
                {
                    if let Some(p) = run.report.component(comp) {
                        // Reconstruct sums from the profile's ratios and
                        // instruction counts.
                        if p.ipc > 0.0 {
                            let cyc = p.instructions as f64 / p.ipc;
                            ipc_num += p.instructions as f64;
                            cycles += cyc;
                        }
                        // Weight miss rate by instructions as a proxy for
                        // access volume.
                        l2m += p.l2_miss_rate * p.instructions as f64;
                        l2a += p.instructions as f64;
                    }
                }
            }
            rows.push((
                comp,
                suite,
                if cycles > 0.0 { ipc_num / cycles } else { 0.0 },
                if l2a > 0.0 { l2m / l2a } else { 0.0 },
            ));
        }
    }
    Ok(T2L2Ipc { rows })
}

impl fmt::Display for T2L2Ipc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T2: per-component IPC and L2 miss rate (Jikes + GenCopy)"
        )?;
        writeln!(
            f,
            "    paper: GC misses 54%/56% (Spec/DaCapo), CL 12%/21%, App 11%; \
             IPC App ~0.8, GC ~0.55"
        )?;
        let mut t = Table::new(vec![
            "component".into(),
            "suite".into(),
            "IPC".into(),
            "L2 miss rate".into(),
        ]);
        for (c, s, ipc, miss) in &self.rows {
            t.row(vec![
                c.to_string(),
                s.to_string(),
                format!("{ipc:.2}"),
                pct(*miss),
            ]);
        }
        write!(f, "{t}")
    }
}

/// T3 (§VI-B in-text): memory energy as a share of total energy, per suite.
#[derive(Debug, Clone)]
pub struct T3MemoryEnergy {
    /// `(suite, memory energy fraction)`.
    pub rows: Vec<(Suite, f64)>,
}

/// Regenerate T3 under Jikes + SemiSpace at `heaps`. Each suite's
/// benchmark × heap grid executes as one parallel batch.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t3_memory_energy(
    runner: &mut Runner,
    heaps: &[u32],
) -> Result<T3MemoryEnergy, ExperimentError> {
    let _phase = runner.phase("t3");
    let mut rows = Vec::new();
    for suite in [Suite::SpecJvm98, Suite::DaCapo, Suite::JavaGrande] {
        let mut configs = Vec::new();
        for b in suite_benchmarks(suite) {
            for &h in heaps {
                configs.push(ExperimentConfig::jikes(b.name, CollectorKind::SemiSpace, h));
            }
        }
        let mut mem = 0.0;
        let mut total = 0.0;
        for run in strict(runner.run_batch(&configs))? {
            mem += run.report.mem_energy.joules();
            total += run.report.total_energy.joules();
        }
        rows.push((suite, if total > 0.0 { mem / total } else { 0.0 }));
    }
    Ok(T3MemoryEnergy { rows })
}

impl fmt::Display for T3MemoryEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T3: main-memory energy share of total (Jikes + SemiSpace)"
        )?;
        writeln!(f, "    paper: ~7% SpecJVM98, ~5% DaCapo, ~8% Java Grande")?;
        let mut t = Table::new(vec!["suite".into(), "memory energy share".into()]);
        for (s, v) in &self.rows {
            t.row(vec![s.to_string(), pct(*v)]);
        }
        write!(f, "{t}")
    }
}

/// T4 (§VI-A/B in-text): the paper's headline numbers.
#[derive(Debug, Clone)]
pub struct T4Headlines {
    /// Maximum JVM energy fraction and where it occurs (paper: 60%,
    /// `_213_javac` @ 32 MB).
    pub max_jvm_fraction: (String, u32, f64),
    /// Average GC fraction for SpecJVM98 at 32 MB and 128 MB (paper: 37% →
    /// 10%).
    pub spec_gc_32_vs_128: (f64, f64),
    /// Average GC fraction for DaCapo at 48 MB and 128 MB (paper: 32% →
    /// 11%).
    pub dacapo_gc_48_vs_128: (f64, f64),
    /// EDP improvement of GenMS over SemiSpace for `_213_javac` at 32 MB
    /// (paper: up to 70%).
    pub javac_genms_vs_semispace_32: f64,
    /// EDP advantage of SemiSpace over GenCopy for `_209_db` at 128 MB
    /// (paper: 5%).
    pub db_semispace_vs_gencopy_128: f64,
    /// EDP reduction from 32→48 MB under SemiSpace for `_213_javac`,
    /// `_227_mtrt`, `euler` (paper: 56%, 50%, 27%).
    pub semispace_32_to_48: [(String, f64); 3],
    /// Same transition under GenCopy (paper: 20%, 2%, 3%).
    pub gencopy_32_to_48: [(String, f64); 3],
    /// Average/maximum fractions of the small components under SemiSpace:
    /// (base avg, opt avg, opt max, CL avg, CL max); paper: <1%, 3%, 7%
    /// (`_222_mpegaudio`), 3%, 24% (`fop`).
    pub small_components: (f64, f64, f64, f64, f64),
}

/// Regenerate T4 from Figure 6/7 data.
///
/// # Errors
///
/// Propagates the first failing run.
pub fn t4_headlines(runner: &mut Runner) -> Result<T4Headlines, ExperimentError> {
    let _phase = runner.phase("t4");
    let fig6 = fig6(runner, &all_benchmark_names(), &P6_HEAPS_MB)?;
    let names: Vec<&str> = ["_213_javac", "_227_mtrt", "euler", "_209_db"].to_vec();
    let fig7 = fig7(runner, &names, &P6_HEAPS_MB)?;

    let frac = |r: &BreakdownRow, c: ComponentId| {
        r.fractions
            .iter()
            .find(|(x, _)| *x == c)
            .map_or(0.0, |(_, v)| *v)
    };

    // Max JVM fraction.
    let mut max_jvm = (String::new(), 0u32, 0.0f64);
    for r in &fig6.rows {
        let jvm: f64 = r.fractions.iter().map(|(_, v)| v).sum();
        if jvm > max_jvm.2 {
            max_jvm = (r.benchmark.clone(), r.heap_mb, jvm);
        }
    }

    let suite_avg_gc = |suite: Suite, heap: u32| -> f64 {
        let names: Vec<_> = suite_benchmarks(suite).iter().map(|b| b.name).collect();
        let vals: Vec<f64> = fig6
            .rows
            .iter()
            .filter(|r| r.heap_mb == heap && names.contains(&r.benchmark.as_str()))
            .map(|r| frac(r, ComponentId::Gc))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };

    let edp = |bench: &str, col: CollectorKind, heap: u32| -> f64 {
        fig7.curve(bench, col)
            .and_then(|c| c.at(heap))
            .unwrap_or(f64::NAN)
    };
    let drop_pct = |a: f64, b: f64| (a - b) / a;

    let three = |col: CollectorKind| -> [(String, f64); 3] {
        ["_213_javac", "_227_mtrt", "euler"]
            .map(|n| (n.to_owned(), drop_pct(edp(n, col, 32), edp(n, col, 48))))
    };

    // Small components under SemiSpace across all bars.
    let avg = |c: ComponentId| -> f64 {
        fig6.rows.iter().map(|r| frac(r, c)).sum::<f64>() / fig6.rows.len() as f64
    };
    let max = |c: ComponentId| -> f64 { fig6.rows.iter().map(|r| frac(r, c)).fold(0.0, f64::max) };

    Ok(T4Headlines {
        max_jvm_fraction: max_jvm,
        spec_gc_32_vs_128: (
            suite_avg_gc(Suite::SpecJvm98, 32),
            suite_avg_gc(Suite::SpecJvm98, 128),
        ),
        dacapo_gc_48_vs_128: (
            suite_avg_gc(Suite::DaCapo, 48),
            suite_avg_gc(Suite::DaCapo, 128),
        ),
        javac_genms_vs_semispace_32: drop_pct(
            edp("_213_javac", CollectorKind::SemiSpace, 32),
            edp("_213_javac", CollectorKind::GenMs, 32),
        ),
        db_semispace_vs_gencopy_128: drop_pct(
            edp("_209_db", CollectorKind::GenCopy, 128),
            edp("_209_db", CollectorKind::SemiSpace, 128),
        ),
        semispace_32_to_48: three(CollectorKind::SemiSpace),
        gencopy_32_to_48: three(CollectorKind::GenCopy),
        small_components: (
            avg(ComponentId::BaseCompiler),
            avg(ComponentId::OptCompiler),
            max(ComponentId::OptCompiler),
            avg(ComponentId::ClassLoader),
            max(ComponentId::ClassLoader),
        ),
    })
}

impl fmt::Display for T4Headlines {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T4: headline claims (measured vs paper)")?;
        let (b, h, v) = &self.max_jvm_fraction;
        writeln!(
            f,
            "  max JVM energy:        {} @ {}MB = {} (paper: _213_javac @32MB, 60%)",
            b,
            h,
            pct(*v)
        )?;
        writeln!(
            f,
            "  Spec GC 32->128MB:     {} -> {} (paper: 37% -> 10%)",
            pct(self.spec_gc_32_vs_128.0),
            pct(self.spec_gc_32_vs_128.1)
        )?;
        writeln!(
            f,
            "  DaCapo GC 48->128MB:   {} -> {} (paper: 32% -> 11%)",
            pct(self.dacapo_gc_48_vs_128.0),
            pct(self.dacapo_gc_48_vs_128.1)
        )?;
        writeln!(
            f,
            "  javac GenMS vs SS @32: {} EDP improvement (paper: up to 70%)",
            pct(self.javac_genms_vs_semispace_32)
        )?;
        writeln!(
            f,
            "  db SS vs GenCopy @128: {} EDP improvement (paper: 5%)",
            pct(self.db_semispace_vs_gencopy_128)
        )?;
        for ((n, ss), (_, gc)) in self.semispace_32_to_48.iter().zip(&self.gencopy_32_to_48) {
            writeln!(
                f,
                "  {n} 32->48MB EDP drop: SemiSpace {} vs GenCopy {}",
                pct(*ss),
                pct(*gc)
            )?;
        }
        let (ba, oa, om, ca, cm) = self.small_components;
        writeln!(
            f,
            "  base avg {} | opt avg {} max {} | CL avg {} max {}",
            pct(ba),
            pct(oa),
            pct(om),
            pct(ca),
            pct(cm)
        )?;
        writeln!(
            f,
            "  (paper: base <1%; opt 3% avg, 7% max; CL 3% avg, 24% max)"
        )
    }
}

/// T5 (§VI-D/E in-text): Kaffe component shares and PXA255 power.
#[derive(Debug, Clone)]
pub struct T5Kaffe {
    /// P6 average fractions `(GC, CL, JIT)` (paper: 7%, 1%, <1%).
    pub p6_fractions: (f64, f64, f64),
    /// P6 average GC power in watts (paper: 12.8 W).
    pub p6_gc_power_w: f64,
    /// PXA255 average fractions `(GC, CL, JIT)` (paper: 5%, 18%, 5%).
    pub pxa_fractions: (f64, f64, f64),
    /// PXA255 average powers in watts `(GC, App, CL)` (paper: GC 270 mW,
    /// ~7% above the app; CL lowest).
    pub pxa_powers_w: (f64, f64, f64),
}

/// Regenerate T5 (`p6_heaps` for the P6 sweep, `pxa_heaps` for the board).
/// Both grids execute as one parallel batch each.
///
/// # Errors
///
/// Propagates the first failing run (in submission order, after the whole
/// grid has executed).
pub fn t5_kaffe(
    runner: &mut Runner,
    p6_heaps: &[u32],
    pxa_heaps: &[u32],
) -> Result<T5Kaffe, ExperimentError> {
    let _phase = runner.phase("t5");
    let mut p6_configs = Vec::new();
    for b in all_benchmarks() {
        for &h in p6_heaps {
            p6_configs.push(ExperimentConfig::kaffe(b.name, h));
        }
    }
    let mut pxa_configs = Vec::new();
    for b in pxa255_benchmarks() {
        for &h in pxa_heaps {
            pxa_configs.push(ExperimentConfig::kaffe_pxa(b.name, h));
        }
    }

    let mut p6 = [0.0f64; 3];
    let mut n = 0usize;
    let mut gc_energy = 0.0;
    let mut gc_time = 0.0;
    {
        for run in strict(runner.run_batch(&p6_configs))? {
            p6[0] += run.fraction(ComponentId::Gc);
            p6[1] += run.fraction(ComponentId::ClassLoader);
            p6[2] += run.fraction(ComponentId::JitCompiler);
            if let Some(gc) = run.report.component(ComponentId::Gc) {
                gc_energy += gc.energy.joules();
                gc_time += gc.time.seconds();
            }
            n += 1;
        }
    }
    let nf = n.max(1) as f64;

    let mut pxa = [0.0f64; 3];
    let mut powers = [(0.0f64, 0.0f64); 3]; // (energy, time) for GC, App, CL
    let mut m = 0usize;
    {
        for run in strict(runner.run_batch(&pxa_configs))? {
            pxa[0] += run.fraction(ComponentId::Gc);
            pxa[1] += run.fraction(ComponentId::ClassLoader);
            pxa[2] += run.fraction(ComponentId::JitCompiler);
            for (i, c) in [
                ComponentId::Gc,
                ComponentId::Application,
                ComponentId::ClassLoader,
            ]
            .into_iter()
            .enumerate()
            {
                if let Some(p) = run.report.component(c) {
                    powers[i].0 += p.energy.joules();
                    powers[i].1 += p.time.seconds();
                }
            }
            m += 1;
        }
    }
    let mf = m.max(1) as f64;
    let p = |i: usize| {
        if powers[i].1 > 0.0 {
            powers[i].0 / powers[i].1
        } else {
            0.0
        }
    };

    Ok(T5Kaffe {
        p6_fractions: (p6[0] / nf, p6[1] / nf, p6[2] / nf),
        p6_gc_power_w: if gc_time > 0.0 {
            gc_energy / gc_time
        } else {
            0.0
        },
        pxa_fractions: (pxa[0] / mf, pxa[1] / mf, pxa[2] / mf),
        pxa_powers_w: (p(0), p(1), p(2)),
    })
}

impl fmt::Display for T5Kaffe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T5: Kaffe component shares and PXA255 power")?;
        writeln!(
            f,
            "  P6 avg fractions: GC {} CL {} JIT {} (paper: 7%, 1%, <1%)",
            pct(self.p6_fractions.0),
            pct(self.p6_fractions.1),
            pct(self.p6_fractions.2)
        )?;
        writeln!(
            f,
            "  P6 GC power: {:.2} W (paper: 12.8 W)",
            self.p6_gc_power_w
        )?;
        writeln!(
            f,
            "  PXA avg fractions: GC {} CL {} JIT {} (paper: 5%, 18%, 5%)",
            pct(self.pxa_fractions.0),
            pct(self.pxa_fractions.1),
            pct(self.pxa_fractions.2)
        )?;
        writeln!(
            f,
            "  PXA power: GC {:.0} mW, App {:.0} mW, CL {:.0} mW (paper: GC 270 mW, +7% over App, CL lowest)",
            1e3 * self.pxa_powers_w.0,
            1e3 * self.pxa_powers_w.1,
            1e3 * self.pxa_powers_w.2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_lists_all_sixteen_benchmarks() {
        let f = fig5();
        assert_eq!(f.rows.len(), 16);
        let text = f.to_string();
        for name in ["_201_compress", "_213_javac", "fop", "euler", "search"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("SpecJVM98"));
        // Every benchmark allocates more than it keeps live.
        for (_, name, _, alloc, live) in &f.rows {
            assert!(alloc >= live, "{name}: alloc {alloc} < live {live}");
        }
    }

    #[test]
    fn edp_curve_lookup() {
        let curve = EdpCurve {
            benchmark: "_209_db".into(),
            collector: CollectorKind::SemiSpace,
            points: vec![(32, 1.5), (48, 1.0)],
        };
        assert_eq!(curve.at(32), Some(1.5));
        assert_eq!(curve.at(64), None);
        let fig = Fig7 {
            curves: vec![curve],
            failed: Vec::new(),
        };
        assert!(fig.curve("_209_db", CollectorKind::SemiSpace).is_some());
        assert!(fig.curve("_209_db", CollectorKind::GenMs).is_none());
        assert!(fig.to_string().contains("32MB"));
    }

    #[test]
    fn component_legend_orders_match_paper() {
        assert_eq!(JIKES_COMPONENTS[0], ComponentId::OptCompiler);
        assert_eq!(JIKES_COMPONENTS[3], ComponentId::Gc);
        assert_eq!(
            KAFFE_COMPONENTS,
            [
                ComponentId::Gc,
                ComponentId::ClassLoader,
                ComponentId::JitCompiler
            ]
        );
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(0.0314), "  3.1%");
    }
}
