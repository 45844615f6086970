//! The two sweep workloads: `jikes_full` and `kaffe_pxa`.
//!
//! A run sets up (parses the golden figure, orders the grid by the seed and
//! runs one coverage probe cell through the traced path), then runs the
//! grid in rounds on one `WorkStealingPool`. Untraced rounds call
//! `ExperimentConfig::run` per cell, exactly as the figure sweeps do.
//! Traced rounds call the layers' public functions one by one —
//! `Benchmark::build`, `Vm::try_new`, `Vm::run` — and time each call from
//! here, so no span code runs inside the program.
//!
//! Every cell is timed by wall clock and by its worker thread's CPU clock,
//! right after the reference kernel (see `reference.rs`) is timed on the
//! same thread. The bounded metrics use CPU time scaled by the kernel's
//! speed: on a shared host both clocks move with whatever else the host
//! runs.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use vmprobe::figures::{BreakdownRow, EdpCurve, Fig11, Fig7, KAFFE_COMPONENTS};
use vmprobe::{heap_bytes, ExperimentConfig, RunSummary, VmChoice, WorkStealingPool};
use vmprobe_heap::CollectorKind;
use vmprobe_power::ComponentId;
use vmprobe_vm::{Vm, VmConfig};

use crate::clock::{process_cpu, thread_cpu};
use crate::reference;
use crate::report::{Checks, Metrics, Refusal};
use crate::stats::{median, shuffled, Distribution, SplitMix64};
use crate::Args;

/// How far past `--seconds` a run may go before it stops starting rounds.
const OVERSTAY: f64 = 1.2;

/// Setup runs this many times per run, once before timing and the rest
/// between rounds, and the median of its scaled CPU time is reported.
const SETUP_REPEATS: usize = 9;

/// Run and time the setup, scaling its CPU time by the reference kernel's
/// speed, timed right before and right after it.
fn timed_set_up(spec: &Spec, seed: u64) -> Result<(Setup, f64), Refusal> {
    let before = reference::measure();
    let t = process_cpu();
    let setup = set_up(spec, seed)?;
    let cpu = process_cpu() - t;
    let after = reference::measure();
    let scale = 2.0 * reference::NOMINAL.as_secs_f64() / (before + after).as_secs_f64();
    Ok((setup, cpu.as_secs_f64() * scale))
}

/// GC-heavy benchmarks next to benchmarks dominated by bytecode execution
/// with almost no GC, so both `heap` and `vm` dispatch carry weight.
const JIKES_BENCHMARKS: [&str; 4] = ["_213_javac", "_202_jess", "moldyn", "_201_compress"];
/// The two ends of the paper's 32–128 MB Jikes heap sweep.
const JIKES_HEAPS_MB: [u32; 2] = [32, 128];

/// Whether the register engine must run on a workload or must not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Engaged,
    Bypassed,
}

/// One sweep workload.
struct Spec {
    grid: Vec<ExperimentConfig>,
    /// The committed figure, relative to the checkout root.
    golden: &'static str,
    probe: ExperimentConfig,
    engine: Engine,
    render: fn(&[&RunSummary]) -> String,
    /// Which rendered entries belong to a cell: its row key and, for
    /// figures with one cell per column, the column label.
    coords: fn(&ExperimentConfig) -> (String, Option<String>),
    /// Wall time of one round on the 2-core reference host; a run makes
    /// `--seconds / nominal_round_s` rounds.
    nominal_round_s: f64,
}

fn jikes_full() -> Spec {
    let mut grid = Vec::new();
    for b in JIKES_BENCHMARKS {
        for c in CollectorKind::jikes_collectors() {
            for h in JIKES_HEAPS_MB {
                grid.push(ExperimentConfig::jikes(b, c, h));
            }
        }
    }
    Spec {
        grid,
        golden: "tests/golden/full/fig7.txt",
        // Opt-compiles (so the register engine runs) and collects 41 times.
        probe: ExperimentConfig::jikes("_213_javac", CollectorKind::GenCopy, 32),
        engine: Engine::Engaged,
        nominal_round_s: 10.0,
        render: render_fig7,
        coords: |c| {
            let VmChoice::Jikes(collector) = c.vm else {
                unreachable!("the jikes_full grid holds only Jikes cells")
            };
            (
                format!("{} {collector}", c.benchmark),
                Some(format!("{}MB", c.heap_mb)),
            )
        },
    }
}

fn kaffe_pxa() -> Spec {
    let mut grid = Vec::new();
    for b in vmprobe::figures::pxa_benchmark_names() {
        for h in vmprobe::PXA_HEAPS_MB {
            grid.push(ExperimentConfig::kaffe_pxa(b, h));
        }
    }
    Spec {
        grid,
        golden: "tests/golden/full/fig11.txt",
        // The smallest heap: incremental GC, class loading and the JIT all run.
        probe: ExperimentConfig::kaffe_pxa("_202_jess", 12),
        engine: Engine::Bypassed,
        nominal_round_s: 1.0,
        render: render_fig11,
        coords: |c| (format!("{} {}MB", c.benchmark, c.heap_mb), None),
    }
}

fn render_fig7(cells: &[&RunSummary]) -> String {
    let mut curves: Vec<EdpCurve> = Vec::new();
    for s in cells {
        let VmChoice::Jikes(collector) = s.config.vm else {
            unreachable!("fig7 renders only Jikes cells")
        };
        let at = curves
            .iter()
            .position(|c| c.benchmark == s.config.benchmark && c.collector == collector);
        let curve = match at {
            Some(i) => &mut curves[i],
            None => {
                curves.push(EdpCurve {
                    benchmark: s.config.benchmark.clone(),
                    collector,
                    points: Vec::new(),
                });
                curves.last_mut().expect("just pushed")
            }
        };
        curve.points.push((s.config.heap_mb, s.edp()));
    }
    Fig7 {
        curves,
        failed: Vec::new(),
    }
    .to_string()
}

fn render_fig11(cells: &[&RunSummary]) -> String {
    let rows = cells
        .iter()
        .map(|s| {
            let fractions: Vec<(ComponentId, f64)> = KAFFE_COMPONENTS
                .iter()
                .map(|&c| (c, s.fraction(c)))
                .collect();
            let monitored: f64 = fractions.iter().map(|(_, v)| v).sum();
            BreakdownRow {
                benchmark: s.config.benchmark.clone(),
                heap_mb: s.config.heap_mb,
                fractions,
                app_fraction: (1.0 - monitored).max(0.0),
            }
        })
        .collect();
    Fig11 {
        rows,
        failed: Vec::new(),
    }
    .to_string()
}

/// A rendered figure table as `(row key, column label) → cell text`. The
/// row key is the first two columns; comparing cells instead of whole
/// lines keeps the check independent of column widths and of which heap
/// columns a grid renders.
fn table_cells(text: &str) -> BTreeMap<(String, String), String> {
    let mut lines = text.lines().skip(1);
    let header: Vec<&str> = lines
        .next()
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let mut cells = BTreeMap::new();
    for line in lines.filter(|l| !l.starts_with('-')) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != header.len() || header.len() < 3 {
            continue;
        }
        let row = format!("{} {}", tokens[0], tokens[1]);
        for (col, value) in header[2..].iter().zip(&tokens[2..]) {
            cells.insert((row.clone(), (*col).to_owned()), (*value).to_owned());
        }
    }
    cells
}

/// What one traced cell spent in each layer (worker CPU time), plus its
/// work counts.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    build: Duration,
    new: Duration,
    run: Duration,
    rir_bytecodes: u64,
}

/// The VM configuration `ExperimentConfig` derives for `cfg`, rebuilt from
/// public parts so the traced path can call `Vm::try_new` itself. Traced
/// reports are checked against untraced ones, which proves the two agree.
fn vm_config(cfg: &ExperimentConfig) -> VmConfig {
    let heap = heap_bytes(cfg.heap_mb);
    let base = match cfg.vm {
        VmChoice::Jikes(c) => VmConfig::jikes(c, heap),
        VmChoice::Kaffe => VmConfig::kaffe(heap),
    };
    base.platform(cfg.platform)
        .trace_power(cfg.trace_power)
        .record_spans(cfg.record_spans)
        .verify(cfg.verify)
        .probe(cfg.probe)
}

/// One cell through the layers' public functions, timing each call.
fn run_traced(cfg: &ExperimentConfig) -> Result<(RunSummary, LayerTimes), String> {
    let bench = vmprobe_workloads::benchmark(&cfg.benchmark)
        .ok_or_else(|| format!("unknown benchmark {}", cfg.benchmark))?;
    let t = thread_cpu();
    let program = bench.build(cfg.scale);
    let build = thread_cpu() - t;
    let t = thread_cpu();
    let vm = Vm::try_new(program, vm_config(cfg)).map_err(|e| format!("{cfg}: {e}"))?;
    let new = thread_cpu() - t;
    let t = thread_cpu();
    let out = vm.run().map_err(|e| format!("{cfg}: {e}"))?;
    let run = thread_cpu() - t;
    let summary = RunSummary {
        config: cfg.clone(),
        result_checksum: out.result.map(|v| v.as_i()),
        report: out.report,
        gc: out.gc,
        vm: out.vm,
        compiler: out.compiler,
        power_trace: out.power_trace,
        total_alloc_bytes: out.total_alloc_bytes,
        live_bytes_end: out.live_bytes_end,
        spans: out.spans,
    };
    let times = LayerTimes {
        build,
        new,
        run,
        rir_bytecodes: out.rir_bytecodes,
    };
    Ok((summary, times))
}

/// One executed cell of a round.
struct CellRun {
    grid_index: usize,
    result: Result<RunSummary, String>,
    layers: Option<LayerTimes>,
    start: Duration,
    end: Duration,
    /// The worker thread's CPU time for the cell.
    cpu: Duration,
    /// The reference kernel's CPU time, on the same thread right before.
    reference: Duration,
    worker: ThreadId,
}

/// One pass over the whole grid.
struct Round {
    traced: bool,
    wall: Duration,
    cells: Vec<CellRun>,
    render: Duration,
}

impl Round {
    fn bytecodes(&self) -> u64 {
        self.ok().map(|(_, s)| s.vm.bytecodes).sum()
    }

    fn ok(&self) -> impl Iterator<Item = (&CellRun, &RunSummary)> {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref().ok().map(|s| (c, s)))
    }

    /// Time from the moment the first worker ran out of cells to the end
    /// of the round: the cost of waiting for the slowest last cell.
    fn tail(&self) -> Duration {
        let mut last_end: HashMap<ThreadId, Duration> = HashMap::new();
        for c in &self.cells {
            let e = last_end.entry(c.worker).or_default();
            *e = (*e).max(c.end);
        }
        let first_idle = last_end.values().min().copied().unwrap_or_default();
        self.wall.saturating_sub(first_idle)
    }
}

fn run_round(
    pool: &WorkStealingPool,
    spec: &Spec,
    order: &[usize],
    traced: bool,
) -> (Round, String) {
    let t0 = Instant::now();
    let cells = pool.run(order.to_vec(), |_, grid_index| {
        let cfg = &spec.grid[grid_index];
        let reference = reference::measure();
        let start = t0.elapsed();
        let cpu = thread_cpu();
        let (result, layers) = if traced {
            match run_traced(cfg) {
                Ok((s, l)) => (Ok(s), Some(l)),
                Err(e) => (Err(e), None),
            }
        } else {
            (cfg.run().map_err(|e| e.to_string()), None)
        };
        let cpu = thread_cpu() - cpu;
        CellRun {
            grid_index,
            result,
            layers,
            start,
            end: t0.elapsed(),
            cpu,
            reference,
            worker: std::thread::current().id(),
        }
    });
    let wall = t0.elapsed();
    // Render in the figure's own order, whatever order the seed gave.
    let mut done: Vec<&CellRun> = cells.iter().collect();
    done.sort_by_key(|c| c.grid_index);
    let by_grid: Vec<&RunSummary> = done.iter().filter_map(|c| c.result.as_ref().ok()).collect();
    let t = Instant::now();
    let figure = (spec.render)(&by_grid);
    let render = t.elapsed();
    let round = Round {
        traced,
        wall,
        cells,
        render,
    };
    (round, figure)
}

/// Check every cell of a rendered round against the golden figure; one
/// check per grid cell, failed when the cell did not run or any of its
/// rendered entries differs from the golden one.
fn check_round(
    spec: &Spec,
    round: &Round,
    figure: &str,
    golden: &BTreeMap<(String, String), String>,
    checks: &mut Checks,
) {
    let rendered = table_cells(figure);
    for cell in &round.cells {
        let (row, col) = (spec.coords)(&spec.grid[cell.grid_index]);
        let mut entries = rendered
            .iter()
            .filter(|((r, c), _)| *r == row && col.as_ref().is_none_or(|col| col == c))
            .peekable();
        let ok = cell.result.is_ok()
            && entries.peek().is_some()
            && entries.all(|(k, v)| golden.get(k) == Some(v));
        if let Err(e) = &cell.result {
            eprintln!("perfbench: cell failed: {e}");
        } else if !ok {
            eprintln!("perfbench: {row} {col:?} differs from {}", spec.golden);
        }
        checks.record(ok);
    }
}

fn check_coverage(spec: &Spec, rir: u64, collections: u64) -> Result<(), Refusal> {
    match spec.engine {
        Engine::Engaged if collections == 0 => Err(Refusal(
            "coverage: heap.collections == 0, so GC never ran".into(),
        )),
        Engine::Engaged if rir == 0 => Err(Refusal(
            "coverage: vm.rir_share == 0, so the register engine never ran".into(),
        )),
        Engine::Bypassed if rir > 0 => Err(Refusal(
            "coverage: vm.rir_share > 0 on a workload meant to bypass the register engine".into(),
        )),
        _ => Ok(()),
    }
}

/// Everything a run needs before timing starts.
struct Setup {
    golden: BTreeMap<(String, String), String>,
    order: Vec<usize>,
    probe_report: vmprobe_power::Report,
}

fn set_up(spec: &Spec, seed: u64) -> Result<Setup, Refusal> {
    let text = std::fs::read_to_string(spec.golden)
        .map_err(|e| Refusal(format!("cannot read {}: {e}", spec.golden)))?;
    let golden = table_cells(&text);
    let order = shuffled(spec.grid.len(), &mut SplitMix64::new(seed));
    let (probe, layers) = run_traced(&spec.probe).map_err(Refusal)?;
    check_coverage(spec, layers.rir_bytecodes, probe.gc.collections)?;
    Ok(Setup {
        golden,
        order,
        probe_report: probe.report,
    })
}

pub fn run(args: &Args, work: &Path, metrics: &mut Metrics) -> Result<Checks, Refusal> {
    let spec = match args.workload.as_str() {
        "jikes_full" => jikes_full(),
        "kaffe_pxa" => kaffe_pxa(),
        other => unreachable!("not a sweep workload: {other}"),
    };
    let (setup, first_s) = timed_set_up(&spec, args.seed)?;
    let mut setup_s = vec![first_s];
    let probe_index = spec
        .grid
        .iter()
        .position(|c| *c == spec.probe)
        .expect("the coverage probe is a grid cell");

    let pool = WorkStealingPool::new(args.jobs);
    let mut checks = Checks::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut untraced_reports: HashMap<usize, vmprobe_power::Report> = HashMap::new();
    let measure = Instant::now();
    // A fixed number of rounds for a given `--seconds`, so every run does
    // the same work and reports percentiles over the same sample count. On
    // a host so slow that the next round would end past `OVERSTAY` times
    // `--seconds`, the run stops early instead.
    let min_rounds = 1 + usize::from(args.trace);
    let planned = ((args.seconds / spec.nominal_round_s).round() as usize).max(min_rounds);
    while rounds.len() < planned {
        let next_end = measure.elapsed() + rounds.last().map_or(Duration::ZERO, |r| r.wall);
        if rounds.len() >= min_rounds && next_end.as_secs_f64() > OVERSTAY * args.seconds {
            break;
        }
        // Alternate untraced and traced rounds, untraced first, so the
        // traced reports always have an untraced twin to match.
        let traced = args.trace && rounds.len() % 2 == 1;
        let (round, figure) = run_round(&pool, &spec, &setup.order, traced);
        check_round(&spec, &round, &figure, &setup.golden, &mut checks);
        for cell in &round.cells {
            let Ok(summary) = &cell.result else { continue };
            if traced {
                let twin = untraced_reports.get(&cell.grid_index);
                checks.record(twin == Some(&summary.report));
            } else {
                untraced_reports.insert(cell.grid_index, summary.report.clone());
            }
        }
        if rounds.is_empty() {
            // The probe ran through the traced path during setup.
            checks.record(untraced_reports.get(&probe_index) == Some(&setup.probe_report));
        }
        rounds.push(round);
        // Repeat the setup between rounds, spread over the run, so that its
        // median does not hang on the host's speed in the run's first second.
        while setup_s.len() < 1 + rounds.len() * (SETUP_REPEATS - 1) / planned {
            let (again, again_s) = timed_set_up(&spec, args.seed)?;
            setup_s.push(again_s);
            checks.record(
                again.golden == setup.golden
                    && again.order == setup.order
                    && again.probe_report == setup.probe_report,
            );
        }
    }
    let measured = measure.elapsed();
    metrics.note("rounds", rounds.len());
    eprintln!(
        "perfbench: {} rounds of {} cells in {:.1} s",
        rounds.len(),
        spec.grid.len(),
        measured.as_secs_f64()
    );

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let rate = |rs: &[&Round]| {
        let bc: u64 = rs.iter().map(|r| r.bytecodes()).sum();
        let wall: f64 = rs.iter().map(|r| r.wall.as_secs_f64()).sum();
        bc as f64 / 1e6 / wall
    };
    if args.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        per_layer(&spec, &traced, args.jobs, metrics)?;
        metrics.set(
            "trace.overhead_share",
            1.0 - rate(&traced) / rate(&untraced),
        );
        let mut cells: Vec<(ExperimentConfig, Arc<RunSummary>)> = untraced[0]
            .ok()
            .map(|(_, s)| (s.config.clone(), Arc::new(s.clone())))
            .collect();
        cells.sort_by_key(|(cfg, _)| spec.grid.iter().position(|c| c == cfg));
        crate::serve::probe(args, work, &cells, metrics, &mut checks)?;
    } else {
        // One pass over the grid on one core at the reference speed: per
        // cell, its CPU time over the rounds scaled by the reference
        // kernel's nominal over its measured time next to the cell.
        let mut cpu_s = vec![0.0; spec.grid.len()];
        let mut reference_s = vec![0.0; spec.grid.len()];
        for c in untraced.iter().flat_map(|r| r.cells.iter()) {
            cpu_s[c.grid_index] += c.cpu.as_secs_f64();
            reference_s[c.grid_index] += c.reference.as_secs_f64();
        }
        let grid_s: f64 = cpu_s
            .iter()
            .zip(&reference_s)
            .map(|(cpu, reference)| cpu / reference * reference::NOMINAL.as_secs_f64())
            .sum();
        metrics.set(
            "sim_mbc_per_s",
            untraced[0].bytecodes() as f64 / 1e6 / grid_s,
        );
        metrics.set("setup_s", median(&setup_s));

        // Unscaled and wall-clock figures, for the record: they move with
        // the host's load.
        let cells: usize = untraced.iter().map(|r| r.cells.len()).sum();
        let wall: f64 = untraced.iter().map(|r| r.wall.as_secs_f64()).sum();
        let cpu: f64 = untraced
            .iter()
            .flat_map(|r| r.cells.iter())
            .map(|c| c.cpu.as_secs_f64())
            .sum();
        let latency_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.cells.iter())
            .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
            .collect();
        let latency = Distribution::of(&latency_ms).expect("every round runs cells");
        metrics.note("wall_mbc_per_s", rate(&untraced));
        metrics.note("cells_per_s", cells as f64 / wall);
        metrics.note("cell_wall_p50_ms", latency.p50);
        metrics.note_distribution("cell_wall_tail_ms", latency);
        metrics.note("cpu_share_of_wall", cpu / (wall * args.jobs as f64));
        let bytecodes: u64 = untraced.iter().map(|r| r.bytecodes()).sum();
        metrics.note("cpu_mbc_per_s", bytecodes as f64 / 1e6 / cpu);
        metrics.note(
            "host_speed",
            reference::NOMINAL.as_secs_f64() * cells as f64 / reference_s.iter().sum::<f64>(),
        );
        metrics.set(
            "peak_rss_mb",
            crate::report::peak_rss_mb(std::process::id()),
        );
    }
    Ok(checks)
}

/// Per-layer numbers from the traced rounds. Work counts are one pass
/// over the grid (every traced round repeats them exactly); host times
/// pool every traced round.
fn per_layer(spec: &Spec, traced: &[&Round], jobs: usize, m: &mut Metrics) -> Result<(), Refusal> {
    let first = traced.first().expect("a traced run has a traced round");
    let sum = |f: &dyn Fn(&RunSummary) -> u64| first.ok().map(|(_, s)| f(s)).sum::<u64>();
    let bytecodes = sum(&|s| s.vm.bytecodes);
    let rir: u64 = first
        .ok()
        .filter_map(|(c, _)| c.layers)
        .map(|l| l.rir_bytecodes)
        .sum();
    let collections = sum(&|s| s.gc.collections);
    check_coverage(spec, rir, collections)?;

    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    m.set("vm.bytecodes", bytecodes as f64);
    m.set("vm.rir_share", share(rir as f64, bytecodes as f64));
    m.set("vm.calls", sum(&|s| s.vm.calls) as f64);
    m.set("vm.allocations", sum(&|s| s.vm.allocations) as f64);
    m.set("vm.classes_loaded", sum(&|s| s.vm.classes_loaded) as f64);
    m.set("vm.compiles_opt", sum(&|s| s.compiler.opt_compiles) as f64);
    m.set(
        "vm.compiles_baseline",
        sum(&|s| s.compiler.baseline_compiles) as f64,
    );
    m.set("vm.compiles_jit", sum(&|s| s.compiler.jit_compiles) as f64);
    m.set("heap.collections", collections as f64);
    m.set("heap.increments", sum(&|s| s.gc.increments) as f64);
    m.set(
        "heap.pause_cycles",
        sum(&|s| s.gc.total_pause_cycles) as f64,
    );
    m.set(
        "heap.copied_bytes",
        sum(&|s| s.gc.total_copied_bytes) as f64,
    );
    m.set(
        "heap.marked_objects",
        sum(&|s| s.gc.total_marked_objects) as f64,
    );
    m.set(
        "heap.swept_objects",
        sum(&|s| s.gc.total_swept_objects) as f64,
    );
    m.set("heap.barrier_stores", sum(&|s| s.gc.barrier_stores) as f64);

    let component = |ids: &[ComponentId], f: &dyn Fn(&vmprobe_power::ComponentProfile) -> f64| {
        first
            .ok()
            .flat_map(|(_, s)| ids.iter().filter_map(|id| s.report.component(*id)))
            .map(f)
            .sum::<f64>()
    };
    let daq_samples = component(&ComponentId::ALL, &|p| p.samples as f64);
    let sim_s: f64 = first.ok().map(|(_, s)| s.duration_s()).sum();
    let time_share = |ids: &[ComponentId]| share(component(ids, &|p| p.time.seconds()), sim_s);
    m.set("power.daq_samples", daq_samples);
    m.set(
        "power.samples_per_mbc",
        share(daq_samples, bytecodes as f64 / 1e6),
    );
    m.set("power.sim_s", sim_s);
    m.set("power.gc_time_share", time_share(&[ComponentId::Gc]));
    m.set(
        "power.cl_time_share",
        time_share(&[ComponentId::ClassLoader]),
    );
    m.set(
        "power.compiler_time_share",
        time_share(&[
            ComponentId::BaseCompiler,
            ComponentId::OptCompiler,
            ComponentId::JitCompiler,
        ]),
    );
    m.set(
        "platform.instructions",
        component(&ComponentId::ALL, &|p| p.instructions as f64),
    );

    // Host time, pooled over every traced round.
    let cells: Vec<&CellRun> = traced.iter().flat_map(|r| r.cells.iter()).collect();
    let layers: Vec<LayerTimes> = cells.iter().filter_map(|c| c.layers).collect();
    let us = |f: &dyn Fn(&LayerTimes) -> Duration| -> Vec<f64> {
        layers.iter().map(|l| f(l).as_secs_f64() * 1e6).collect()
    };
    let run_ns: f64 = us(&|l| l.run).iter().sum::<f64>() * 1e3;
    let traced_bytecodes: u64 = traced.iter().map(|r| r.bytecodes()).sum();
    m.set(
        "vm.run_ns_per_bytecode",
        share(run_ns, traced_bytecodes as f64),
    );
    m.set("vm.new_us", median(&us(&|l| l.new)));
    m.set("workloads.build_us", median(&us(&|l| l.build)));

    let cell_ms: Vec<f64> = cells
        .iter()
        .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
        .collect();
    let cell = Distribution::of(&cell_ms).expect("cells ran");
    m.set_distribution("sweep.cell_p50_ms", "sweep.cell_tail_ms", cell);
    let busy: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    let wall: f64 = traced.iter().map(|r| r.wall.as_secs_f64()).sum();
    m.set("sweep.busy_share", share(busy, wall * jobs as f64));
    let tails: Vec<f64> = traced.iter().map(|r| r.tail().as_secs_f64()).collect();
    m.set("sweep.tail_s", median(&tails));
    let renders: Vec<f64> = traced
        .iter()
        .map(|r| r.render.as_secs_f64() * 1e6)
        .collect();
    m.set("figures.render_us", median(&renders));
    Ok(())
}

/// Every cell of both sweep grids.
#[cfg(test)]
pub fn grids() -> Vec<ExperimentConfig> {
    let mut cells = jikes_full().grid;
    cells.extend(kaffe_pxa().grid);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_cells_are_keyed_by_row_and_column() {
        let text = "Figure 7: title\nbenchmark  collector  32MB    48MB\n\
                    ------------------------------\n\
                    _209_db    SemiSpace  0.0092  0.0059\n";
        let cells = table_cells(text);
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[&("_209_db SemiSpace".to_owned(), "48MB".to_owned())],
            "0.0059"
        );
    }

    #[test]
    fn grids_hold_their_probe_cells() {
        for spec in [jikes_full(), kaffe_pxa()] {
            assert!(spec.grid.contains(&spec.probe));
        }
    }
}
