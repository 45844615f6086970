//! vmprobe's benchmark: one workload per run, every metric by name and
//! unit, every output checked. See `perfbench/README.md`.
//!
//! ```text
//! vmprobe-perfbench --workload <jikes_full|kaffe_pxa> --seed <n>
//!                   --seconds <s> --trace <0|1>
//!                   [--serve-bin <path>] [--commit <id>] [--source <digest>]
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it carries the run's facts (seed, host, build, sample counts). Exit
//! code 3 means a coverage gate refused to report.

mod clock;
mod reference;
mod report;
mod serve;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metrics, Refusal};

const USAGE: &str = "usage: vmprobe-perfbench --workload <jikes_full|kaffe_pxa> \
                     --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>] \
                     [--commit <id>] [--source <digest>]";

/// Where runs keep their scratch files (the traced runs' cache and socket). The
/// benchmark runs from the checkout root and names every path relative to
/// it, which also keeps socket paths short.
const WORK_DIR: &str = ".bench_work";

/// One run's arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads, for the sweeps and the daemon: one per host core.
    pub jobs: usize,
    pub serve_bin: Option<PathBuf>,
    commit: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut commit = String::from("unknown");
    let mut source = String::from("unknown");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--source" => source = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["jikes_full", "kaffe_pxa"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serve_bin,
        commit,
        source,
    })
}

fn run(args: &Args, metrics: &mut Metrics) -> Result<report::Checks, Refusal> {
    let work = Path::new(WORK_DIR);
    let fresh = |dir: &Path| -> Result<(), Refusal> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| Refusal(format!("cannot clear {}: {e}", dir.display())))?;
        }
        Ok(())
    };
    fresh(work)?;
    std::fs::create_dir_all(work)
        .map_err(|e| Refusal(format!("cannot create {}: {e}", work.display())))?;
    let result = sweep::run(args, work, metrics);
    fresh(work)?;
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    metrics.note("workload", &args.workload);
    metrics.note("seed", args.seed);
    metrics.note("seconds", args.seconds);
    metrics.note("trace", u8::from(args.trace));
    metrics.note("nproc", args.jobs);
    metrics.note("commit", &args.commit);
    metrics.note("source_sha256", &args.source);
    metrics.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    metrics.note("build_fingerprint", vmprobe::cache::build_fingerprint());
    match run(&args, &mut metrics) {
        Err(Refusal(why)) => {
            eprintln!("perfbench: refusing to report: {why}");
            ExitCode::from(3)
        }
        Ok(checks) => {
            metrics.set("error_rate", checks.error_rate());
            metrics.note("error_rate", checks.error_rate());
            metrics.note("checks_attempted", checks.attempted);
            match metrics.result_line(args.trace, checks) {
                Ok(line) => {
                    println!("{}", metrics.info_line());
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
