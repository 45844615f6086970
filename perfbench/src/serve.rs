//! The `cache` and `serve` layers, measured on a sweep's own cells.
//!
//! A traced sweep run stores every cell's summary into a fresh persistent
//! cache through `ExperimentCache::store`, starts a `vmprobe-serve` daemon
//! on it and drives it from `CLIENTS` closed-loop connections. Each
//! connection sends a window of `WINDOW` requests and sends the next window
//! only after every answer to the last one arrived. The first request for
//! a cell makes the daemon decode it from disk; later ones hit its
//! in-memory memo. Every answer must equal `result_line` of the stored
//! summary, and the daemon must execute no cell.

use std::io::{BufRead, BufReader, Write};
use std::iter::Enumerate;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vmprobe::serve::protocol::result_line;
use vmprobe::{CacheLookup, ExperimentCache, ExperimentConfig, RunSummary, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_platform::PlatformKind;
use vmprobe_workloads::InputScale;

use crate::report::{Checks, Metrics, Refusal};
use crate::stats::{median, Distribution, RequestSequence};
use crate::Args;

/// How long the probe drives the daemon.
const PROBE_SECONDS: f64 = 2.0;
/// Fresh-handle passes over every entry when timing `ExperimentCache::lookup`.
const LOOKUP_PASSES: usize = 5;
/// Closed-loop client connections. Two, each with a window of requests in
/// flight, keep the daemon busy: one window queues while the other is
/// answered. A daemon that idles between requests measures the host's
/// thread wake-up latency instead of its own work.
const CLIENTS: usize = 2;
/// Requests each client keeps in flight: sent together, answered before
/// the next window goes out.
const WINDOW: usize = 16;
/// How long a daemon may take to start answering or to drain.
const DAEMON_PATIENCE: Duration = Duration::from_secs(20);

/// The wire request for `cfg`, in the daemon's run-request vocabulary.
fn request_line(id: &str, tenant: &str, cfg: &ExperimentConfig) -> String {
    let collector = match cfg.vm {
        VmChoice::Jikes(CollectorKind::SemiSpace) => "semispace",
        VmChoice::Jikes(CollectorKind::MarkSweep) => "marksweep",
        VmChoice::Jikes(CollectorKind::GenCopy) => "gencopy",
        VmChoice::Jikes(CollectorKind::GenMs) => "genms",
        VmChoice::Jikes(other) => unreachable!("no Jikes grid runs {other}"),
        VmChoice::Kaffe => "kaffe",
    };
    let platform = match cfg.platform {
        PlatformKind::PentiumM => "p6",
        PlatformKind::Pxa255 => "pxa255",
    };
    let scale = match cfg.scale {
        InputScale::Full => "full",
        InputScale::Reduced => "s10",
    };
    format!(
        "{{\"op\":\"run\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"benchmark\":\"{}\",\
         \"collector\":\"{collector}\",\"heap_mb\":{},\"platform\":\"{platform}\",\
         \"scale\":\"{scale}\"}}\n",
        cfg.benchmark, cfg.heap_mb
    )
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(bin: &Path, socket: PathBuf, cache: &Path, jobs: usize) -> Result<Daemon, Refusal> {
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(cache)
            .args(["--jobs", &jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| Refusal(format!("cannot start {}: {e}", bin.display())))?;
        let mut daemon = Daemon { child, socket };
        let started = Instant::now();
        loop {
            if let Ok(mut conn) = daemon.connect() {
                if conn.ask("{\"op\":\"status\"}\n").is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(Refusal(format!("vmprobe-serve exited at start: {status}")));
            }
            if started.elapsed() > DAEMON_PATIENCE {
                return Err(Refusal("vmprobe-serve did not start answering".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(&self) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(&self.socket)?;
        stream.set_read_timeout(Some(DAEMON_PATIENCE))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Ask the daemon to drain and wait until it has exited.
    fn shut_down(mut self) -> Result<(), Refusal> {
        let mut conn = self
            .connect()
            .map_err(|e| Refusal(format!("cannot reach vmprobe-serve to stop it: {e}")))?;
        conn.ask("{\"op\":\"shutdown\"}\n")
            .map_err(|e| Refusal(format!("vmprobe-serve did not accept shutdown: {e}")))?;
        let started = Instant::now();
        while started.elapsed() < DAEMON_PATIENCE {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(Refusal(format!("vmprobe-serve exited {status}"))),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Err(Refusal("vmprobe-serve did not drain".into()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Send one request line and return the first response line.
    fn ask(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Send a window of run requests at once and read until each has its
    /// answer, skipping the `accepted` acknowledgements (which may arrive
    /// after a result). Returns each answer with its time since the send,
    /// and the deepest queue an acknowledgement showed.
    fn exchange(
        &mut self,
        requests: &str,
        n: usize,
    ) -> std::io::Result<(Vec<(String, Duration)>, u64)> {
        let sent = Instant::now();
        self.writer.write_all(requests.as_bytes())?;
        let mut queued = 0;
        let mut answers = Vec::with_capacity(n);
        while answers.len() < n {
            let line = self.read_line()?;
            if line.starts_with("{\"ok\":true,\"kind\":\"accepted\"") {
                queued = queued.max(number_after(&line, "\"queue_depth\":").unwrap_or(0));
            } else {
                answers.push((line, sent.elapsed()));
            }
        }
        Ok((answers, queued))
    }
}

/// The request id an answer line names.
fn answer_id(line: &str) -> Option<&str> {
    let key = "\"id\":\"";
    let rest = &line[line.find(key)? + key.len()..];
    rest.split('"').next()
}

/// The unsigned integer right after `key` in `text`.
fn number_after(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One answered request.
struct Answer {
    latency: Duration,
    ok: bool,
    /// The first request for its cell, which the daemon decodes from disk.
    first: bool,
}

/// Drive the daemon from `conns` for `seconds`, one window at a time per
/// connection. Returns every answer and the deepest queue an
/// acknowledgement showed.
fn closed_loop(
    conns: &mut [Conn],
    sequence: &Mutex<Enumerate<RequestSequence>>,
    cells: &[(ExperimentConfig, Arc<RunSummary>)],
    seconds: f64,
) -> Result<(Vec<Answer>, u64), Refusal> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                scope.spawn(move || -> std::io::Result<(Vec<Answer>, u64)> {
                    let tenant = format!("client{client}");
                    let mut answers = Vec::new();
                    let mut queued_max = 0;
                    while Instant::now() < deadline {
                        let mut window = Vec::with_capacity(WINDOW);
                        let mut requests = String::new();
                        for (seq, cell) in sequence
                            .lock()
                            .expect("no client panics while holding the sequence")
                            .by_ref()
                            .take(WINDOW)
                        {
                            let id = format!("q{seq}");
                            requests.push_str(&request_line(&id, &tenant, &cells[cell].0));
                            window.push((id, seq, cell));
                        }
                        let (lines, queued) = conn.exchange(&requests, window.len())?;
                        queued_max = queued_max.max(queued);
                        for (line, latency) in lines {
                            let asked = answer_id(&line)
                                .and_then(|id| window.iter().find(|(w, _, _)| w == id));
                            let Some((id, seq, cell)) = asked else {
                                eprintln!("perfbench: answer to no request: {line}");
                                answers.push(Answer {
                                    latency,
                                    ok: false,
                                    first: false,
                                });
                                continue;
                            };
                            let ok = line == result_line(id, &cells[*cell].1);
                            if !ok {
                                eprintln!("perfbench: unexpected answer to {id}: {line}");
                            }
                            // The sequence's first pass names every cell once.
                            let first = *seq < cells.len();
                            answers.push(Answer { latency, ok, first });
                        }
                    }
                    Ok((answers, queued_max))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    let mut answers = Vec::new();
    let mut queued_max = 0;
    for result in per_client {
        let (a, q) = result.map_err(|e| Refusal(format!("serve connection failed: {e}")))?;
        answers.extend(a);
        queued_max = queued_max.max(q);
    }
    Ok((answers, queued_max))
}

/// Counters the daemon reports about itself after the closed loop.
struct DaemonCounters {
    disk_hits: u64,
    memo_hits: u64,
    deduped: u64,
    misses: u64,
    corrupt: u64,
    executed: u64,
    results_delivered: u64,
}

fn daemon_counters(daemon: &Daemon) -> Result<DaemonCounters, Refusal> {
    let io = |e: std::io::Error| Refusal(format!("cannot query vmprobe-serve: {e}"));
    let mut conn = daemon.connect().map_err(io)?;
    let status = conn.ask("{\"op\":\"status\"}\n").map_err(io)?;
    let metrics = conn.ask("{\"op\":\"metrics\"}\n").map_err(io)?;
    let counter = |name: &str| {
        number_after(&metrics, &format!("\\nvmprobe_{name}_total "))
            .ok_or_else(|| Refusal(format!("vmprobe-serve metrics lack {name}")))
    };
    Ok(DaemonCounters {
        disk_hits: counter("cache_hits")?,
        memo_hits: counter("cells_from_cache")?,
        deduped: counter("cells_deduped_in_batch")?,
        misses: counter("cache_misses")?,
        corrupt: counter("cache_corrupt")?,
        executed: counter("cells_executed")?,
        results_delivered: number_after(&status, "\"results_delivered\":")
            .ok_or_else(|| Refusal("vmprobe-serve status lacks results_delivered".into()))?,
    })
}

/// Measure the `cache` and `serve` layers on `cells` (see the module
/// docs). Refuses when the daemon executed a cell or missed an entry.
pub fn probe(
    args: &Args,
    work: &Path,
    cells: &[(ExperimentConfig, Arc<RunSummary>)],
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), Refusal> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or_else(|| Refusal("traced runs need --serve-bin <vmprobe-serve>".into()))?;
    let dir = work.join("serve-cache");
    let open = || {
        ExperimentCache::open(&dir)
            .map_err(|e| Refusal(format!("cannot open {}: {e}", dir.display())))
    };
    let cache = open()?;
    let mut store_us = Vec::new();
    for (cfg, summary) in cells {
        let t = Instant::now();
        cache.store(&cfg.key(), summary);
        store_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    metrics.set("cache.store_us", median(&store_us));
    let mut bytes = 0;
    for (cfg, _) in cells {
        let entry = std::fs::metadata(cache.entry_path(&cfg.key()))
            .map_err(|e| Refusal(format!("coverage: {cfg} is not in the cache: {e}")))?;
        bytes += entry.len();
    }
    metrics.set("cache.entry_bytes", bytes as f64 / cells.len() as f64);

    let daemon = Daemon::spawn(bin, work.join("serve.sock"), &dir, args.jobs)?;
    let io = |e: std::io::Error| Refusal(format!("cannot connect to vmprobe-serve: {e}"));
    let mut conns = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    let sequence = Mutex::new(RequestSequence::new(args.seed, cells.len()).enumerate());
    let (answers, queued_max) = closed_loop(&mut conns, &sequence, cells, PROBE_SECONDS)?;
    drop(conns);
    let counters = daemon_counters(&daemon)?;
    daemon.shut_down()?;
    if counters.executed > 0 || counters.misses > 0 || counters.corrupt > 0 {
        return Err(Refusal(format!(
            "coverage: vmprobe-serve executed {} cells ({} cache misses, {} corrupt) \
             instead of answering from its cache",
            counters.executed, counters.misses, counters.corrupt
        )));
    }
    for a in &answers {
        checks.record(a.ok);
    }
    let us = |a: &Answer| a.latency.as_secs_f64() * 1e6;
    let round_trip: Vec<f64> = answers.iter().map(us).collect();
    let d = Distribution::of(&round_trip).ok_or_else(|| Refusal("no request completed".into()))?;
    metrics.set_distribution("serve.round_trip_p50_us", "serve.round_trip_tail_us", d);
    let cold: Vec<f64> = answers.iter().filter(|a| a.first).map(us).collect();
    if !cold.is_empty() {
        metrics.set("serve.cold_round_trip_us", median(&cold));
    }
    metrics.set("serve.requests", answers.len() as f64);
    metrics.set("serve.queued_max", queued_max as f64);
    metrics.set(
        "serve.cache_hits",
        (counters.disk_hits + counters.memo_hits + counters.deduped) as f64,
    );
    metrics.set("serve.cells_executed", counters.executed as f64);
    metrics.set("serve.results_delivered", counters.results_delivered as f64);
    metrics.set("cache.hits", counters.disk_hits as f64);
    metrics.set("cache.misses", counters.misses as f64);
    metrics.set("cache.corrupt", counters.corrupt as f64);

    // Restore every entry through fresh handles, so each lookup decodes
    // from disk.
    let mut lookup_us = Vec::new();
    for _ in 0..LOOKUP_PASSES {
        let cache = open()?;
        for (cfg, summary) in cells {
            let t = Instant::now();
            let found = cache.lookup(&cfg.key());
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            checks.record(matches!(found, CacheLookup::Hit(s) if s.report == summary.report));
        }
    }
    let d = Distribution::of(&lookup_us).expect("a sweep grid is not empty");
    metrics.set_distribution("cache.lookup_p50_us", "cache.lookup_tail_us", d);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_back_to_the_same_cell() {
        for cfg in crate::sweep::grids() {
            let line = request_line("q1", "t", &cfg);
            let parsed = vmprobe::serve::protocol::parse_request(line.trim_end())
                .expect("a well-formed request");
            let vmprobe::serve::protocol::Request::Run(run) = parsed else {
                panic!("not a run request: {line}")
            };
            assert_eq!(run.config, cfg);
            assert_eq!(run.config.key(), cfg.key());
        }
    }

    #[test]
    fn numbers_follow_their_keys() {
        let line = "{\"ok\":true,\"kind\":\"accepted\",\"id\":\"q1\",\"queue_depth\":3}";
        assert_eq!(number_after(line, "\"queue_depth\":"), Some(3));
        assert_eq!(
            number_after("# x_total c\\nx_total 12\\n", "\\nx_total "),
            Some(12)
        );
        assert_eq!(number_after(line, "\"missing\":"), None);
    }
}
