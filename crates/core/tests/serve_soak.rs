//! End-to-end acceptance tests for `vmprobe-serve`.
//!
//! The daemon binary is spawned for real, driven over its Unix socket with
//! hand-written JSON lines, and held to the PR's acceptance bar:
//!
//! * healthy tenants receive result lines **byte-identical** to batch mode
//!   (the same `RunSummary` rendered through `protocol::result_line`);
//! * a poisoned tenant is quarantined after the configured threshold,
//!   visibly in `status`, and auto-released after its deterministic
//!   cooldown;
//! * SIGTERM (and the `shutdown` op) drain gracefully: every admitted
//!   request's response is delivered, then `bye`, then exit code 0;
//! * a mixed concurrent tenant population (size via `VMPROBE_SOAK_CLIENTS`)
//!   soaks the admission path without cross-tenant interference.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vmprobe::json::{self, JsonValue};
use vmprobe::serve::protocol::{observe_line, result_line};
use vmprobe::{ExperimentConfig, ObserveEngine, Runner, VmChoice};
use vmprobe_heap::CollectorKind;
use vmprobe_workloads::InputScale;

/// How many concurrent healthy clients the soak test drives (plus one
/// poisoned tenant). Override with `VMPROBE_SOAK_CLIENTS`.
fn soak_clients() -> usize {
    std::env::var("VMPROBE_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .clamp(1, 64)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmprobe-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Spawn the daemon and wait for its socket to exist.
fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmprobe-serve"));
    cmd.arg("--socket")
        .arg(socket)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("daemon spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Self {
        let stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    /// Read lines until one matches `kind` (skipping chatter like
    /// `accepted` and `dropped`). Panics on EOF.
    fn read_kind(&mut self, kinds: &[&str]) -> (String, JsonValue) {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read line");
            assert!(n > 0, "daemon hung up while waiting for {kinds:?}");
            let line = line.trim_end().to_owned();
            let v = json::parse(&line).expect("daemon speaks JSON");
            let kind = v.get("kind").and_then(JsonValue::as_str).unwrap_or("");
            if kinds.contains(&kind) {
                return (line, v);
            }
        }
    }

    /// Read to EOF, returning every remaining line.
    fn drain(mut self) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => return out,
                Ok(_) => out.push(line.trim_end().to_owned()),
            }
        }
    }
}

fn run_line(id: &str, tenant: &str, benchmark: &str, heap_mb: u32, faults: Option<&str>) -> String {
    let faults = match faults {
        Some(f) => format!(",\"faults\":\"{f}\""),
        None => String::new(),
    };
    format!(
        "{{\"op\":\"run\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\"benchmark\":\"{benchmark}\",\
         \"collector\":\"gencopy\",\"heap_mb\":{heap_mb},\"scale\":\"s10\"{faults}}}"
    )
}

/// The batch-mode baseline: the same cell run in-process, rendered
/// through the same canonical result renderer the daemon uses.
fn baseline_line(id: &str, benchmark: &str, heap_mb: u32) -> String {
    let cfg = ExperimentConfig {
        benchmark: benchmark.to_owned(),
        vm: VmChoice::Jikes(CollectorKind::GenCopy),
        heap_mb,
        platform: vmprobe_platform::PlatformKind::PentiumM,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        verify: true,
        probe: vmprobe::ProbeSpec::default(),
    };
    let summary = Runner::new().run(&cfg).expect("baseline runs");
    result_line(id, &summary)
}

#[test]
fn healthy_results_are_byte_identical_to_batch_mode_and_sigterm_drains() {
    let dir = temp_dir("basic");
    let socket = dir.join("daemon.sock");
    let report = dir.join("report.json");
    let metrics = dir.join("metrics.prom");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--retries",
            "0",
            "--report-json",
            report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    let mut alice = Client::connect(&socket);
    alice.send(&run_line("cell-1", "alice", "moldyn", 32, None));
    let (line, v) = alice.read_kind(&["result", "error"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("result"), "{line}");
    assert_eq!(line, baseline_line("cell-1", "moldyn", 32));

    // A second tenant asking for the same cell shares the warm memo and
    // gets the exact same bytes.
    let mut bob = Client::connect(&socket);
    bob.send(&run_line("cell-1", "bob", "moldyn", 32, None));
    let (bob_line, _) = bob.read_kind(&["result", "error"]);
    assert_eq!(bob_line, line, "shared cache must not change a byte");

    // In-flight delivery across SIGTERM: admit a request, then terminate.
    // (The executor races the acceptance ack, so the result may already
    // be queued when the ack is read — tolerate both orders.)
    alice.send(&run_line("cell-2", "alice", "search", 32, None));
    let (first, v) = alice.read_kind(&["accepted", "result"]);
    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");

    // The admitted cell's result still arrives, then the goodbye.
    let line2 = if v.get("kind").unwrap().as_str() == Some("accepted") {
        let (line2, v2) = alice.read_kind(&["result", "error"]);
        assert_eq!(v2.get("kind").unwrap().as_str(), Some("result"), "{line2}");
        line2
    } else {
        first
    };
    assert_eq!(line2, baseline_line("cell-2", "search", 32));
    alice.read_kind(&["bye"]);
    assert!(alice.drain().is_empty(), "nothing after bye");

    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful SIGTERM exit");
    // Final artifacts flushed on drain.
    let report = std::fs::read_to_string(&report).expect("report written");
    assert!(report.contains("\"runs_ok\":2"), "report: {report}");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics.contains("vmprobe_serve_requests_total 3"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("vmprobe_serve_results_total 3"),
        "metrics: {metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observe_requests_run_inline_and_match_the_batch_engine() {
    let dir = temp_dir("observe");
    let socket = dir.join("daemon.sock");
    let metrics = dir.join("metrics.prom");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--retries",
            "0",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    let mut alice = Client::connect(&socket);
    alice.send(
        r#"{"op":"observe","id":"obs-1","tenant":"alice","benchmark":"moldyn","collector":"gencopy","heap_mb":32,"scale":"s10","periods":"40us,400us"}"#,
    );
    let (line, v) = alice.read_kind(&["observe", "error"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("observe"), "{line}");

    // The daemon's bytes must match the in-process engine rendered through
    // the same canonical renderer — observe reports are deterministic.
    let cfg = ExperimentConfig {
        benchmark: "moldyn".to_owned(),
        vm: VmChoice::Jikes(CollectorKind::GenCopy),
        heap_mb: 32,
        platform: vmprobe_platform::PlatformKind::PentiumM,
        scale: InputScale::Reduced,
        trace_power: false,
        record_spans: false,
        verify: true,
        probe: vmprobe::ProbeSpec::default(),
    };
    let report = ObserveEngine::new(vec![40_000, 400_000])
        .run(std::slice::from_ref(&cfg))
        .expect("baseline sweep runs");
    assert_eq!(line, observe_line("obs-1", &report));

    // A grid over the serve cap is refused as a typed limit, not executed.
    alice.send(
        r#"{"op":"observe","id":"obs-2","tenant":"alice","benchmark":"moldyn","periods":"1us,2us,3us,4us,5us"}"#,
    );
    let (eline, ev) = alice.read_kind(&["error"]);
    assert_eq!(
        ev.get("code").and_then(JsonValue::as_str),
        Some("limit_exceeded"),
        "{eline}"
    );

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    alice.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful exit");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics.contains("vmprobe_serve_observe_total 1"),
        "metrics: {metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_tenant_is_quarantined_released_and_isolated() {
    let dir = temp_dir("quarantine");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--retries",
            "0",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "4",
        ],
    );

    let mut mallory = Client::connect(&socket);
    // Two failing requests: vm_fault, vm_fault → quarantine entered.
    // Distinct seeds make distinct cells, so the runner's per-config
    // negative memo is not what rejects the second one.
    for seed in [1, 2] {
        mallory.send(&run_line(
            &format!("poison-{seed}"),
            "mallory",
            "moldyn",
            32,
            Some(&format!("oom@1,seed={seed}")),
        ));
        let (line, v) = mallory.read_kind(&["result", "error"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("vm_fault"),
            "{line}"
        );
    }

    // Admission seqs so far: 1, 2 (both mallory). The second failure was
    // recorded at seq 2 → release at seq 6. Seqs 3, 4, 5 must be refused,
    // seq 6 re-admitted.
    for attempt in 3..6 {
        mallory.send(&run_line(
            &format!("poison-{attempt}"),
            "mallory",
            "moldyn",
            32,
            Some("oom@1,seed=9"),
        ));
        let (line, v) = mallory.read_kind(&["error"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("quarantined"),
            "attempt {attempt}: {line}"
        );
    }

    // Quarantine is visible in status while it holds… briefly: check via
    // a second connection (status does not bump the admission clock).
    let mut observer = Client::connect(&socket);
    observer.send(r#"{"op":"status"}"#);
    let (status_line, status) = observer.read_kind(&["status"]);
    let tenants = match status.get("tenants") {
        Some(JsonValue::Arr(items)) => items.clone(),
        other => panic!("tenants missing in {status_line}: {other:?}"),
    };
    let mallory_row = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(JsonValue::as_str) == Some("mallory"))
        .unwrap_or_else(|| panic!("mallory not in status: {status_line}"));
    assert_eq!(
        mallory_row.get("quarantined"),
        Some(&JsonValue::Bool(true)),
        "{status_line}"
    );
    assert_eq!(
        mallory_row
            .get("release_at_seq")
            .and_then(JsonValue::as_u64),
        Some(6),
        "{status_line}"
    );

    // Seq 6: the cooldown elapsed exactly — re-admitted (and the poison
    // fails again, as a vm_fault, not a quarantine refusal).
    mallory.send(&run_line(
        "poison-return",
        "mallory",
        "moldyn",
        32,
        Some("oom@1,seed=10"),
    ));
    let (line, v) = mallory.read_kind(&["error"]);
    assert_eq!(
        v.get("code").and_then(JsonValue::as_str),
        Some("vm_fault"),
        "released request executes again: {line}"
    );

    // A healthy tenant was never affected: bytes identical to batch mode.
    let mut alice = Client::connect(&socket);
    alice.send(&run_line("clean", "alice", "search", 32, None));
    let (result, _) = alice.read_kind(&["result"]);
    assert_eq!(result, baseline_line("clean", "search", 32));

    // The shutdown op drains exactly like SIGTERM.
    alice.send(r#"{"op":"shutdown"}"#);
    alice.read_kind(&["draining"]);
    alice.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_programs_are_rejected_at_admission_without_touching_quarantine() {
    let dir = temp_dir("verify");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "2",
            "--retries",
            "0",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "64",
        ],
    );

    let mut carol = Client::connect(&socket);

    // The merge-point regression program: both branch arms reach `merge`
    // at depth 1, one with an int and one with a float, and the merged
    // value feeds an integer add. The old structural verifier accepted
    // this shape (depths agree); the dataflow verifier must reject it.
    let merge_conflict = ".method main 0 0 ret\\n const_i 1\\n br_true thenarm\\n \
                          const_f 2.0\\n jump merge\\nthenarm: const_i 3\\n\
                          merge: const_i 1\\n add\\n ret_value";
    // A structurally broken program (dangling branch target).
    let dangling = ".method main 0 0\\n jump @99\\n ret";
    // One that does not even assemble.
    let garbage = ".method main 0 0\\n frobnicate\\n ret";

    // More rejections than the quarantine threshold: none of them may
    // count against the tenant.
    for (i, program) in [merge_conflict, dangling, garbage, merge_conflict]
        .iter()
        .enumerate()
    {
        carol.send(&format!(
            "{{\"op\":\"verify\",\"id\":\"v{i}\",\"program\":\"{program}\"}}"
        ));
        let (line, v) = carol.read_kind(&["error", "verified"]);
        assert_eq!(
            v.get("code").and_then(JsonValue::as_str),
            Some("verify_rejected"),
            "program {i}: {line}"
        );
        assert_eq!(
            v.get("id").and_then(JsonValue::as_str),
            Some(format!("v{i}").as_str())
        );
    }

    // A well-formed program passes both verifier tiers over the wire.
    let good = ".method main 0 1 ret\\n const_i 1\\n br_true thenarm\\n \
                const_i 2\\n jump merge\\nthenarm: const_i 3\\n\
                merge: store 0\\n load 0\\n ret_value";
    carol.send(&format!(
        "{{\"op\":\"verify\",\"id\":\"ok\",\"program\":\"{good}\"}}"
    ));
    let (line, v) = carol.read_kind(&["error", "verified"]);
    assert_eq!(v.get("kind").unwrap().as_str(), Some("verified"), "{line}");
    assert_eq!(v.get("methods").and_then(JsonValue::as_u64), Some(1));

    // The rejections consumed no pool slot and never touched quarantine:
    // the same tenant's run is admitted and bit-identical to batch mode.
    carol.send(&run_line("after-verify", "carol", "search", 32, None));
    let (result, _) = carol.read_kind(&["result"]);
    assert_eq!(result, baseline_line("after-verify", "search", 32));

    // Status reports the rejections and an empty quarantine book.
    carol.send(r#"{"op":"status"}"#);
    let (status_line, status) = carol.read_kind(&["status"]);
    assert_eq!(
        status.get("verify_rejected").and_then(JsonValue::as_u64),
        Some(4),
        "{status_line}"
    );
    assert!(
        !status_line.contains("\"quarantined\":true"),
        "verify rejections must not quarantine anyone: {status_line}"
    );

    carol.send(r#"{"op":"shutdown"}"#);
    carol.read_kind(&["draining"]);
    carol.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_mixed_tenants_soak_without_interference() {
    let dir = temp_dir("soak");
    let socket = dir.join("daemon.sock");
    let metrics = dir.join("metrics.prom");
    let mut daemon = spawn_daemon(
        &socket,
        &[
            "--jobs",
            "4",
            "--retries",
            "0",
            "--quarantine-threshold",
            "2",
            "--quarantine-cooldown",
            "64",
            "--queue-cap",
            "256",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );

    let clients = soak_clients();
    // Benchmarks cycle per client; baselines computed once, in-process.
    let cells: Vec<(String, u32)> = ["moldyn", "search", "_209_db"]
        .iter()
        .cycle()
        .take(clients)
        .enumerate()
        .map(|(i, b)| ((*b).to_owned(), 32 + 16 * ((i as u32) % 2)))
        .collect();
    let baselines: Vec<String> = cells
        .iter()
        .map(|(b, heap)| baseline_line("soak", b, *heap))
        .collect();

    let sock: &Path = &socket;
    std::thread::scope(|scope| {
        // One poisoned tenant hammers failing configs throughout.
        scope.spawn(move || {
            let mut poison = Client::connect(sock);
            for i in 0..6 {
                poison.send(&run_line(
                    &format!("p{i}"),
                    "poisoned",
                    "moldyn",
                    32,
                    Some(&format!("oom@1,seed={i}")),
                ));
                let (line, v) = poison.read_kind(&["error"]);
                let code = v.get("code").and_then(JsonValue::as_str).unwrap();
                assert!(
                    code == "vm_fault" || code == "quarantined",
                    "poisoned tenant saw '{code}': {line}"
                );
            }
        });
        for (i, ((bench, heap), baseline)) in cells.iter().zip(&baselines).enumerate() {
            scope.spawn(move || {
                let mut c = Client::connect(sock);
                let tenant = format!("tenant-{i}");
                // Three rounds over the same cell: first computes, the
                // rest replay from the shared memo — all byte-identical.
                for round in 0..3 {
                    c.send(&run_line("soak", &tenant, bench, *heap, None));
                    let (line, v) = c.read_kind(&["result", "error"]);
                    assert_eq!(
                        v.get("kind").unwrap().as_str(),
                        Some("result"),
                        "tenant {i} round {round}: {line}"
                    );
                    assert_eq!(
                        &line, baseline,
                        "tenant {i} round {round} diverged from batch mode"
                    );
                }
            });
        }
    });

    // Everyone is done; the queue must be empty and the poisoned tenant
    // on the books.
    let mut observer = Client::connect(&socket);
    observer.send(r#"{"op":"status"}"#);
    let (status_line, status) = observer.read_kind(&["status"]);
    assert_eq!(
        status.get("queued").and_then(JsonValue::as_u64),
        Some(0),
        "{status_line}"
    );
    assert!(
        status_line.contains("\"tenant\":\"poisoned\""),
        "poisoned tenant visible: {status_line}"
    );

    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    observer.read_kind(&["bye"]);
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "soak ends in a clean exit");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    // The poisoned tenant entered quarantine at least once (a very large
    // client count can outrun the cooldown and re-trigger it).
    let entered: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("vmprobe_serve_quarantine_entered_total "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("quarantine counter missing: {metrics}"));
    assert!(entered >= 1, "metrics: {metrics}");
    std::fs::remove_dir_all(&dir).ok();
}
