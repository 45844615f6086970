#!/usr/bin/env python3
"""Build vmprobe's benchmark and run one workload.

Run from the root of a vmprobe checkout:

    python3 perfbench/run.py --workload <jikes_full|kaffe_pxa> \
        --seed <n> --seconds <s> --trace <0|1>

It builds two release binaries from source into $CARGO_TARGET_DIR
(default: .bench_build): the benchmark itself (perfbench/Cargo.toml, a
workspace of its own) and the vmprobe-serve daemon that traced runs drive.
Build output goes to standard error. The benchmark's last line of standard
output is the result object; see perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

# A run must end within this many seconds once the builds are done.
RUN_TIMEOUT_S = 175


def source_digest(root):
    """SHA-256 over every source file the binaries are built from."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file() and "target" not in path.relative_to(root).parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit(root):
    """The checkout's git commit, or "none" outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "core").is_dir():
        print(
            "perfbench: run from the root of a vmprobe checkout "
            "(no Cargo.toml and crates/core here)",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "vmprobe", "--bin", "vmprobe-serve"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1

    cmd = [
        str(target / "release" / "vmprobe-perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        str(target / "release" / "vmprobe-serve"),
        "--commit",
        commit(root),
        "--source",
        source_digest(root),
    ]
    sys.stdout.flush()
    # Its own process group, so a run that overstays takes its daemon with it.
    bench = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 124
    except KeyboardInterrupt:
        os.killpg(bench.pid, signal.SIGTERM)
        bench.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
