#!/usr/bin/env python3
"""Build the program and the benchmark from source, then make one run.

    python3 dtbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `difftrace` CLI (the
main workspace's `difftrace-cli` package) and the `dtbench` package in
this directory into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs `dtbench run` and relays its output. The last line of standard
output is the run's JSON result; build logs go to standard error. A
failed build, a failed run or a run past its time limit exits non-zero
without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diff_lulesh", "sweep_tables", "serve_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root: Path, target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    common = ["cargo", "build", "--release", "--offline", "--quiet", "-j", "2"]
    for extra in (
        ["--manifest-path", str(root / "Cargo.toml"), "-p", "difftrace-cli"],
        ["--manifest-path", str(HERE / "Cargo.toml")],
    ):
        subprocess.run(
            common + extra,
            env=env,
            stdout=sys.stderr,
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    target = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        build(root, target)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    cmd = [
        str(target / "release" / "dtbench"),
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--difftrace", str(target / "release" / "difftrace"),
        "--work", str(work),
    ]
    # Its own process group, so a run past its limit is stopped together
    # with the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    start = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        print(f"run.py: dtbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if not lines:
        print("run.py: dtbench printed no result", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"run.py: run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
