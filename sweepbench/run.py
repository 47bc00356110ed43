#!/usr/bin/env python3
"""Builds macs-bench and the benchmark from source, then runs the benchmark.

Run from the repository root:

    python3 sweepbench/run.py --workload sweep_exact --seed 1 --seconds 24 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr; the benchmark's last stdout line is its JSON result. The
exit code is the benchmark's, or nonzero when a build fails.

The benchmark and every server it starts run pinned to one CPU, the
highest this process may use. The load is closed-loop with one request in
flight, so nothing runs in parallel anyway; pinned, a request's hand-offs
between client and server are local context switches instead of
cross-CPU wake-ups, whose latency varies with the host's load.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "macs-bench"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "sweepbench", "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"sweepbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "sweepbench"),
        *sys.argv[1:],
        "--macs-bench", os.path.join(release, "macs-bench"),
        "--out", os.path.join(root, "sweepbench", "out"),
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
