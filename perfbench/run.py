#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Builds perfbench (an optimised CMake build of the simulator sources plus
perfbench/src) into $CARGO_TARGET_DIR, or .bench_build in the current
directory, then runs one workload in its own process. Build output goes
to stderr. The report goes to stdout; its last line is the JSON result.
See perfbench/README.md for the metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("direct_randread", "mixed_rw_revoke", "fabric_fleet_qos")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            process_group=0)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return 1


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    return True


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=os.path.dirname(HERE),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = res.stdout.strip()
    return sha if res.returncode == 0 and sha else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shards", type=int, default=0,
                    help="fabric_fleet_qos shards of the timed rounds "
                    "(default 1)")
    args = ap.parse_args()

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")
    out = os.path.join(base, "perfbench")
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    sha = commit()

    status = 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", sha]
        if args.shards:
            cmd += ["--shards", str(args.shards)]
        if args.trace:
            cmd += ["--spans-out",
                    os.path.join(out, f"host-spans-{name}.tsv")]
        sys.stdout.flush()
        rc = run_group(cmd, RUN_TIMEOUT_S, None)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
