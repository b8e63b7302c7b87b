#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-matrix|predict-cold \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and bin/grophecy.exe with dune (shared
cache off, so nothing is read or written outside the checkout), then
runs the workload in its own process.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
Scratch state (reference cache, server stores) lives under .perfbench/.

Exits non-zero without printing a result when the sources are missing or
the build fails.  The self-test is perfbench/selftest.py.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("eval-matrix", "predict-cold")
SOURCES = ("dune-project", "lib", "bin", "perfbench/dune", "test/golden/batch.expected.tsv")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def env():
    e = {k: v for k, v in os.environ.items() if not k.startswith("GPP_")}
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/grophecy.exe"]
    r = subprocess.run(cmd, env=env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return r.returncode == 0


def run(args):
    cmd = [
        "_build/default/perfbench/perfbench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--grophecy", "_build/default/bin/grophecy.exe",
        "--golden", "test/golden/batch.expected.tsv",
        "--state", ".perfbench",
    ]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # Its own process group, so a timeout also stops the server and
    # reference processes it started.
    proc = subprocess.Popen(cmd, env=env(), start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


def main(argv):
    args = parse_args(argv)
    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        print(f"perfbench: not a grophecy checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
