#!/usr/bin/env python3
"""Quick self-test of the repository benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

For each declared workload, at minimum size (--seconds 1; eval-matrix is
always one whole golden-matrix sweep):
  - an untraced run prints every end-to-end metric of BENCHMARK.json
    with its unit, reports correct with no failures, and eval-matrix
    reads the golden matrix's 9.1088% speedup error;
  - a traced run with one reference deliberately corrupted prints every
    per-layer metric with its unit, and reports exactly the failures
    that one corruption causes: one in the untraced phase and one in
    the stage-by-stage replay, plus, on predict-cold, the one served
    request whose reference it is.  Any other mismatch, in the replay
    or in the served bodies, would raise the count.
Then a directory holding only BENCHMARK.json and perfbench/ must make
the benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
GOLDEN_SPEEDUP_ERROR_PCT = 9.108834
# Failures one corrupted reference causes in a traced run, per workload.
CORRUPTED_FAILURES = {"eval-matrix": 2, "predict-cold": 3}
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, corrupt, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-reference")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(workload, result, declared):
    names = [m["name"] for m in declared]
    got = result["metrics"]
    check(sorted(got) == sorted(names), f"{workload}: prints exactly the {len(names)} declared metrics")
    for m in declared:
        v = got.get(m["name"], {})
        check(isinstance(v.get("value"), (int, float)) and v.get("unit") == m["unit"],
              f"{workload}: {m['name']} has a value in {m['unit']}")


def main():
    for w in [x["name"] for x in BENCH["workloads"]]:
        clean = run(w, 0, False)
        r = result_of(clean)
        check(clean.returncode == 0 and r is not None, f"{w}: untraced run exits 0 with a result")
        if r is None:
            continue
        check(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result has exactly the four keys")
        check_metrics(w, r, BENCH["end_to_end"])
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{w}: correct, nothing failed")
        if w == "eval-matrix":
            err = r["metrics"]["speedup_error_pct"]["value"]
            check(abs(err - GOLDEN_SPEEDUP_ERROR_PCT) < 1e-4, f"{w}: speedup error {err:.4f}% is the golden 9.1088%")

        bad = run(w, 1, True)
        r = result_of(bad)
        check(bad.returncode == 0 and r is not None, f"{w}: traced run exits 0 with a result")
        if r is None:
            continue
        check_metrics(w, r, BENCH["per_layer"])
        want = CORRUPTED_FAILURES[w]
        check(r["failed"] == want and not r["correct"],
              f"{w}: one corrupted reference counts as exactly {want} failed operations (got {r['failed']})")

    stripped = os.path.join(".perfbench", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy("BENCHMARK.json", stripped)
    for p in BENCH["paths"]:
        shutil.copytree(p, os.path.join(stripped, p), ignore=shutil.ignore_patterns("__pycache__"))
    alone = run("predict-cold", 0, False, cwd=stripped)
    check(alone.returncode != 0 and result_of(alone) is None,
          "without the repository's sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(stripped, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
