#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload <build-er2000|serve-grid|live-churn|all>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the `perfbench` package in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload per
process, and prints its report; the last line of stdout is the JSON result.
`--workload all` runs every workload, each in its own process.

The deterministic counters a run prints must repeat exactly for the same
binary and seed: they are stored under the build directory and a later run
that disagrees fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["build-er2000", "serve-grid", "live-churn"]
DEFAULT_SEED = 20160722
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "spanner-perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def check_counters(store, key, counters):
    """Returns the names of counters that differ from an earlier run of the
    same binary and seed (and records this run's counters if none exist)."""
    path = store / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        return sorted(k for k in set(earlier) | set(counters)
                      if earlier.get(k) != counters.get(k))
    store.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return []


def run_one(binary, target, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict or None, exit code)."""
    work = target / "perfbench" / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Thread counts are passed explicitly; keep the library's environment
    # override out of the run.
    env = {k: v for k, v in os.environ.items() if k != "SPANNER_THREADS"}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(work)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return None, 1
    lines = done.stdout.splitlines()
    traces = target / "perfbench" / "traces"
    for trace_file in work.glob("trace-*.jsonl"):
        traces.mkdir(parents=True, exist_ok=True)
        shutil.move(str(trace_file), str(traces / trace_file.name))
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        print(f"perfbench: {workload} printed no result "
              f"(exit {done.returncode})", file=sys.stderr)
        return None, done.returncode or 1
    for line in lines[:-1]:
        print(line)
    code = done.returncode
    counters = next((json.loads(line[len("counters "):]) for line in lines
                     if line.startswith("counters ")), None)
    if counters is not None:
        digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
        drift = check_counters(target / "perfbench" / "counters",
                               f"{digest}-{workload}-{seed}", counters)
        if drift:
            print(f"FAILED: counters differ from an earlier run of this seed: "
                  f"{', '.join(drift)}")
            result["correct"] = False
            result["failed"] += 1
            code = code or 1
    return result, code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target)
    if binary is None:
        return 1

    if args.workload != "all":
        result, code = run_one(binary, target, args.workload, args.seed,
                               args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        result, one_code = run_one(binary, target, workload, args.seed,
                                   args.seconds, args.trace)
        code = code or one_code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
