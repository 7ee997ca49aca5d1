#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
builds the `perfbench` package from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload, and prints its result as the last line
of standard output: a JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`). Run it from the repository root.

Every workload, untraced and traced, in one table:
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Show that the correctness check fails a run on one planted wrong response
and passes the same run without it:
    python3 perfbench/run.py --selftest
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tree-update", "serve-read", "serve-scan-write"]
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, plant=False, echo=True):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd.append("--plant-wrong-response")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def run_all(binary, seed, seconds):
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    rows, ok = [], True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_once(binary, workload, seed, seconds, trace, echo=False)
            if code != 0 or result is None:
                print(f"{workload} trace={trace}: FAILED (exit {code})")
                ok = False
                continue
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                rows.append((name, workload, m["value"], m["unit"]))
    print()
    print(f"{'metric':28} {'workload':18} {'value':>14} unit")
    for name, workload, value, unit in rows:
        print(f"{name:28} {workload:18} {value:14.6g} {unit}")
    print()
    print("Which end-to-end metric each per-layer metric should move, and where:")
    for p in predictions["per_layer"]:
        print(f"  {p['metric']:28} [{p['layer']}] -> {', '.join(p['moves'])} on {', '.join(p['on'])}")
    return 0 if ok else 1


def selftest(binary):
    ok = True
    for workload in WORKLOADS:
        for plant in (True, False):
            code, result = run_once(binary, workload, 1, 4, 0, plant=plant, echo=False)
            caught = result is not None and not result["correct"] and code != 0
            passed = result is not None and result["correct"] and code == 0
            good = caught if plant else passed
            ok &= good
            label = "planted wrong response" if plant else "unmodified"
            verdict = ("caught" if caught else "missed") if plant else ("passes" if passed else "fails")
            print(f"{workload:18} {label:24} {verdict}{'' if good else '  <-- unexpected'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-response", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                       plant=args.plant_wrong_response)
    return code


if __name__ == "__main__":
    sys.exit(main())
