#!/usr/bin/env python3
"""Steadiness and smoke modes of the benchmark.

Run from the repository root.

    python3 perfbench/steady.py --runs 10            # every workload, seeds 1..10
    python3 perfbench/steady.py --runs 5 --workloads lubm4-update
    python3 perfbench/steady.py --smoke              # seconds-long answer checks

The steadiness mode runs each workload repeatedly, one seed per run, and
prints for each end-to-end metric the median, the quartiles, and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
It exits non-zero when a run fails its checks or fails an operation, or
when a spread exceeds its bound.

The smoke mode runs every workload once at a small scale, untraced and
traced, and checks that each run passes its answer checks and prints
every metric BENCHMARK.json names.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace, smoke):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def expect_metrics(result, names, label):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise SystemExit(f"{label}: missing metrics {missing}")
    if not result["correct"]:
        raise SystemExit(f"{label}: answer checks failed")
    if result["failed"]:
        raise SystemExit(f"{label}: {result['failed']} operations failed")


def smoke(spec):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layers)):
            r = run_once(spec, w["name"], 1, 2, trace, True)
            expect_metrics(r, names, f"{w['name']} trace {trace}")
            print(f"smoke {w['name']:<14} trace {trace}: correct, "
                  f"{r['attempted']} attempted, {r['failed']} failed")


def steady(spec, workloads, runs, seed_base):
    ok = True
    for w in workloads:
        results = []
        for i in range(runs):
            r = run_once(spec, w, seed_base + i, spec["run_seconds"], 0, False)
            expect_metrics(r, [m["name"] for m in spec["end_to_end"]], f"{w} run {i}")
            results.append(r)
        print(f"\n{w}: {runs} runs, seeds {seed_base}..{seed_base + runs - 1}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            within = spread <= m["bound"]
            ok &= within
            flag = "" if spread <= m["bound"] / 3 else (" over bound/3" if within else " OVER BOUND")
            print(f"  {m['name']:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.3f} {m['bound']:>6.2f}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.smoke:
        smoke(spec)
        return
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    if not steady(spec, names, a.runs, a.seed_base):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
