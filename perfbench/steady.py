#!/usr/bin/env python3
"""Steadiness check for one perfbench workload.

Runs the benchmark command from BENCHMARK.json K times on seeds
seed0 .. seed0+K-1 and prints, per metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound. With --check-seed0 it runs K more on a second
seed range and prints how far the second median moved in the worse
direction, as a share of the first. With --repeat it also re-runs the
first seed and requires the same counter digest.

    python3 perfbench/steady.py --workload interactive-collab --runs 5
    python3 perfbench/steady.py --workload mutate-watch --runs 10 \\
        --seed0 1 --check-seed0 1001 --repeat

Run it from the repository root. Exits 1 if any run is incorrect, if any
spread exceeds its bound, or if a second median is worse than the first
by more than the bound. setup_s is held to its bound like every other
metric, so this is stricter than a check that exempts set-up time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["perfbench"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect run: {lines[-2:]}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != listed:
        sys.exit(f"seed {seed}: metrics differ from BENCHMARK.json: {set(got.items()) ^ set(listed.items())}")
    return result, info


def spreads(per_metric, bounds, label):
    """Prints each metric's median, quartiles and spread; False if a
    spread exceeds its bound."""
    ok = True
    print(f"{label}: {len(next(iter(per_metric.values())))} runs")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in per_metric.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                ok = False
                flag = "OVER"
            elif spread > bound / 3:
                flag = "above 1/3"
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b} {flag}")
    return ok


def run_set(spec, args, seed0, label):
    per_metric = {}
    digests = {}
    for seed in range(seed0, seed0 + args.runs):
        result, info = run_once(spec, args.workload, seed, args.seconds, args.trace)
        digests[seed] = info.get("counter_digest")
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
        print(f"  [{label}] seed {seed}: attempted {result['attempted']}", file=sys.stderr)
    return per_metric, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--check-seed0", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m for m in spec["end_to_end"]} if args.trace == 0 else {}

    first, digests = run_set(spec, args, args.seed0, "A")
    ok = spreads(first, bounds, f"seeds {args.seed0}..{args.seed0 + args.runs - 1}")

    if args.repeat:
        _, info = run_once(spec, args.workload, args.seed0, args.seconds, args.trace)
        same = info.get("counter_digest") == digests[args.seed0]
        print(f"counter digest of seed {args.seed0} repeats: {same}")
        ok &= same

    if args.check_seed0 is not None:
        second, _ = run_set(spec, args, args.check_seed0, "B")
        ok &= spreads(second, bounds, f"seeds {args.check_seed0}..{args.check_seed0 + args.runs - 1}")
        print("second median against the first:")
        for name, values in second.items():
            m1 = statistics.median(first[name])
            m2 = statistics.median(values)
            m = bounds.get(name)
            worse = (m2 - m1) / m1 if m1 else 0.0
            if m and m["better"] == "higher":
                worse = -worse
            flag = ""
            if m and worse > m["bound"]:
                ok = False
                flag = "WORSE than bound"
            print(f"{name:34} {m1:12.4f} -> {m2:12.4f}  worse by {worse:+.4f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
