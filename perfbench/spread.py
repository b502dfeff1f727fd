#!/usr/bin/env python3
"""Runs the benchmark once per seed on one workload and prints, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median of
the per-run values, next to a third of the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workload light-200k --seeds 1-10

A metric is steady when its spread stays below a third of its bound;
setup_s is exempt from the spread rule (its median is still compared).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    values = {m["name"]: [] for m in declared}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{'metric':28} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for m in declared:
        xs = values[m["name"]]
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        third = m.get("bound", float("nan")) / 3
        flag = "" if not spread > third or m["name"] == "setup_s" else "  WIDE"
        print(f"{m['name']:28} {med:12.6g} {spread:8.4f} {third:8.4f}{flag}")


if __name__ == "__main__":
    main()
