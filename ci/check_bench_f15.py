#!/usr/bin/env python3
"""Gate for the F15 batched-mediation figure.

Reads a fresh BENCH_f15.json and enforces CheckBatch's amortization claim:
for every BM_CheckBatched/N entry (N >= 8), the per-item cost (median
cpu_time / N) must not exceed the per-call baseline:

    (median cpu_time(BM_CheckBatched/N) / N)
  / median cpu_time(BM_CheckPerCall)            must be < MAX_RATIO (1.0)

Both sides come from the same run on the same fixture, so machine speed
cancels. The ceiling is a constant, not an option: batching must not be
slower per item than calling Check, and the gate cannot be loosened from
the command line.

No committed baseline: like F14, this is an absolute claim about the
mechanism, not a regression bound.

Usage: check_bench_f15.py <fresh.json>
"""

import argparse
import json
import re
import statistics
import sys

MAX_RATIO = 1.0
PER_CALL = "BM_CheckPerCall"
BATCHED_RE = re.compile(r"^BM_CheckBatched/(\d+)$")


def iteration_entries(data, name_pred):
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        if (name_pred(name)
                and bench.get("run_type", "iteration") == "iteration"
                and "error_occurred" not in bench):
            yield name, bench


def median_cpu_time(data, path, name):
    values = [
        float(bench["cpu_time"])
        for _, bench in iteration_entries(data, lambda n: n == name)
        if "cpu_time" in bench
    ]
    if not values:
        raise KeyError(f"{path}: no successful benchmark named {name}")
    return statistics.median(values)


def batched_medians(data, path):
    by_n = {}
    for name, bench in iteration_entries(data, lambda n: BATCHED_RE.match(n)):
        if "cpu_time" not in bench:
            continue
        n = int(BATCHED_RE.match(name).group(1))
        by_n.setdefault(n, []).append(float(bench["cpu_time"]))
    if not by_n:
        raise KeyError(f"{path}: no successful BM_CheckBatched/N entries")
    return {n: statistics.median(values) for n, values in by_n.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            data = json.load(f)
        if not data.get("benchmarks"):
            raise ValueError(f"{args.fresh}: no benchmark entries — "
                             "did bench_f15_batch run?")
        per_call = median_cpu_time(data, args.fresh, PER_CALL)
        if per_call <= 0:
            raise ValueError(f"{args.fresh}: non-positive cpu_time for {PER_CALL}")
        batched = batched_medians(data, args.fresh)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        print(f"check_bench_f15: {err}", file=sys.stderr)
        return 1

    failed = False
    for n in sorted(batched):
        per_item = batched[n] / n
        ratio = per_item / per_call
        print(f"batched/{n}: {per_item:.1f}ns per item vs per-call "
              f"{per_call:.1f}ns (ratio {ratio:.4f})")
        if n >= 8 and ratio >= MAX_RATIO:
            print(f"check_bench_f15: FAIL — batch of {n} is not at least as "
                  f"fast per item as per-call checks "
                  f"(ratio {ratio:.4f} >= {MAX_RATIO})", file=sys.stderr)
            failed = True

    if failed:
        return 1
    print("check_bench_f15: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
