#!/usr/bin/env python3
"""Gate for the F11 parallel-mediation figure.

Reads a fresh BENCH_f11.json and enforces two claims, each on the
4-thread / 1-thread ratio of items_per_second:

- the cached check path scales: BM_ParallelCheck at 4 threads must reach
  at least MIN_RATIO (1.5) times its 1-thread rate. A cache hit takes no
  lock and writes only thread-private counter stripes, so nothing but
  memory bandwidth should hold 4 threads back;
- the uncached check path scales: BM_ParallelCheckUncached at 4 threads
  must reach at least MIN_UNCACHED_RATIO (2.5) times its 1-thread rate.
  With the cache off every check probes the compiled decision tables,
  which a reader pins on its own thread stripe instead of taking a lock or
  copying a reference count, so the probe writes no shared cache line.

A shared read-modify-write on either path shows up here as flat or
negative scaling.

The gate needs 4 CPUs to mean anything. On a host with fewer (per the JSON
context's num_cpus) it prints a skip line and passes.

With repetitions, the median of the iteration entries is used.

Usage: check_bench_f11.py <fresh.json>
"""

import argparse
import json
import statistics
import sys

THREADS_NEEDED = 4
MIN_RATIO = 1.5
MIN_UNCACHED_RATIO = 2.5

# (benchmark, required 4-thread / 1-thread ratio, what failing means)
GATES = [
    ("BM_ParallelCheck", MIN_RATIO, "cached checks"),
    ("BM_ParallelCheckUncached", MIN_UNCACHED_RATIO, "uncached checks"),
]


def items_per_second(data, path, bench, threads):
    name = f"{bench}/real_time/threads:{threads}"
    values = [
        float(b["items_per_second"])
        for b in data.get("benchmarks", [])
        if b.get("name") == name
        and b.get("run_type", "iteration") == "iteration"
        and "error_occurred" not in b
        and "items_per_second" in b
    ]
    if not values:
        raise KeyError(f"{path}: no successful {name} entry with items_per_second")
    return statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    args = parser.parse_args()

    with open(args.fresh) as f:
        data = json.load(f)

    cpus = int(data.get("context", {}).get("num_cpus", 0))
    if cpus < THREADS_NEEDED:
        print(f"F11 gate: SKIP — host has {cpus} CPUs, the scaling gate needs "
              f"{THREADS_NEEDED}")
        return 0

    failed = False
    for bench, min_ratio, what in GATES:
        one = items_per_second(data, args.fresh, bench, 1)
        four = items_per_second(data, args.fresh, bench, THREADS_NEEDED)
        ratio = four / one
        print(f"F11 gate: {bench} 1 thread {one / 1e6:.2f}M/s, "
              f"{THREADS_NEEDED} threads {four / 1e6:.2f}M/s, ratio {ratio:.2f}x "
              f"(need >= {min_ratio:.2f}x)")
        if ratio < min_ratio:
            print(f"F11 gate: FAIL — {what} do not scale to {THREADS_NEEDED} threads")
            failed = True
    if failed:
        return 1
    print("F11 gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
