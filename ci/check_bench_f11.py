#!/usr/bin/env python3
"""Gate for the F11 parallel-mediation figure.

Reads a fresh BENCH_f11.json and enforces one claim: the cached check path
scales with threads. BM_ParallelCheck at 4 threads must reach at least
MIN_RATIO (1.5) times its 1-thread items_per_second. A cache hit
takes no lock and writes only thread-private counter stripes, so nothing
but memory bandwidth should hold 4 threads back; a shared read-modify-write
on the hit path shows up here as flat or negative scaling.

The gate needs 4 CPUs to mean anything. On a host with fewer (per the JSON
context's num_cpus) it prints a skip line and passes.

Uncached scaling (BM_ParallelCheckUncached) is NOT gated yet: the uncached
path still takes the compiled-table shared_mutex, copies the tables'
shared_ptr, and takes the name-space, principal-registry and label-store
locks and reference counts, so it still scales negatively with threads.
Gating it would fail until those are removed.

With repetitions, the median of the iteration entries is used.

Usage: check_bench_f11.py <fresh.json>
"""

import argparse
import json
import statistics
import sys

BENCH = "BM_ParallelCheck"
THREADS_NEEDED = 4
MIN_RATIO = 1.5


def items_per_second(data, path, threads):
    name = f"{BENCH}/real_time/threads:{threads}"
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

    one = items_per_second(data, args.fresh, 1)
    four = items_per_second(data, args.fresh, THREADS_NEEDED)
    ratio = four / one
    print(f"F11 gate: {BENCH} 1 thread {one / 1e6:.2f}M/s, "
          f"{THREADS_NEEDED} threads {four / 1e6:.2f}M/s, ratio {ratio:.2f}x "
          f"(need >= {MIN_RATIO:.2f}x)")
    if ratio < MIN_RATIO:
        print(f"F11 gate: FAIL — cached checks do not scale to {THREADS_NEEDED} threads")
        return 1
    print("F11 gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
