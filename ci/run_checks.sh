#!/usr/bin/env bash
# Full verification sweep: a Release build plus two sanitized builds, the
# test suite under each, and the F1/F11 mediation figures as JSON.
#
#   ci/run_checks.sh [--quick | --faults]
#
# --quick restricts the sanitizer ctest runs to the monitor + concurrency
# tests (the multithreaded surface, including the striped MonitorStats
# counters, the lock-free decision-cache and node-kind reads, the reader
# pins of the compiled tier, the mediated StatsService tree, the
# subscription channels, the cooperative-cancellation paths, the
# fault-injection suites, the batched-check fault and clear-race suites, and
# the compiled-policy + differential-fuzz suites) plus the policy round-trip
# and MemFs tests; the default runs everything everywhere.
#
# --faults runs only the randomized fault-injection sweep: the fault suites
# (Failpoint|FaultService|AuditResilience|PolicyCrash|RingFault|NdjsonDiskFull|
# ShardClearRace|AuditFanOut|Supervisor|Quarantine) plus the DiffFuzz
# differential oracle under ASan+UBSan and TSan with a randomized
# XSEC_FAULT_SEED. The seed is printed so a failing sweep replays exactly:
# XSEC_FAULT_SEED=<seed> ci/run_checks.sh --faults.
#
# Outputs:
#   build-release/   optimized build, full ctest
#   build-tsan/      -fsanitize=thread, ctest (races fail the run)
#   build-asan/      -fsanitize=address,undefined, ctest
#   BENCH_f1.json    bench_f1_mediation results (per-call overhead; the
#                    Cached vs Cached_NoStats delta is the stats budget,
#                    gated against ci/bench_f1_baseline.json by
#                    ci/check_bench_f1.py — >10% ratio regression fails.
#                    Collected with instructions-retired perf counters when
#                    the benchmark library + kernel support them; the gate
#                    prefers that metric and falls back to median cpu_time)
#   BENCH_f11.json   bench_f11_parallel results from the release build
#                    (ci/check_bench_f11.py requires, at 4 threads vs
#                    one, cached checks >= 1.5x and uncached checks
#                    >= 2.5x; skipped below 4 CPUs)
#   BENCH_f12.json   bench_f12_subscription results (publish fan-out cost +
#                    multi-sink audit drain; ci/check_bench_f12.py requires
#                    the publisher ~flat 1->64 subscribers, a 2-sink drain
#                    >= 1.5x one sink, and zero stitch violations)
#   BENCH_f14.json   bench_f14_compiled results (compiled vs interpreted
#                    cache-miss decisions; ci/check_bench_f14.py requires
#                    the compiled miss to be materially faster)
#   BENCH_f15.json   bench_f15_batch results (batched mediation;
#                    ci/check_bench_f15.py requires batched per-item cost
#                    <= per-call at batch >= 8)
#   BENCH_f16.json   bench_f16_shard results (sharded stamp domains;
#                    ci/check_bench_f16.py requires zero cross-shard stale
#                    evictions, a live same-shard control, and effective
#                    ACL interning)
#   BENCH_f17.json   bench_f17_supervisor results (supervised degradation;
#                    ci/check_bench_f17.py requires invokes beside a
#                    quarantined peer within 10% of baseline, a real audited
#                    + health-visible trip, and the mediated release round
#                    trip to restore service)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"
QUICK=0
FAULTS=0
[[ "${1:-}" == "--quick" ]] && QUICK=1
[[ "${1:-}" == "--faults" ]] && FAULTS=1

# DiffFuzz (tests/diff_fuzz_test.cc) rides in the fault sweep: it arms the
# same failpoints and must never observe a compiled/interpreted divergence.
FAULT_RE='Failpoint|FaultService|AuditResilience|PolicyCrash|DiffFuzz|RingFault|NdjsonDiskFull|ShardClearRace|AuditFanOut|Supervisor|Quarantine'

# Randomized but replayable in every mode: the differential fuzzer and the
# failpoint sweeps read XSEC_FAULT_SEED from the environment and print it in
# their own output (SCOPED_TRACE), so any failure replays exactly with
# XSEC_FAULT_SEED=<seed> ci/run_checks.sh [mode].
: "${XSEC_FAULT_SEED:=$RANDOM$RANDOM}"
export XSEC_FAULT_SEED
echo "== Randomized seed: XSEC_FAULT_SEED=$XSEC_FAULT_SEED =="

run_ctest() {
  local dir="$1"
  if [[ "$QUICK" == 1 ]]; then
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" \
        -R "MonitorConcurrency|ReaderPins|MemFs|KernelConcurrency|DecisionCache|ReferenceMonitor|AuditLog|NdjsonRotation|MonitorStats|StatsService|StatsSnapshot|StatsWatch|Subscription|Cancellation|PolicyIo|PolicyRoundTrip|CompiledPolicy|Shard|${FAULT_RE}")
  else
    (cd "$dir" && ctest --output-on-failure -j "$JOBS")
  fi
}

if [[ "$FAULTS" == 1 ]]; then
  echo "== Fault-injection sweep (XSEC_FAULT_SEED=$XSEC_FAULT_SEED) =="

  echo "== AddressSanitizer + UBSan build =="
  cmake -B build-asan -S . -DXSEC_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS" -R "$FAULT_RE")

  echo "== ThreadSanitizer build =="
  cmake -B build-tsan -S . -DXSEC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -R "$FAULT_RE")

  echo "Fault sweep passed (seed $XSEC_FAULT_SEED)."
  exit 0
fi

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS"
(cd build-release && ctest --output-on-failure -j "$JOBS")

echo "== ThreadSanitizer build =="
cmake -B build-tsan -S . -DXSEC_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS"
run_ctest build-tsan

echo "== AddressSanitizer + UBSan build =="
cmake -B build-asan -S . -DXSEC_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
run_ctest build-asan

echo "== F1: per-call mediation overhead =="
F1_RUN=(./build-release/bench/bench_f1_mediation
    --benchmark_out=BENCH_f1.json --benchmark_out_format=json
    --benchmark_min_time=0.25 --benchmark_repetitions=3)
# Ask for instructions-retired counters: when the library was built with
# libpfm and the kernel permits perf_event_open, every benchmark entry gains
# an INSTRUCTIONS column and the gate below uses it (deterministic, immune
# to CPU-frequency noise). Builds without the support either ignore the flag
# with a notice or reject it outright — retry plainly in that case; the gate
# then falls back to median cpu_time.
if ! "${F1_RUN[@]}" --benchmark_perf_counters=INSTRUCTIONS; then
  echo "perf counters unavailable; rerunning F1 without them"
  "${F1_RUN[@]}"
fi

echo "== F1 regression gate (stats overhead ratio vs committed baseline) =="
python3 ci/check_bench_f1.py BENCH_f1.json ci/bench_f1_baseline.json

echo "== F14: compiled vs interpreted cache-miss decisions =="
./build-release/bench/bench_f14_compiled \
    --benchmark_out=BENCH_f14.json --benchmark_out_format=json \
    --benchmark_min_time=0.25 --benchmark_repetitions=3

echo "== F14 gate (compiled miss must beat interpreted miss) =="
python3 ci/check_bench_f14.py BENCH_f14.json

echo "== F15: batched vs per-call checks =="
./build-release/bench/bench_f15_batch \
    --benchmark_out=BENCH_f15.json --benchmark_out_format=json \
    --benchmark_min_time=0.25 --benchmark_repetitions=3

echo "== F15 gate (batched per-item <= per-call) =="
python3 ci/check_bench_f15.py BENCH_f15.json

echo "== F16: sharded stamp domains =="
./build-release/bench/bench_f16_shard \
    --benchmark_out=BENCH_f16.json --benchmark_out_format=json \
    --benchmark_min_time=0.25

echo "== F16 gate (cross-shard isolation; ACL interning) =="
python3 ci/check_bench_f16.py BENCH_f16.json

echo "== F17: supervised degradation (quarantined peer containment) =="
./build-release/bench/bench_f17_supervisor \
    --benchmark_out=BENCH_f17.json --benchmark_out_format=json \
    --benchmark_min_time=0.25 --benchmark_repetitions=3

echo "== F17 gate (peer quarantine taxes neighbors <= 10%; trip audited + visible; release restores) =="
python3 ci/check_bench_f17.py BENCH_f17.json

echo "== F11: parallel mediation throughput =="
./build-release/bench/bench_f11_parallel \
    --benchmark_out=BENCH_f11.json --benchmark_out_format=json \
    --benchmark_min_time=0.1 --benchmark_repetitions=3

echo "== F11 gate (at 4 threads vs one: cached checks >= 1.5x, uncached >= 2.5x) =="
python3 ci/check_bench_f11.py BENCH_f11.json

echo "== F12: subscription fan-out on the publish path =="
./build-release/bench/bench_f12_subscription \
    --benchmark_out=BENCH_f12.json --benchmark_out_format=json \
    --benchmark_min_time=0.1 --benchmark_repetitions=3

echo "== F12 gate (publisher ~flat 1->64 subs; 2-sink drain >= 1.5x; stitch == 0) =="
python3 ci/check_bench_f12.py BENCH_f12.json

echo "All checks passed (XSEC_FAULT_SEED=$XSEC_FAULT_SEED). Figure data in BENCH_f1.json, BENCH_f11.json, BENCH_f12.json, BENCH_f14.json, BENCH_f15.json, BENCH_f16.json, BENCH_f17.json."
