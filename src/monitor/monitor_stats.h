// Operational statistics for the mediation path.
//
// The paper's reference monitor is "a central facility to provide naming and
// protection services for the entire system" (§3); this module is that
// facility's own instrument panel. It extends the AuditLog's two coarse
// counters into per-DenyReason denial counters, per-access-mode check
// counters, and a log-linear (HdrHistogram-style) latency histogram sampled
// on the check path. StatsService (src/services/stats_service.h) surfaces
// every counter as a read-only node under /sys/monitor/... in the
// hierarchical namespace, so visibility of the telemetry is itself mediated
// by the monitor.
//
// Thread safety and hot-path cost: a shared fetch_add per counter would put
// several locked read-modify-writes (~7ns each measured) on every check —
// far more than the mediation fast path itself costs. Counters are instead
// one StripedCounters array (src/base/thread_stripe.h): each recording
// thread writes only the cache-line-aligned slot of its stripe index, with
// plain relaxed load+store pairs (single writer per slot, ~0.4ns each).
// Threads beyond kThreadStripes share the overflow slot, which falls back to
// fetch_add, so totals stay exact at any thread count. Readers aggregate all
// slots. Latency is *sampled* (1 in kSampleEvery checks per thread, per
// instance: the sample clock is a counter in the thread's slot) so the two
// steady_clock reads stay off the common case.
//
// Consistency: individual counters are monotone and individually coherent,
// but two *separate* leaf reads are not mutually consistent. TakeSnapshot()
// is the sanctioned multi-counter view: it renders every counter in one
// pass, ordered so that its invariants (allowed + denied == checks_total,
// sum(by_mode) >= checks_total, sum(latency_buckets) >= latency_samples)
// hold even under concurrent recording, and it retries around a concurrent
// Reset() via the reset generation stamp (docs/MODEL.md §11). Reset() moves
// the counters' baselines, never the slots, so a bump racing it cannot
// resurrect pre-reset counts.

#ifndef XSEC_SRC_MONITOR_MONITOR_STATS_H_
#define XSEC_SRC_MONITOR_MONITOR_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/base/thread_stripe.h"
#include "src/dac/access_mode.h"
#include "src/monitor/audit.h"

namespace xsec {

class MonitorStats {
 public:
  // Log-linear nanosecond buckets (HdrHistogram-style): each power-of-two
  // range is split into kSubBuckets linear sub-buckets, so a bucket's width
  // is at most 1/kSubBuckets of its lower bound — quantiles read from bucket
  // upper bounds are within 12.5% of the exact sample. Values below
  // 2*kSubBuckets ns get exact (1 ns) buckets; 2^kMaxLatencyBits ns ≈ 2.1 s
  // caps the histogram and anything slower lands in the last bucket.
  static constexpr size_t kSubBucketBits = 3;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 8
  static constexpr size_t kMaxLatencyBits = 31;
  static constexpr size_t kLatencyBuckets =
      (kMaxLatencyBits - kSubBucketBits + 1) * kSubBuckets;  // 232
  // One check in kSampleEvery (per thread, per instance) is timed; must be a
  // power of two. Chosen so the two steady_clock reads a sample costs (~40ns
  // each on a virtualized clock) amortize to well under a nanosecond per
  // check.
  static constexpr uint64_t kSampleEvery = 256;

  MonitorStats() = default;
  MonitorStats(const MonitorStats&) = delete;
  MonitorStats& operator=(const MonitorStats&) = delete;

  // The bucket a latency sample lands in, and a bucket's inclusive upper
  // bound in ns. Exposed so tests can round-trip
  // RecordLatencyNs(ns) -> bucket -> quantile upper bound.
  static constexpr size_t LatencyBucketIndex(uint64_t ns) {
    if (ns < 2 * kSubBuckets) {
      return static_cast<size_t>(ns);  // exact 1 ns buckets
    }
    if (ns >= (uint64_t{1} << kMaxLatencyBits)) {
      return kLatencyBuckets - 1;  // overflow bucket
    }
    // msb >= kSubBucketBits + 1 here; the kSubBucketBits bits below the MSB
    // select the linear sub-bucket within the octave.
    unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    unsigned shift = msb - static_cast<unsigned>(kSubBucketBits);
    size_t sub = static_cast<size_t>(ns >> shift) & (kSubBuckets - 1);
    return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
  }
  static constexpr uint64_t LatencyBucketUpperBoundNs(size_t bucket) {
    if (bucket < 2 * kSubBuckets) {
      return bucket;  // exact buckets hold a single value
    }
    unsigned shift = static_cast<unsigned>(bucket / kSubBuckets) - 1;
    uint64_t lower = (kSubBuckets + (bucket & (kSubBuckets - 1))) << shift;
    return lower + ((uint64_t{1} << shift) - 1);
  }

  // -- Recording (check path; lock-free) --------------------------------------

  // Counts one decision: one count per access mode present in the request,
  // then the reason bucket (kNone = allowed). The total is derived on read —
  // every decision lands in exactly one reason bucket — so the common
  // single-mode check costs two load+store pairs, not three. The reason bump
  // is a release store *after* the mode bumps: a reader that observes a
  // decision's reason (acquire) therefore also observes its modes, which is
  // what makes TakeSnapshot's sum(by_mode) >= checks_total invariant hold
  // under concurrent recording.
  void RecordDecision(AccessModeSet modes, DenyReason reason) {
    size_t stripe = ThreadStripe();
    uint32_t bits = modes.bits();
    while (bits != 0) {
      counters_.AddAt(stripe, kModeBase + static_cast<unsigned>(__builtin_ctz(bits)), 1);
      bits &= bits - 1;
    }
    counters_.AddAt(stripe, kReasonBase + static_cast<size_t>(reason), 1,
                    std::memory_order_release);
  }

  // Thread-local accumulator for batched recording
  // (ReferenceMonitor::CheckBatch): the batch tallies its decisions here, then
  // flushes once with RecordBatch — one stripe lookup and one release
  // store per reason per batch instead of one per decision.
  struct BatchCounts {
    uint32_t by_mode[kAccessModeCount] = {};
    uint32_t by_reason[kDenyReasonCount] = {};
    uint32_t total = 0;

    void Add(AccessModeSet modes, DenyReason reason) {
      uint32_t bits = modes.bits();
      while (bits != 0) {
        ++by_mode[static_cast<unsigned>(__builtin_ctz(bits))];
        bits &= bits - 1;
      }
      ++by_reason[static_cast<size_t>(reason)];
      ++total;
    }
  };

  // Flushes a batch accumulator in one pass. Ordering mirrors
  // RecordDecision extended to counts > 1: all mode adds land relaxed
  // first, then the reason adds with release, so a snapshot reader that
  // observes the batch's reasons (acquire) also observes its modes and the
  // sum(by_mode) >= checks_total invariant survives mid-batch reads.
  void RecordBatch(const BatchCounts& counts) {
    if (counts.total == 0) {
      return;
    }
    size_t stripe = ThreadStripe();
    for (size_t m = 0; m < kAccessModeCount; ++m) {
      if (counts.by_mode[m] != 0) {
        counters_.AddAt(stripe, kModeBase + m, counts.by_mode[m]);
      }
    }
    for (size_t r = 0; r < kDenyReasonCount; ++r) {
      if (counts.by_reason[r] != 0) {
        counters_.AddAt(stripe, kReasonBase + r, counts.by_reason[r], std::memory_order_release);
      }
    }
  }

  // True once per kSampleEvery calls on this thread *for this instance*; the
  // caller then times the check and reports it via RecordLatencyNs. The
  // clock is this instance's counter in the thread's slot: a process-wide
  // thread_local clock would be shared by all live instances (e.g. the
  // kernel's monitor plus a test's), halving each one's effective sample
  // rate and phase-correlating which instance gets timed.
  bool ShouldSampleLatency() {
    size_t stripe = ThreadStripe();
    uint64_t tick = counters_.Local(stripe, kSampleClock);
    counters_.AddAt(stripe, kSampleClock, 1);
    return (tick & (kSampleEvery - 1)) == 0;
  }

  void RecordLatencyNs(uint64_t ns);

  // -- Reading (any thread; aggregates over the slots) -------------------------
  // Each getter is individually torn-Reset-safe (it retries on a concurrent
  // Reset generation change), but two getter calls are still not mutually
  // consistent; TakeSnapshot is the sanctioned multi-counter view.

  uint64_t checks_total() const;
  uint64_t allowed_total() const { return by_reason(DenyReason::kNone); }
  uint64_t denied_total() const;
  uint64_t by_reason(DenyReason reason) const;
  uint64_t by_mode(AccessMode mode) const;
  uint64_t latency_samples() const;
  uint64_t latency_bucket(size_t i) const;

  // Approximate quantile (q in [0,1]) of the sampled check latency, in ns:
  // the upper bound of the histogram bucket containing the q-th sample.
  // 0 if nothing has been sampled yet.
  uint64_t LatencyQuantileNs(double q) const;

  // One mutually consistent rendering of every counter. Invariants that hold
  // on any snapshot, even one taken under concurrent recording:
  //   allowed + denied == checks_total           (derived from one pass)
  //   sum(by_reason)   == checks_total
  //   sum(by_mode)     >= checks_total           (for >= 1 mode per decision)
  //   sum(latency_buckets) >= latency_samples
  // `version` is left 0 here; the publisher (StatsService) stamps it.
  struct Snapshot {
    uint64_t version = 0;
    uint64_t reset_epoch = 0;  // completed Reset() calls at capture time
    uint64_t checks_total = 0;
    uint64_t allowed = 0;
    uint64_t denied = 0;
    uint64_t by_reason[kDenyReasonCount] = {};
    uint64_t by_mode[kAccessModeCount] = {};
    uint64_t latency_samples = 0;
    uint64_t latency_buckets[kLatencyBuckets] = {};

    uint64_t ModeTotal() const;
    uint64_t LatencyBucketTotal() const;
    uint64_t LatencyQuantileNs(double q) const;
    // Counter equality, ignoring `version` (change detection for publishers).
    bool SameCounters(const Snapshot& other) const;
  };
  Snapshot TakeSnapshot() const;

  // Zeroes every counter by moving the baselines (StripedCounters::Reset).
  // Safe against concurrent readers: the reset generation goes odd for the
  // duration, and readers retry until it is even and unchanged across their
  // pass, so a pass never mixes old and new baselines. Concurrent
  // *recording* is tolerated but not synchronized — a decision in flight
  // during the reset may land its mode bump before the reset and its reason
  // bump after it (documented in docs/MODEL.md §11).
  void Reset();

 private:
  // Indices into counters_. Within a stripe, each record's publishing
  // counter (reason, sample count) comes after the counters it publishes
  // (modes, bucket), and Reset reads a stripe in index order: a record can
  // then count its reason after the reset but its modes before it only if
  // it was in flight across that stripe's whole read, which bounds how far
  // below the `>=` invariants a post-reset total can fall.
  static constexpr size_t kModeBase = 0;
  static constexpr size_t kReasonBase = kModeBase + kAccessModeCount;
  static constexpr size_t kBucketBase = kReasonBase + kDenyReasonCount;
  static constexpr size_t kSamples = kBucketBase + kLatencyBuckets;
  static constexpr size_t kSampleClock = kSamples + 1;  // not read as a total
  static constexpr size_t kCounterCount = kSampleClock + 1;

  uint64_t SumRange(size_t first, size_t count) const {
    uint64_t total = 0;
    for (size_t i = first; i < first + count; ++i) {
      total += counters_.Sum(i);
    }
    return total;
  }

  // Runs `read` under the reset-generation seqlock: retries while a Reset is
  // in flight or completed mid-read, so the pass never observes half-moved
  // baselines. After kOptimisticReads lost passes it reads under reset_mu_
  // instead, which no Reset can interleave, so a reader finishes in bounded
  // time even against back-to-back Resets. `generation_out` (optional)
  // receives the even generation the pass ran under.
  template <typename Fn>
  uint64_t ReadStable(Fn&& read, uint64_t* generation_out = nullptr) const;
  static constexpr int kOptimisticReads = 4;

  // Even = stable; odd = a Reset is moving the baselines. Readers retry
  // until they complete a pass under one unchanged even generation.
  std::atomic<uint64_t> reset_generation_{0};
  // Serializes Reset() against itself, and against a reader's locked pass.
  mutable std::mutex reset_mu_;
  // Readers queued for reset_mu_; Reset() lets them in first.
  mutable std::atomic<int> readers_waiting_{0};
  StripedCounters<kCounterCount> counters_;
};

// Nanoseconds from the steady clock, for latency sampling and deadlines.
uint64_t MonotonicNowNs();

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_MONITOR_STATS_H_
