#include "src/monitor/monitor_stats.h"

#include <chrono>
#include <thread>

namespace xsec {

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void MonitorStats::RecordLatencyNs(uint64_t ns) {
  size_t stripe = ThreadStripe();
  counters_.AddAt(stripe, kBucketBase + LatencyBucketIndex(ns), 1);
  // The sample count completes the record (release): a reader that sees it
  // (acquire) also sees the bucket bump, so sum(buckets) >= samples.
  counters_.AddAt(stripe, kSamples, 1, std::memory_order_release);
}

template <typename Fn>
uint64_t MonitorStats::ReadStable(Fn&& read, uint64_t* generation_out) const {
  for (int attempt = 0; attempt < kOptimisticReads; ++attempt) {
    uint64_t before = reset_generation_.load(std::memory_order_acquire);
    if ((before & 1) != 0) {
      std::this_thread::yield();  // a Reset is moving the baselines
      continue;
    }
    uint64_t value = read();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (reset_generation_.load(std::memory_order_relaxed) == before) {
      if (generation_out != nullptr) {
        *generation_out = before;
      }
      return value;
    }
  }
  // Every Reset holds reset_mu_ while the generation is odd, so under it the
  // generation is even and stays unchanged for the whole pass. Resets wait
  // for waiting readers before they take the (unfair) mutex, so a reader
  // gets it after at most the Reset in progress.
  readers_waiting_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(reset_mu_);
  readers_waiting_.fetch_sub(1, std::memory_order_release);
  uint64_t generation = reset_generation_.load(std::memory_order_acquire);
  uint64_t value = read();
  if (generation_out != nullptr) {
    *generation_out = generation;
  }
  return value;
}

uint64_t MonitorStats::checks_total() const {
  // Every decision lands in exactly one reason bucket (kNone = allowed), so
  // the total is the sum over reasons — no separate hot-path counter needed.
  return ReadStable([this] { return SumRange(kReasonBase, kDenyReasonCount); });
}

uint64_t MonitorStats::denied_total() const {
  // Skip kNone (allowed), reason index 0.
  return ReadStable([this] { return SumRange(kReasonBase + 1, kDenyReasonCount - 1); });
}

uint64_t MonitorStats::by_reason(DenyReason reason) const {
  size_t i = kReasonBase + static_cast<size_t>(reason);
  return ReadStable([this, i] { return counters_.Sum(i); });
}

uint64_t MonitorStats::by_mode(AccessMode mode) const {
  size_t i = kModeBase + static_cast<unsigned>(__builtin_ctz(static_cast<uint32_t>(mode)));
  return ReadStable([this, i] { return counters_.Sum(i); });
}

uint64_t MonitorStats::latency_samples() const {
  return ReadStable([this] { return counters_.Sum(kSamples); });
}

uint64_t MonitorStats::latency_bucket(size_t i) const {
  return ReadStable([this, i] { return counters_.Sum(kBucketBase + i); });
}

uint64_t MonitorStats::LatencyQuantileNs(double q) const {
  return TakeSnapshot().LatencyQuantileNs(q);
}

uint64_t MonitorStats::Snapshot::ModeTotal() const {
  uint64_t total = 0;
  for (uint64_t m : by_mode) {
    total += m;
  }
  return total;
}

uint64_t MonitorStats::Snapshot::LatencyBucketTotal() const {
  uint64_t total = 0;
  for (uint64_t b : latency_buckets) {
    total += b;
  }
  return total;
}

uint64_t MonitorStats::Snapshot::LatencyQuantileNs(double q) const {
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t total = LatencyBucketTotal();
  if (total == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    seen += latency_buckets[i];
    if (seen > rank) {
      return LatencyBucketUpperBoundNs(i);
    }
  }
  return LatencyBucketUpperBoundNs(kLatencyBuckets - 1);
}

bool MonitorStats::Snapshot::SameCounters(const Snapshot& other) const {
  if (reset_epoch != other.reset_epoch || checks_total != other.checks_total ||
      allowed != other.allowed || denied != other.denied ||
      latency_samples != other.latency_samples) {
    return false;
  }
  for (size_t i = 0; i < kDenyReasonCount; ++i) {
    if (by_reason[i] != other.by_reason[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < static_cast<size_t>(kAccessModeCount); ++i) {
    if (by_mode[i] != other.by_mode[i]) {
      return false;
    }
  }
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    if (latency_buckets[i] != other.latency_buckets[i]) {
      return false;
    }
  }
  return true;
}

MonitorStats::Snapshot MonitorStats::TakeSnapshot() const {
  Snapshot snap;
  uint64_t generation = 0;
  ReadStable(
      [this, &snap] {
        // Pass 1 — the record-completing counters, with acquire loads: a
        // decision whose reason (or a latency record whose sample count) is
        // visible here release-published its earlier mode/bucket bumps, so
        // pass 2 is guaranteed to see them.
        for (size_t r = 0; r < kDenyReasonCount; ++r) {
          snap.by_reason[r] = counters_.Sum(kReasonBase + r, std::memory_order_acquire);
        }
        snap.latency_samples = counters_.Sum(kSamples, std::memory_order_acquire);
        // Pass 2 — the counters those completions published.
        for (size_t m = 0; m < static_cast<size_t>(kAccessModeCount); ++m) {
          snap.by_mode[m] = counters_.Sum(kModeBase + m);
        }
        for (size_t b = 0; b < kLatencyBuckets; ++b) {
          snap.latency_buckets[b] = counters_.Sum(kBucketBase + b);
        }
        return uint64_t{0};
      },
      &generation);
  snap.reset_epoch = generation >> 1;
  snap.allowed = snap.by_reason[static_cast<size_t>(DenyReason::kNone)];
  for (size_t r = 1; r < kDenyReasonCount; ++r) {
    snap.denied += snap.by_reason[r];
  }
  // Derived from the same single pass, so this identity holds by
  // construction on every snapshot.
  snap.checks_total = snap.allowed + snap.denied;
  return snap;
}

void MonitorStats::Reset() {
  // Serialized against other Resets so the generation protocol below is the
  // only writer interleaving readers can observe (two overlapped Resets
  // could otherwise present an even generation mid-update).
  while (readers_waiting_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> lock(reset_mu_);
  reset_generation_.fetch_add(1, std::memory_order_acq_rel);  // -> odd
  counters_.Reset();
  reset_generation_.fetch_add(1, std::memory_order_release);  // -> even
}

}  // namespace xsec
