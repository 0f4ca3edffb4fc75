// Per-thread striping for hot-path counters.
//
// A counter that every checking thread bumps with fetch_add puts a locked
// read-modify-write on one shared cache line per event, and the line
// ping-pongs between cores: throughput falls as threads are added. Striping
// gives each thread a private copy instead. Every live thread holds one
// stripe index in [0, kThreadStripes) for its whole life; an object that
// wants striped state keeps kThreadStripes + 1 cache-line-aligned slots and
// indexes them with ThreadStripe(). A slot below kThreadStripes has exactly
// one writer, which bumps it with a plain relaxed load+store. Threads beyond
// the pool share the last slot (kOverflowStripe) and must use fetch_add
// there, so totals stay exact at any thread count. Readers sum the slots
// with relaxed loads.
//
// Indices are process-wide and recycled: a thread returns its index when it
// exits, and the next thread to claim it continues the same slots (the
// hand-off goes through a mutex, so the old writer's stores happen-before
// the new writer's). Short-lived threads therefore never exhaust the pool;
// only more than kThreadStripes *simultaneously live* threads reach the
// overflow slot.
//
// StripedCounters below is the one implementation of the scheme; every
// striped counter (MonitorStats' counters and latency histogram, the decision
// cache, the audit log, the monitor's shard and compiled-tier counters) is a
// StripedCounters.

#ifndef XSEC_SRC_BASE_THREAD_STRIPE_H_
#define XSEC_SRC_BASE_THREAD_STRIPE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace xsec {

// Threads with a private stripe; the rest share kOverflowStripe.
inline constexpr size_t kThreadStripes = 32;
inline constexpr size_t kOverflowStripe = kThreadStripes;

namespace stripe_internal {
inline constexpr uint32_t kUnclaimed = ~uint32_t{0};
// Constant-initialized and trivially destructible, so reading it is one
// thread-pointer-relative load with no guard.
inline thread_local uint32_t t_stripe = kUnclaimed;
// Claims an index for the calling thread (and arranges its release at
// thread exit). Out of line: runs once per thread.
size_t ClaimThreadStripe();
}  // namespace stripe_internal

// The calling thread's stripe index, in [0, kOverflowStripe].
inline size_t ThreadStripe() {
  uint32_t s = stripe_internal::t_stripe;
  return s != stripe_internal::kUnclaimed ? s : stripe_internal::ClaimThreadStripe();
}

// N monotone counters, striped per thread. Add() writes only the calling
// thread's slot; Sum() aggregates. Reset() does not write the slots (a
// concurrent single-writer bump would undo a zeroing store): it records the
// current sums as a baseline that later reads subtract.
template <size_t N>
class StripedCounters {
 public:
  StripedCounters() = default;
  StripedCounters(const StripedCounters&) = delete;
  StripedCounters& operator=(const StripedCounters&) = delete;

  void Add(size_t i, uint64_t n = 1) { AddAt(ThreadStripe(), i, n); }

  // Add() for a caller that already holds its ThreadStripe() (several bumps
  // per event): a plain load+store for a private stripe (single writer),
  // fetch_add for the shared overflow stripe. `order` is the store's
  // ordering (release when the bump completes a record that readers
  // acquire).
  void AddAt(size_t stripe, size_t i, uint64_t n,
             std::memory_order order = std::memory_order_relaxed) {
    std::atomic<uint64_t>& counter = slots_[stripe].c[i];
    if (stripe == kOverflowStripe) {
      counter.fetch_add(n, order);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + n, order);
    }
  }

  // Stripe `stripe`'s own running count of counter i. Reset() does not move
  // it, so it can drive per-thread clocks.
  uint64_t Local(size_t stripe, size_t i) const {
    return slots_[stripe].c[i].load(std::memory_order_relaxed);
  }

  // `order` applies to the slot loads (acquire to pair with AddAt's release).
  uint64_t Sum(size_t i, std::memory_order order = std::memory_order_relaxed) const {
    // Acquire pairs with Reset's release: the slot reads below then see at
    // least the values the baseline was taken from, so the difference never
    // goes negative.
    uint64_t base = base_[i].load(std::memory_order_acquire);
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.c[i].load(order);
    }
    return total - base;
  }

  // Zeroes every counter as seen by Sum(). A bump racing the reset lands on
  // either side of it, as with a zeroing store of a single atomic. Slots are
  // read one at a time, counters in index order, so two counters of one
  // stripe are read nanoseconds apart: a record that bumps a lower index
  // before a higher one is split across the reset only if it is in flight
  // right then. The baselines are stored one by one; a caller that needs
  // them to change together (several counters read as one view) brackets
  // Reset() and its reads with its own generation stamp.
  void Reset() {
    uint64_t totals[N] = {};
    for (const Slot& slot : slots_) {
      for (size_t i = 0; i < N; ++i) {
        totals[i] += slot.c[i].load(std::memory_order_relaxed);
      }
    }
    for (size_t i = 0; i < N; ++i) {
      base_[i].store(totals[i], std::memory_order_release);
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> c[N] = {};
  };
  Slot slots_[kThreadStripes + 1];
  std::atomic<uint64_t> base_[N] = {};
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_THREAD_STRIPE_H_
