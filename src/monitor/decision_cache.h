// A decision cache for the reference monitor.
//
// Keyed by (principal, node, requested modes, subject class); an entry also
// snapshots the validity stamps — name-space generation, ACL-store
// generation, membership epoch, label epoch — plus the *domain* the stamps
// were read from. In the legacy aggregate domain any policy-relevant
// mutation anywhere bumps one of the stamps and thereby invalidates every
// cached decision — coarse, but sound, and the common workload (many checks
// between rare policy changes) is exactly what experiment F8 measures. With
// sharded stamps (docs/MODEL.md §15) the monitor reads the target node's
// shard-local stamp set instead, so a mutation confined to one subtree
// leaves other shards' entries valid; the domain field keeps the two regimes
// from ever validating against each other's numerically equal stamps.
//
// The table is direct-mapped (power-of-two slots, overwrite on collision).
// Slots store the *full* key — principal and node ids, the mode bits, the
// subject's level and its category words, not just a hash — so a hash
// collision can never return another subject's cached decision (slot
// matching by hash alone was a soundness bug; see
// DecisionCacheTest.HashCollidingClassesDoNotAlias). The category words are
// stored inline, kInlineCategoryWords of them; a subject whose category set
// needs more significant words bypasses the cache entirely (every probe is a
// miss, every insert is dropped) and is decided by the compiled or
// interpreted tier, so full-key equality holds without a heap-backed key.
//
// Lookups take no lock and write nothing shared. Each slot carries a
// sequence word (a seqlock): writers make it odd, store the key, stamps and
// decision as atomic words (release), and make it even again; a reader
// loads the sequence, the words (acquire), and the sequence again, and
// trusts what it read only if the two sequence loads are equal and even. A
// torn or in-progress slot reads as a miss, which is always sound. Writers
// — Insert, Clear, and the vacate step of a stale probe — serialize on the
// mutex of the slot's shard (the key hash selects the shard; each shard
// owns a disjoint stripe of slots). The hit/miss/stale counters are striped per thread
// (src/base/thread_stripe.h), so a cache hit touches no cache line another
// thread writes.
//
// Counter invariant: every Lookup() counts exactly one of {hit, miss}. A
// probe that finds a matching key with stale stamps counts as a miss AND as
// a stale_hit, so hits + misses == total probes and stale_hits <= misses.

#ifndef XSEC_SRC_MONITOR_DECISION_CACHE_H_
#define XSEC_SRC_MONITOR_DECISION_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/base/shard.h"
#include "src/base/thread_stripe.h"
#include "src/dac/access_mode.h"
#include "src/mac/security_class.h"
#include "src/monitor/audit.h"
#include "src/monitor/subject.h"
#include "src/naming/namespace.h"

namespace xsec {

struct CacheStamps {
  uint64_t namespace_generation = 0;
  uint64_t acl_generation = 0;
  uint64_t membership_epoch = 0;
  uint64_t label_epoch = 0;
  // The monitor's policy-reload epoch (ReferenceMonitor::NotePolicyReload):
  // bumped on every LoadPolicy/LoadPolicyFile swap, so decisions cached
  // against the pre-reload policy can never survive a reload even when no
  // individual store stamp moved (a reload whose only effect is a directive
  // the four store generations do not cover, e.g. a security-officer change).
  // The compiled-policy tables validate against the same stamp set.
  uint64_t policy_epoch = 0;

  // Validity domain the stamps were read from: a concrete monitor shard, or
  // kAggregateShard for the legacy global stamps (also used for unknown node
  // ids). Part of the key equality: a decision cached under one domain must
  // never be revalidated by a *coincidentally equal* stamp vector from
  // another — shard-local and aggregate counters advance independently, so
  // value equality across domains is meaningless.
  ShardId domain = kAggregateShard;

  bool operator==(const CacheStamps&) const = default;
};

// The whole family of stamp vectors at one instant: the aggregate (legacy
// global) domain plus every shard-local domain. Compiled tables carry one of
// these so a probe validates only the *target node's* shard entry — a
// mutation confined to another shard leaves this shard's compiled decisions
// consultable (docs/MODEL.md §15).
struct ShardStampSet {
  CacheStamps aggregate;
  std::array<CacheStamps, kMonitorShardCount> shard{};

  const CacheStamps& ForDomain(ShardId s) const {
    return IsConcreteShard(s) ? shard[s] : aggregate;
  }

  bool operator==(const ShardStampSet&) const = default;
};

class DecisionCache {
 public:
  explicit DecisionCache(size_t slot_count_pow2 = 8192);

  struct CachedDecision {
    bool allowed = false;
    DenyReason reason = DenyReason::kNone;
  };

  // Category words a slot stores inline (256 categories). Subjects with a
  // wider category set are never cached.
  static constexpr size_t kInlineCategoryWords = 4;

  // Probes the cache; returns true and fills `out` on a valid hit. Lock-free
  // unless the probe finds its key with stale stamps, in which case it
  // vacates the slot under the shard lock.
  bool Lookup(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision* out);

  void Insert(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision decision);

  // Insert that cannot survive a Clear() issued after the caller captured
  // its stamps: `observed_clear_epoch` must be read (clear_epoch()) at the
  // same point the stamps are, *before* evaluating. Clear() bumps the epoch
  // before wiping slots, so an insert that raced a clear either lands before
  // the wipe (and is wiped) or observes the bumped epoch and refuses —
  // either way no pre-clear decision re-enters the cache. The ReferenceMonitor
  // check paths (including CheckBatch, which reads stamps once per batch)
  // use this form; see ShardClearRaceTest.
  void Insert(const Subject& subject, NodeId node, AccessModeSet modes,
              const CacheStamps& current, CachedDecision decision,
              uint64_t observed_clear_epoch);

  void Clear();

  // Completed-Clear counter; see the epoch-carrying Insert overload.
  uint64_t clear_epoch() const { return clear_epoch_.load(std::memory_order_acquire); }

  // Per-thread striped counters, summed here.
  uint64_t hits() const { return counters_.Sum(kHits); }
  uint64_t misses() const { return counters_.Sum(kMisses); }
  uint64_t stale_hits() const { return counters_.Sum(kStaleHits); }
  size_t slot_count() const { return shard_count_ * slots_per_shard_; }
  size_t shard_count() const { return shard_count_; }

 private:
  static constexpr size_t kStampWords = 5;

  // Every field is an atomic word so the lock-free reader never races a
  // writer in the language sense; `seq` makes the words mutually consistent.
  struct Slot {
    std::atomic<uint64_t> seq{0};   // odd while a writer is mid-update
    std::atomic<uint64_t> ids{0};   // principal << 32 | node
    std::atomic<uint64_t> meta{0};  // occupied, mode bits, level, domain, decision
    std::atomic<uint64_t> categories[kInlineCategoryWords] = {};
    // namespace, ACL, membership, label, policy stamps (CacheStamps order).
    std::atomic<uint64_t> stamps[kStampWords] = {};
  };

  struct alignas(64) ShardLock {
    std::mutex mu;
  };

  enum Counter : size_t { kHits, kMisses, kStaleHits, kCounterCount };

  static uint64_t KeyHash(const Subject& subject, NodeId node, AccessModeSet modes);
  // True iff the subject's category set fits the inline key words.
  static bool Cacheable(const Subject& subject) {
    return subject.security_class.categories().SignificantWords() <= kInlineCategoryWords;
  }
  // The slot a key maps to, and the shard whose lock guards it.
  Slot& SlotFor(uint64_t hash) {
    return slots_[(hash & shard_mask_) * slots_per_shard_ + ((hash >> shard_bits_) & slot_mask_)];
  }
  std::mutex& LockFor(uint64_t hash) { return shard_locks_[hash & shard_mask_].mu; }
  // Writer side of the seqlock; the caller holds the slot's shard lock.
  static void BeginWrite(Slot& slot);
  static void EndWrite(Slot& slot);

  static constexpr size_t kMaxShards = 64;

  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<ShardLock[]> shard_locks_;
  StripedCounters<kCounterCount> counters_;
  std::atomic<uint64_t> clear_epoch_{0};
  size_t shard_count_ = 1;
  size_t shard_mask_ = 0;
  unsigned shard_bits_ = 0;
  size_t slots_per_shard_ = 1;
  size_t slot_mask_ = 0;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_DECISION_CACHE_H_
