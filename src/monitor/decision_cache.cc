#include "src/monitor/decision_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace xsec {

namespace {

// Slot::meta layout. The key part (occupied bit, modes, level) is compared
// on every probe; the domain is part of the stamps; the decision is the
// payload.
constexpr uint64_t kOccupied = uint64_t{1} << 63;
constexpr unsigned kLevelShift = 16;
constexpr unsigned kDomainShift = 32;
constexpr unsigned kReasonShift = 40;
constexpr uint64_t kAllowedBit = uint64_t{1} << 48;
constexpr uint64_t kKeyMask = kOccupied | 0xffffffffull;
constexpr uint64_t kDomainMask = 0xffull << kDomainShift;

static_assert(kAccessModeCount <= 16, "mode bits must fit meta bits 0..15");
static_assert(sizeof(TrustLevel) <= 2, "level must fit meta bits 16..31");
static_assert(kUnknownShard < 256, "validity domains must fit meta bits 32..39");
static_assert(sizeof(PrincipalId::value) == 4 && sizeof(NodeId::value) == 4,
              "principal and node ids are packed into one 64-bit word");

uint64_t KeyMeta(const Subject& subject, AccessModeSet modes) {
  return kOccupied | (uint64_t{subject.security_class.level()} << kLevelShift) | modes.bits();
}

uint64_t KeyIds(const Subject& subject, NodeId node) {
  return (uint64_t{subject.principal.value} << 32) | node.value;
}

// StampWord() lists CacheStamps' fields by hand: kStampWords stamps plus the
// domain (kept in meta). A field added to CacheStamps must be added here and
// to the slot, or cached decisions would outlive a move of that stamp; the
// member count pins it (an aggregate initializer with one more member than
// the struct has does not compile).
template <typename T>
concept HasStampFields = requires { T{{}, {}, {}, {}, {}, {}}; };
template <typename T>
concept HasExtraStampField = requires { T{{}, {}, {}, {}, {}, {}, {}}; };
static_assert(HasStampFields<CacheStamps> && !HasExtraStampField<CacheStamps>,
              "CacheStamps changed: update StampWord, kStampWords and KeyMeta");

uint64_t StampWord(const CacheStamps& stamps, size_t i) {
  switch (i) {
    case 0:
      return stamps.namespace_generation;
    case 1:
      return stamps.acl_generation;
    case 2:
      return stamps.membership_epoch;
    case 3:
      return stamps.label_epoch;
    default:
      return stamps.policy_epoch;
  }
}

}  // namespace

DecisionCache::DecisionCache(size_t slot_count_pow2) {
  assert(slot_count_pow2 > 0 && std::has_single_bit(slot_count_pow2));
  shard_count_ = std::min(kMaxShards, slot_count_pow2);
  shard_mask_ = shard_count_ - 1;
  shard_bits_ = static_cast<unsigned>(std::countr_zero(shard_count_));
  slots_per_shard_ = slot_count_pow2 / shard_count_;
  slot_mask_ = slots_per_shard_ - 1;
  slots_ = std::make_unique<Slot[]>(slot_count_pow2);
  shard_locks_ = std::make_unique<ShardLock[]>(shard_count_);
}

uint64_t DecisionCache::KeyHash(const Subject& subject, NodeId node, AccessModeSet modes) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(subject.principal.value);
  mix(node.value);
  mix(modes.bits());
  mix(subject.security_class.Hash());
  return h;
}

// Seqlock ordering without standalone fences (which ThreadSanitizer does
// not model): writers store every field with release, so the odd sequence
// store is ordered before each of them; readers load every field with
// acquire, so a reader that sees any field value from a write in progress
// also sees that write's odd sequence on its second load. On x86 both are
// plain moves.
void DecisionCache::BeginWrite(Slot& slot) {
  slot.seq.store(slot.seq.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void DecisionCache::EndWrite(Slot& slot) {
  slot.seq.store(slot.seq.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

bool DecisionCache::Lookup(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision* out) {
  if (!Cacheable(subject)) {
    counters_.Add(kMisses);
    return false;
  }
  uint64_t hash = KeyHash(subject, node, modes);
  Slot& slot = SlotFor(hash);
  uint64_t seq = slot.seq.load(std::memory_order_acquire);
  // A mismatch needs no validation: whatever the reader saw, a miss is
  // sound. Only a match is re-checked against the sequence below.
  bool match = (seq & 1) == 0 &&
               slot.ids.load(std::memory_order_acquire) == KeyIds(subject, node);
  uint64_t meta = slot.meta.load(std::memory_order_acquire);
  match = match && (meta & kKeyMask) == KeyMeta(subject, modes);
  const CategorySet& categories = subject.security_class.categories();
  for (size_t i = 0; match && i < kInlineCategoryWords; ++i) {
    match = slot.categories[i].load(std::memory_order_acquire) == categories.word(i);
  }
  if (!match) {
    counters_.Add(kMisses);
    return false;
  }
  bool fresh = ((meta & kDomainMask) >> kDomainShift) == current.domain;
  for (size_t i = 0; fresh && i < kStampWords; ++i) {
    fresh = slot.stamps[i].load(std::memory_order_acquire) == StampWord(current, i);
  }
  if (slot.seq.load(std::memory_order_relaxed) != seq) {
    counters_.Add(kMisses);  // a writer replaced the slot mid-read
    return false;
  }
  if (!fresh) {
    // A stale probe is both a miss (the caller must re-evaluate) and a
    // stale_hit (the sub-counter F8 plots); see the header invariant. The
    // slot is vacated only if nothing rewrote it since it was read.
    counters_.Add(kStaleHits);
    counters_.Add(kMisses);
    std::lock_guard<std::mutex> lock(LockFor(hash));
    if (slot.seq.load(std::memory_order_relaxed) == seq) {
      BeginWrite(slot);
      slot.meta.store(0, std::memory_order_release);
      EndWrite(slot);
    }
    return false;
  }
  counters_.Add(kHits);
  out->allowed = (meta & kAllowedBit) != 0;
  out->reason = static_cast<DenyReason>((meta >> kReasonShift) & 0xff);
  return true;
}

void DecisionCache::Insert(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision decision) {
  Insert(subject, node, modes, current, decision, clear_epoch());
}

void DecisionCache::Insert(const Subject& subject, NodeId node, AccessModeSet modes,
                           const CacheStamps& current, CachedDecision decision,
                           uint64_t observed_clear_epoch) {
  if (!Cacheable(subject)) {
    return;
  }
  uint64_t hash = KeyHash(subject, node, modes);
  std::lock_guard<std::mutex> lock(LockFor(hash));
  // Clear() bumps the epoch before it wipes any shard, and the wipe takes
  // this same shard mutex. Holding the mutex, either the wipe has not
  // happened yet (our entry will be wiped with the rest) or it has, in which
  // case the pre-wipe epoch bump is visible here and we refuse — so a
  // decision evaluated against pre-clear stamps can never outlive the clear.
  // Relaxed suffices: the mutex orders us against the wipe, and the bump is
  // sequenced before the wipe in Clear().
  if (observed_clear_epoch != clear_epoch_.load(std::memory_order_relaxed)) {
    return;
  }
  Slot& slot = SlotFor(hash);
  BeginWrite(slot);
  slot.ids.store(KeyIds(subject, node), std::memory_order_release);
  uint64_t meta = KeyMeta(subject, modes) | (uint64_t{current.domain} << kDomainShift) |
                  (uint64_t{static_cast<uint8_t>(decision.reason)} << kReasonShift) |
                  (decision.allowed ? kAllowedBit : 0);
  slot.meta.store(meta, std::memory_order_release);
  const CategorySet& categories = subject.security_class.categories();
  for (size_t i = 0; i < kInlineCategoryWords; ++i) {
    slot.categories[i].store(categories.word(i), std::memory_order_release);
  }
  for (size_t i = 0; i < kStampWords; ++i) {
    slot.stamps[i].store(StampWord(current, i), std::memory_order_release);
  }
  EndWrite(slot);
}

void DecisionCache::Clear() {
  // Epoch first, wipe second — the order the epoch-carrying Insert relies on.
  clear_epoch_.fetch_add(1, std::memory_order_release);
  for (size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shard_locks_[s].mu);
    for (size_t i = s * slots_per_shard_; i < (s + 1) * slots_per_shard_; ++i) {
      Slot& slot = slots_[i];
      // Writers of this shard hold the lock we hold, so this read is exact.
      if (slot.meta.load(std::memory_order_relaxed) & kOccupied) {
        BeginWrite(slot);
        slot.meta.store(0, std::memory_order_release);
        EndWrite(slot);
      }
    }
  }
}

}  // namespace xsec
