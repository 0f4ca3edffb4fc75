// Fully featured access control lists (paper §2.1): "several entries
// specifying positive — i.e., who is allowed to access an object — and
// negative access — i.e., who is not allowed to access an object — for both
// individuals and groups."
//
// Evaluation semantics (deny-overrides, order-independent):
//   a requested mode m is granted to a subject S iff
//     (1) some ALLOW entry whose principal is in S's membership closure
//         includes m, and
//     (2) no DENY entry whose principal is in S's membership closure
//         includes m.
//   A request for a mode *set* is granted iff every mode in it is granted.
//
// Deny-overrides makes the result independent of entry order, which the
// property tests verify; it matches the paper's intent that a negative entry
// carves an individual out of a group grant.

#ifndef XSEC_SRC_DAC_ACL_H_
#define XSEC_SRC_DAC_ACL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/bitset.h"
#include "src/base/shard.h"
#include "src/base/status.h"
#include "src/dac/access_mode.h"
#include "src/principal/principal.h"

namespace xsec {

enum class AclEntryType : uint8_t {
  kAllow = 0,
  kDeny = 1,
};

struct AclEntry {
  AclEntryType type = AclEntryType::kAllow;
  PrincipalId who;       // a user or a group
  AccessModeSet modes;

  friend bool operator==(const AclEntry& a, const AclEntry& b) {
    return a.type == b.type && a.who == b.who && a.modes == b.modes;
  }
};

// The outcome of evaluating one mode set against one ACL; the reason feeds
// audit records.
enum class AclVerdict : uint8_t {
  kGranted = 0,
  kDeniedByEntry,    // an explicit negative entry matched
  kNoMatchingGrant,  // no allow entry covered some requested mode
};

// Entry storage is copy-on-write: an Acl holds a shared immutable entry
// list, so copying an Acl — and interning identical ACLs across a
// million-node policy (AclStore) — costs one refcount, not a vector clone.
// Mutators clone the list first if it is shared.
class Acl {
 public:
  using EntryList = std::vector<AclEntry>;

  Acl() = default;
  explicit Acl(std::shared_ptr<const EntryList> entries) : entries_(std::move(entries)) {}

  // Appends an entry. Duplicate (type, who) pairs are merged by OR-ing modes.
  void AddEntry(const AclEntry& entry);

  // Removes all entries for a principal (both polarities). Returns how many
  // entries were removed.
  size_t RemoveEntriesFor(PrincipalId who);

  const EntryList& entries() const {
    static const EntryList kEmpty;
    return entries_ != nullptr ? *entries_ : kEmpty;
  }
  bool empty() const { return entries_ == nullptr || entries_->empty(); }

  // The shared immutable entry list (null when empty); AclStore's intern
  // pool aliases it across identical ACLs.
  const std::shared_ptr<const EntryList>& shared_entries() const { return entries_; }

  // Core evaluation. `closure` is the subject's membership closure (bitset
  // over principal ids; see PrincipalRegistry::MembershipClosure).
  AclVerdict Evaluate(const DynamicBitset& closure, AccessModeSet requested) const;

  // The full set of modes the subject holds under this ACL.
  AccessModeSet EffectiveModes(const DynamicBitset& closure) const;

  // "allow alice read|write; deny interns write" (names resolved by caller).
  std::string ToString() const;

 private:
  // Clone-if-shared; afterwards entries_ is non-null and uniquely owned.
  EntryList* MutableEntries();

  std::shared_ptr<const EntryList> entries_;
};

// Storage for ACLs referenced from name-space nodes. Each stored ACL carries
// a generation stamp; any mutation bumps both the ACL's and the store's
// generation, which invalidates cached decisions.
//
// Thread safety: all methods may be called concurrently; mutators take the
// store lock exclusively. The monitor's check path evaluates in place under
// the shared lock (Evaluate) rather than holding Get()'s pointer across the
// lock release. Get() returns a pointer with a stable address (deque
// storage), but the Acl it points at may be concurrently replaced or edited;
// it is intended for single-threaded setup, tests, and serialization.
// Sharding (docs/MODEL.md §15): each slot carries a monitor-shard tag. A
// slot starts kUnknownShard; the reference monitor calls AttachShard when it
// binds the ref to a node, narrowing the tag to that node's shard. Mutating
// a concretely tagged slot bumps only that shard's generation; unknown-,
// all-shards-, or multiply-attached slots conservatively bump every shard.
// Creating a slot bumps no per-shard generation at all — an unreferenced ref
// cannot be behind any cached decision. The store generation (aggregate
// domain) is still bumped by every create/mutate.
class AclStore {
 public:
  using AclRef = uint32_t;

  // Creates a new ACL, returning its reference. Identical entry lists are
  // interned per shard: the new slot aliases the existing immutable list.
  AclRef Create(Acl acl);
  AclRef Create(Acl acl, ShardId shard);

  // Narrows (or escalates) the slot's shard tag; see class comment.
  void AttachShard(AclRef ref, ShardId shard);
  ShardId ShardOf(AclRef ref) const;

  const Acl* Get(AclRef ref) const;

  // Evaluates the stored ACL against a membership closure without exposing a
  // reference: the whole evaluation happens under the store's shared lock, so
  // it is atomic with respect to Replace/AddEntry/RemoveEntriesFor. A bad ref
  // behaves like an empty ACL (kNoMatchingGrant for any nonempty request).
  AclVerdict Evaluate(AclRef ref, const DynamicBitset& closure, AccessModeSet requested) const;

  // Copies the stored ACL out under the shared lock, into an entry list of
  // its own (never shared with the store). False on a bad ref.
  bool CopyAcl(AclRef ref, Acl* out) const;

  // Replaces the ACL at `ref`; bumps generations.
  Status Replace(AclRef ref, Acl acl);

  // In-place entry edits; bump generations.
  Status AddEntry(AclRef ref, const AclEntry& entry);
  Status RemoveEntriesFor(AclRef ref, PrincipalId who);

  uint64_t GenerationOf(AclRef ref) const;
  // Published with release ordering after the mutation it stamps.
  uint64_t store_generation() const { return store_generation_.load(std::memory_order_acquire); }
  // Per-shard ACL generation; bumped only by mutations tagged to the shard
  // (or by conservatively tagged mutations, which bump all of them).
  uint64_t shard_generation(ShardId shard) const {
    return shard_generation_[shard % kMonitorShardCount].load(std::memory_order_acquire);
  }
  size_t size() const;

  // Intern-pool telemetry: how many Creates aliased an existing entry list
  // vs. admitted a new one (bench_f16_shard gates the 1M-principal load on
  // the hit rate staying real).
  uint64_t intern_hits() const { return intern_hits_.load(std::memory_order_relaxed); }
  uint64_t intern_unique() const { return intern_unique_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    Acl acl;
    uint64_t generation = 0;
    ShardId shard = kUnknownShard;
  };

  void BumpLocked(Slot& slot);

  mutable std::shared_mutex mu_;
  std::deque<Slot> acls_;
  std::atomic<uint64_t> store_generation_{0};
  std::array<std::atomic<uint64_t>, kMonitorShardCount> shard_generation_{};

  // Shard-local intern pools: content-hash → shared immutable entry lists.
  // Pool index kMonitorShardCount serves unknown/aggregate-tagged creates.
  std::array<std::unordered_multimap<uint64_t, std::shared_ptr<const Acl::EntryList>>,
             kMonitorShardCount + 1>
      intern_pools_;
  std::atomic<uint64_t> intern_hits_{0};
  std::atomic<uint64_t> intern_unique_{0};
};

}  // namespace xsec

#endif  // XSEC_SRC_DAC_ACL_H_
