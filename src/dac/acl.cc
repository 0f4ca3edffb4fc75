#include "src/dac/acl.h"

#include <algorithm>
#include <mutex>

#include "src/base/strings.h"

namespace xsec {

Acl::EntryList* Acl::MutableEntries() {
  if (entries_ == nullptr) {
    auto fresh = std::make_shared<EntryList>();
    EntryList* raw = fresh.get();
    entries_ = std::move(fresh);
    return raw;
  }
  // Clone only when the list is aliased (interned or copied); a uniquely
  // owned list is edited in place.
  if (entries_.use_count() > 1) {
    auto clone = std::make_shared<EntryList>(*entries_);
    EntryList* raw = clone.get();
    entries_ = std::move(clone);
    return raw;
  }
  return const_cast<EntryList*>(entries_.get());
}

void Acl::AddEntry(const AclEntry& entry) {
  EntryList* entries = MutableEntries();
  for (AclEntry& existing : *entries) {
    if (existing.type == entry.type && existing.who == entry.who) {
      existing.modes |= entry.modes;
      return;
    }
  }
  entries->push_back(entry);
}

size_t Acl::RemoveEntriesFor(PrincipalId who) {
  if (entries_ == nullptr) {
    return 0;
  }
  bool any = false;
  for (const AclEntry& e : *entries_) {
    any |= e.who == who;
  }
  if (!any) {
    return 0;  // no clone when nothing would change
  }
  EntryList* entries = MutableEntries();
  size_t before = entries->size();
  entries->erase(std::remove_if(entries->begin(), entries->end(),
                                [who](const AclEntry& e) { return e.who == who; }),
                 entries->end());
  return before - entries->size();
}

AclVerdict Acl::Evaluate(const DynamicBitset& closure, AccessModeSet requested) const {
  if (requested.empty()) {
    return AclVerdict::kGranted;
  }
  AccessModeSet allowed;
  for (const AclEntry& entry : entries()) {
    if (!closure.Test(entry.who.value)) {
      continue;
    }
    if (entry.type == AclEntryType::kDeny) {
      if (entry.modes.Intersects(requested)) {
        return AclVerdict::kDeniedByEntry;
      }
    } else {
      allowed |= entry.modes;
    }
  }
  return allowed.ContainsAll(requested) ? AclVerdict::kGranted : AclVerdict::kNoMatchingGrant;
}

AccessModeSet Acl::EffectiveModes(const DynamicBitset& closure) const {
  AccessModeSet allowed;
  AccessModeSet denied;
  for (const AclEntry& entry : entries()) {
    if (!closure.Test(entry.who.value)) {
      continue;
    }
    if (entry.type == AclEntryType::kDeny) {
      denied |= entry.modes;
    } else {
      allowed |= entry.modes;
    }
  }
  return allowed - denied;
}

std::string Acl::ToString() const {
  std::string out;
  for (const AclEntry& entry : entries()) {
    if (!out.empty()) {
      out += "; ";
    }
    out += entry.type == AclEntryType::kAllow ? "allow" : "deny";
    out += StrFormat(" p%u %s", entry.who.value, entry.modes.ToString().c_str());
  }
  return out.empty() ? "(empty)" : out;
}

namespace {

uint64_t HashEntries(const Acl::EntryList& entries) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const AclEntry& e : entries) {
    mix(static_cast<uint64_t>(e.type));
    mix(e.who.value);
    mix(e.modes.bits());
  }
  return h;
}

}  // namespace

AclStore::AclRef AclStore::Create(Acl acl) { return Create(std::move(acl), kUnknownShard); }

AclStore::AclRef AclStore::Create(Acl acl, ShardId shard) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Intern the entry list into the shard-local pool: identical ACLs (the
  // overwhelmingly common case in a generated million-node policy) collapse
  // to one immutable vector shared by every slot that carries them.
  if (!acl.empty()) {
    auto& pool = intern_pools_[IsConcreteShard(shard) ? shard : kMonitorShardCount];
    uint64_t hash = HashEntries(acl.entries());
    auto [it, end] = pool.equal_range(hash);
    bool hit = false;
    for (; it != end; ++it) {
      if (*it->second == acl.entries()) {
        acl = Acl(it->second);
        hit = true;
        break;
      }
    }
    if (hit) {
      intern_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::shared_ptr<const Acl::EntryList> canon = acl.shared_entries();
      pool.emplace(hash, std::move(canon));
      intern_unique_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  AclRef ref = static_cast<AclRef>(acls_.size());
  acls_.push_back(Slot{std::move(acl), 0, shard});
  // Mutate, then publish: readers that observe the new generation also see
  // the new ACL (the lock orders the data; release orders the stamp). A
  // create bumps no *per-shard* generation: the fresh ref is not yet
  // reachable from any node, so no cached decision can depend on it.
  acls_.back().generation = store_generation_.fetch_add(1, std::memory_order_release) + 1;
  return ref;
}

void AclStore::AttachShard(AclRef ref, ShardId shard) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return;
  }
  Slot& slot = acls_[ref];
  if (slot.shard == shard) {
    return;
  }
  if (slot.shard == kUnknownShard) {
    // First attachment narrows the tag (or records kAllShards for the root).
    slot.shard = IsConcreteShard(shard) ? shard : kAllShards;
  } else {
    // Referenced from two different domains: mutations must invalidate both,
    // so escalate permanently to the conservative tag.
    slot.shard = kAllShards;
  }
}

ShardId AclStore::ShardOf(AclRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return kUnknownShard;
  }
  return acls_[ref].shard;
}

void AclStore::BumpLocked(Slot& slot) {
  if (IsConcreteShard(slot.shard)) {
    shard_generation_[slot.shard].fetch_add(1, std::memory_order_release);
  } else {
    // Unknown or multi-shard slots: every shard's decisions may read this
    // ACL, so all of them go stale ("spuriously stale, never wrongly fresh").
    for (auto& g : shard_generation_) {
      g.fetch_add(1, std::memory_order_release);
    }
  }
  slot.generation = store_generation_.fetch_add(1, std::memory_order_release) + 1;
}

const Acl* AclStore::Get(AclRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return nullptr;
  }
  return &acls_[ref].acl;
}

AclVerdict AclStore::Evaluate(AclRef ref, const DynamicBitset& closure,
                              AccessModeSet requested) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return requested.empty() ? AclVerdict::kGranted : AclVerdict::kNoMatchingGrant;
  }
  return acls_[ref].acl.Evaluate(closure, requested);
}

bool AclStore::CopyAcl(AclRef ref, Acl* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return false;
  }
  // A private list, not a share of the stored one: the store edits a list
  // in place once its use count reads 1, and that count is a relaxed load,
  // so a copy dropped outside this lock after being read from would race
  // the edit (CompiledPolicy::Build against RemoveEntriesFor under TSan).
  *out = Acl(std::make_shared<const Acl::EntryList>(acls_[ref].acl.entries()));
  return true;
}

Status AclStore::Replace(AclRef ref, Acl acl) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  acls_[ref].acl = std::move(acl);
  BumpLocked(acls_[ref]);
  return OkStatus();
}

Status AclStore::AddEntry(AclRef ref, const AclEntry& entry) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  acls_[ref].acl.AddEntry(entry);
  BumpLocked(acls_[ref]);
  return OkStatus();
}

Status AclStore::RemoveEntriesFor(AclRef ref, PrincipalId who) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return NotFoundError("no such ACL");
  }
  acls_[ref].acl.RemoveEntriesFor(who);
  BumpLocked(acls_[ref]);
  return OkStatus();
}

uint64_t AclStore::GenerationOf(AclRef ref) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (ref >= acls_.size()) {
    return 0;
  }
  return acls_[ref].generation;
}

size_t AclStore::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return acls_.size();
}

}  // namespace xsec
