#include "src/monitor/reference_monitor.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/strings.h"

namespace xsec {

Status Decision::ToStatus() const {
  if (allowed) {
    return OkStatus();
  }
  if (reason == DenyReason::kNotFound) {
    return NotFoundError(detail);
  }
  if (reason == DenyReason::kQuarantined) {
    // Not a policy verdict: the caller may be fully authorized, the target
    // is just refusing work until supervision clears it. Retryable.
    return UnavailableError(detail);
  }
  return PermissionDeniedError(detail);
}

ReferenceMonitor::ReferenceMonitor(NameSpace* name_space, AclStore* acls,
                                   PrincipalRegistry* principals, LabelAuthority* labels,
                                   MonitorOptions options)
    : name_space_(name_space),
      acls_(acls),
      principals_(principals),
      labels_(labels),
      options_(options),
      flow_(options.flow),
      audit_(options.audit_capacity),
      cache_(options.cache_slots) {
  audit_.set_policy(options.audit_policy);
  audit_.set_required(options.audit_required);
  // Every node must resolve to *some* label; the root carries ⊥ so an
  // unlabeled tree degenerates to "MAC imposes no constraint among ⊥
  // subjects" rather than to undefined behavior.
  NameSpace::SecuritySnapshot root;
  if (name_space_->SnapshotSecurity(name_space_->root(), &root) &&
      root.own_label_ref == kNoRef) {
    (void)name_space_->SetLabelRef(name_space_->root(), labels_->StoreLabel(labels_->Bottom()));
  }
}

ReferenceMonitor::~ReferenceMonitor() {
  {
    std::lock_guard<std::mutex> lock(recompile_mu_);
    recompile_shutdown_ = true;
    recompile_cv_.notify_one();
  }
  if (recompile_thread_.joinable()) {
    recompile_thread_.join();
  }
}

CacheStamps ReferenceMonitor::CurrentStamps() const {
  return CacheStamps{name_space_->global_generation(), acls_->store_generation(),
                     principals_->membership_epoch(), labels_->label_epoch(),
                     policy_epoch_.load(std::memory_order_acquire)};
}

CacheStamps ReferenceMonitor::CurrentStampsFor(ShardId shard) const {
  if (!IsConcreteShard(shard)) {
    return CurrentStamps();
  }
  // Shard-local name-space / ACL generations and label epoch, plus the two
  // domain-wide counters: membership and policy-reload events affect every
  // decision regardless of subtree, so each shard's stamp carries them.
  return CacheStamps{name_space_->shard_generation(shard), acls_->shard_generation(shard),
                     principals_->membership_epoch(), labels_->shard_epoch(shard),
                     policy_epoch_.load(std::memory_order_acquire), shard};
}

ShardId ReferenceMonitor::DomainOf(NodeId node) const {
  return options_.shard_stamps ? name_space_->ShardOf(node) : kAggregateShard;
}

ShardStampSet ReferenceMonitor::CurrentStampSet() const {
  ShardStampSet set;
  set.aggregate = CurrentStamps();
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    set.shard[s] = CurrentStampsFor(s);
  }
  return set;
}

const Acl* ReferenceMonitor::EffectiveAcl(NodeId node, AclStore::AclRef* ref_out) const {
  const Node* n = name_space_->Get(node);
  while (n != nullptr) {
    if (n->acl_ref != kNoRef) {
      if (ref_out != nullptr) {
        *ref_out = n->acl_ref;
      }
      return acls_->Get(n->acl_ref);
    }
    if (n->id == name_space_->root()) {
      break;
    }
    n = name_space_->Get(n->parent);
  }
  if (ref_out != nullptr) {
    *ref_out = kNoRef;
  }
  return nullptr;
}

SecurityClass ReferenceMonitor::EffectiveLabel(NodeId node) const {
  NameSpace::SecuritySnapshot snap;
  if (name_space_->SnapshotSecurity(node, &snap) && snap.effective_label_ref != kNoRef) {
    if (auto label = labels_->LabelHandle(snap.effective_label_ref)) {
      return *label;
    }
  }
  // Unreachable for live nodes: the constructor labels the root. A default
  // class is ⊥-shaped (level 0, no categories).
  return SecurityClass();
}

Decision ReferenceMonitor::CheckUncached(const Subject& subject, NodeId node,
                                         AccessModeSet modes) const {
  // One locked ancestor walk yields owner + effective ACL/label refs; after
  // this the stores are only touched through shared-ownership handles, so a
  // concurrent policy mutation cannot tear the evaluation.
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return Decision{false, DenyReason::kNotFound, "node does not exist"};
  }

  if (options_.dac_enabled) {
    AccessModeSet dac_modes = modes;
    // Bootstrap rule: the owner always holds administrate, so a fresh node
    // (which inherits its ACL) can be given one by its creator.
    if (subject.principal == snap.owner) {
      dac_modes = dac_modes - AccessModeSet(AccessMode::kAdministrate);
    }
    if (!dac_modes.empty()) {
      if (snap.effective_acl_ref == kNoRef) {
        return Decision{false, DenyReason::kDacNoGrant, "no ACL grants this access"};
      }
      std::shared_ptr<const DynamicBitset> closure = principals_->Closure(subject.principal);
      AclVerdict verdict = acls_->Evaluate(snap.effective_acl_ref, *closure, dac_modes);
      if (verdict == AclVerdict::kDeniedByEntry) {
        return Decision{false, DenyReason::kDacExplicitDeny, "matched a negative ACL entry"};
      }
      if (verdict == AclVerdict::kNoMatchingGrant) {
        return Decision{false, DenyReason::kDacNoGrant, "no ACL entry grants this access"};
      }
    }
  }

  if (options_.mac_enabled) {
    std::shared_ptr<const SecurityClass> handle =
        snap.effective_label_ref != kNoRef ? labels_->LabelHandle(snap.effective_label_ref)
                                           : nullptr;
    // A live node always resolves to a label (the root carries ⊥); ⊥ is the
    // defensive fallback for a torn-down tree.
    SecurityClass fallback;
    const SecurityClass& label = handle ? *handle : fallback;
    FlowVerdict verdict = flow_.Check(subject.security_class, label, modes);
    if (!verdict.allowed) {
      return Decision{false, DenyReason::kMacFlow,
                      StrFormat("%s of %s by subject at %s violates information flow",
                                std::string(AccessModeName(*verdict.violating_mode)).c_str(),
                                labels_->ClassToString(label).c_str(),
                                labels_->ClassToString(subject.security_class).c_str())};
    }
  }

  return Decision{true, DenyReason::kNone, ""};
}

void ReferenceMonitor::Audit(const Subject& subject, NodeId node, std::string path,
                             AccessModeSet modes, const Decision& decision) {
  // Stats mirror the audit counters: every decision that reaches the audit
  // layer — checks, path resolutions, administrative denials — lands in
  // exactly one reason bucket (kNone for allows).
  if (options_.stats_enabled) {
    stats_.RecordDecision(modes, decision.allowed ? DenyReason::kNone : decision.reason);
  }
  if (!audit_.WouldRetain(decision.allowed)) {
    audit_.Count(decision.allowed);
    return;
  }
  AuditRecord record;
  record.principal = subject.principal;
  record.thread_id = subject.thread_id;
  record.node = node;
  record.path = path.empty() ? name_space_->PathOf(node) : std::move(path);
  record.modes = modes;
  record.allowed = decision.allowed;
  record.reason = decision.reason;
  record.detail = decision.detail;
  audit_.Record(std::move(record));
}

Decision ReferenceMonitor::Check(const Subject& subject, NodeId node, AccessModeSet modes) {
  if (options_.stats_enabled && stats_.ShouldSampleLatency()) {
    uint64_t start = MonotonicNowNs();
    Decision decision = CheckUnsampled(subject, node, modes);
    stats_.RecordLatencyNs(MonotonicNowNs() - start);
    return decision;
  }
  return CheckUnsampled(subject, node, modes);
}

void ReferenceMonitor::ApplyAuditAvailability(Decision* decision) {
  if (!decision->allowed || __builtin_expect(!audit_.SinkTripped(), 1)) {
    return;
  }
  if (audit_.required()) {
    *decision = Decision{false, DenyReason::kAuditUnavailable,
                         "audit sink unavailable and audit is required"};
  } else {
    audit_.CountUnauditedAllow();
  }
}

void ReferenceMonitor::ApplyLockdown(Decision* decision, AccessModeSet modes) {
  // Lockdown is graceful degradation, not a policy change: extend-mode
  // requests (linking new extensions, specializing interfaces) are refused
  // while every other mode keeps its underlying decision. Applied AFTER the
  // cache, exactly like the audit-availability override, so the transient
  // denial is never cached and extends resume the instant lockdown lifts.
  if (!decision->allowed || __builtin_expect(!lockdown_.load(std::memory_order_relaxed), 1)) {
    return;
  }
  if (modes.Contains(AccessMode::kExtend)) {
    *decision = Decision{false, DenyReason::kQuarantined,
                         "monitor lockdown: extend-mode access suspended"};
  }
}

__attribute__((always_inline)) inline void ReferenceMonitor::Decide(
    const Subject& subject, NodeId node, AccessModeSet modes, ShardId domain,
    const CacheStamps& stamps, uint64_t clear_epoch, Decision* out) {
  shard_checks_.Add(DomainIndex(domain));
  Decision& decision = *out;
  DecisionCache::CachedDecision cached;
  if (options_.cache_enabled && cache_.Lookup(subject, node, modes, stamps, &cached)) {
    decision.allowed = cached.allowed;
    decision.reason = cached.reason;
    decision.detail.clear();
  } else {
    // Miss path: compiled tables first (two lookups), interpreted walk only
    // when they are stale or don't cover the input. A compiled decision is
    // validated against stamps at least as fresh as the caller's, so
    // inserting under the caller's (possibly older) stamps is at worst
    // spuriously stale, never wrongly fresh.
    if (!TryCompiledCheck(subject, node, modes, domain, &decision)) {
      decision = CheckUncached(subject, node, modes);
    }
    if (options_.cache_enabled) {
      cache_.Insert(subject, node, modes, stamps,
                    DecisionCache::CachedDecision{decision.allowed, decision.reason},
                    clear_epoch);
    }
  }
  // After the cache on purpose: the cache keeps the underlying decision, the
  // availability and lockdown overrides apply only to this request.
  ApplyAuditAvailability(&decision);
  ApplyLockdown(&decision, modes);
}

Decision ReferenceMonitor::CheckUnsampled(const Subject& subject, NodeId node,
                                          AccessModeSet modes) {
  ShardId domain = DomainOf(node);
  // The cache clear epoch and the stamps are read (acquire) BEFORE
  // evaluating. If a store mutates mid-evaluation its bump lands after our
  // loads, so the entry Decide inserts carries stamps that are already
  // stale — a future probe re-evaluates. The race costs a redundant
  // evaluation, never a wrong cached decision. The clear epoch makes the
  // same argument against Clear(): an insert that raced a clear either
  // lands before the wipe or refuses (see DecisionCache::Insert).
  const bool use_cache = options_.cache_enabled;
  const uint64_t clear_epoch = use_cache ? cache_.clear_epoch() : 0;
  const CacheStamps stamps = use_cache ? CurrentStampsFor(domain) : CacheStamps{};
  Decision decision;
  Decide(subject, node, modes, domain, stamps, clear_epoch, &decision);
  Audit(subject, node, "", modes, decision);
  return decision;
}

void ReferenceMonitor::CheckBatch(const BatchCheckRequest* requests, size_t n, Decision* out) {
  if (n == 0) {
    return;
  }
  // One clear-epoch read and at most one stamp read *per validity domain*
  // per batch (a batch of requests on one monitor shard reads exactly one
  // shard-local stamp set). Sound for the same reason as the per-call
  // read-stamps-then-evaluate order: a store mutating after this read bumps
  // its stamp, so entries inserted below carry stamps that are already
  // stale — a redundant future re-evaluation, never a wrong cached decision.
  uint64_t clear_epoch = options_.cache_enabled ? cache_.clear_epoch() : 0;
  // Filled on a domain's first request; optional so a batch touching one
  // domain initializes one entry, not all of them.
  std::array<std::optional<CacheStamps>, kMonitorShardCount + 1> domain_stamps;
  MonitorStats::BatchCounts counts;
  std::vector<AuditRecord> pending;   // retained records awaiting one RecordBatch
  uint64_t counted_checks = 0;        // decisions the policy discards
  uint64_t counted_denials = 0;
  for (size_t i = 0; i < n; ++i) {
    // Flush earlier items' retained records BEFORE this item's fail-closed
    // probe: a sink trip their emission causes must be visible to this
    // item. This is what makes audit_required per-request, not per-batch;
    // under the default denials-only policy an all-allow batch never
    // flushes here and keeps full amortization.
    if (!pending.empty()) {
      audit_.RecordBatch(std::move(pending));
      pending.clear();
    }
    const BatchCheckRequest& req = requests[i];
    ShardId domain = DomainOf(req.node);
    std::optional<CacheStamps>& stamps = domain_stamps[DomainIndex(domain)];
    if (!stamps) {
      stamps = options_.cache_enabled ? CurrentStampsFor(domain) : CacheStamps{};
    }
    Decision& decision = out[i];
    Decide(req.subject, req.node, req.modes, domain, *stamps, clear_epoch, &decision);
    if (options_.stats_enabled) {
      counts.Add(req.modes, decision.allowed ? DenyReason::kNone : decision.reason);
    }
    if (audit_.WouldRetain(decision.allowed)) {
      AuditRecord record;
      record.principal = req.subject.principal;
      record.thread_id = req.subject.thread_id;
      record.node = req.node;
      record.path = name_space_->PathOf(req.node);
      record.modes = req.modes;
      record.allowed = decision.allowed;
      record.reason = decision.reason;
      record.detail = decision.detail;
      pending.push_back(std::move(record));
    } else {
      ++counted_checks;
      if (!decision.allowed) {
        ++counted_denials;
      }
    }
  }
  if (!pending.empty()) {
    audit_.RecordBatch(std::move(pending));
  }
  audit_.CountBatch(counted_checks, counted_denials);
  if (options_.stats_enabled) {
    stats_.RecordBatch(counts);
  }
}

bool ReferenceMonitor::TryCompiledCheck(const Subject& subject, NodeId node, AccessModeSet modes,
                                        ShardId domain, Decision* out) {
  if (!options_.compiled_enabled) {
    return false;
  }
  bool uncovered = false;
  {
    // The pin keeps the installer from freeing the tables while they are in
    // use (MODEL.md §10); the load that follows it sees at least the tables
    // the installer will wait on.
    ReaderPins::Pin pin(compiled_pins_);
    const CompiledPolicy* tables = compiled_view_.load(std::memory_order_seq_cst);
    // Validate AFTER loading the pointer: the stamps are read fresh, so a
    // match proves the tables describe the stores as of this instant (any
    // later mutation will bump a stamp and divert the next probe). Only the
    // target node's domain entry is compared — a mutation confined to
    // another shard bumps only that shard's stamps, so it neither diverts
    // this probe nor forces a recompile (the F16 invalidation-storm fix).
    if (tables == nullptr ||
        !(tables->stamps().ForDomain(domain) == CurrentStampsFor(domain))) {
      compiled_probes_.Add(kCompiledStale);
    } else if (tables->Evaluate(subject, node, modes, *labels_, out)) {
      compiled_probes_.Add(kCompiledHits);
      return true;
    } else {
      compiled_probes_.Add(kCompiledFallbacks);
      // This subject's class missed the matrix; intern it next compile so
      // the fallback is one-shot per class, not per check.
      uncovered = options_.mac_enabled && tables->dominance() != nullptr &&
                  tables->dominance()->IdOf(subject.security_class) < 0;
    }
  }
  // Outside the pin, so a pinned probe takes no lock.
  if (uncovered) {
    NoteUncoveredClass(subject.security_class);
  }
  RequestRecompile();
  return false;
}

void ReferenceMonitor::NoteUncoveredClass(const SecurityClass& cls) {
  std::lock_guard<std::mutex> lock(uncovered_mu_);
  if (uncovered_classes_.size() >= kMaxUncoveredClasses) {
    return;
  }
  for (const SecurityClass& existing : uncovered_classes_) {
    if (existing == cls) {
      return;
    }
  }
  uncovered_classes_.push_back(cls);
}

StatusOr<std::shared_ptr<const CompiledPolicy>> ReferenceMonitor::BuildCompiled(
    const ShardStampSet& stamps, const std::vector<SecurityClass>& extra) {
  CompiledPolicyConfig config;
  config.dac_enabled = options_.dac_enabled;
  config.mac_enabled = options_.mac_enabled;
  config.flow = options_.flow;
  config.max_classes = options_.compiled_max_classes;
  config.max_dac_cells = options_.compiled_max_dac_cells;
  return CompiledPolicy::Build(*name_space_, *acls_, *principals_, *labels_, config, stamps,
                               extra);
}

Status ReferenceMonitor::RecompileOnce(bool skip_if_current) {
  // Serialized: two interleaved builds could otherwise install in either
  // order, and the one that snapshotted the uncovered-class queue earlier
  // would drop classes the other had already interned.
  std::lock_guard<std::mutex> exec_lock(recompile_exec_mu_);
  if (skip_if_current) {
    std::shared_ptr<const CompiledPolicy> installed = compiled_snapshot();
    bool queued;
    {
      std::lock_guard<std::mutex> lock(uncovered_mu_);
      queued = !uncovered_classes_.empty();
    }
    if (installed != nullptr && !queued && installed->stamps() == CurrentStampSet()) {
      return OkStatus();
    }
  }
  // Every build carries the previously interned extras forward and adds the
  // newly queued ones, so a class stays interned once noted.
  std::vector<SecurityClass> extra = interned_extra_;
  {
    std::lock_guard<std::mutex> lock(uncovered_mu_);
    for (const SecurityClass& cls : uncovered_classes_) {
      if (std::find(extra.begin(), extra.end(), cls) == extra.end()) {
        extra.push_back(cls);
      }
    }
  }
  // Same bound as the queue itself: when churn exceeds it, the oldest
  // carried classes fall back to one-shot re-noting instead of growing the
  // tables without limit.
  if (extra.size() > kMaxUncoveredClasses) {
    extra.erase(extra.begin(), extra.end() - kMaxUncoveredClasses);
  }
  ShardStampSet before = CurrentStampSet();
  auto built = BuildCompiled(before, extra);
  if (!built.ok()) {
    failed_recompiles_.fetch_add(1, std::memory_order_relaxed);
    return built.status();
  }
  // Install only if no mutation committed during the build: every mutator
  // bumps its stamp inside the store's exclusive lock, so equal before/after
  // stamps prove the per-store reads composed into a consistent snapshot.
  if (!(CurrentStampSet() == before)) {
    failed_recompiles_.fetch_add(1, std::memory_order_relaxed);
    return FailedPreconditionError("policy mutated during compilation");
  }
  std::shared_ptr<const CompiledPolicy> retired;
  {
    std::unique_lock<std::shared_mutex> lock(compiled_mu_);
    retired = std::exchange(compiled_, std::move(*built));
    compiled_view_.store(compiled_.get(), std::memory_order_seq_cst);
  }
  // Grace period, outside compiled_mu_: once every probe pinned before the
  // store above has unpinned, no probe can still read the retired tables,
  // so they are dropped now rather than parked on a retire list (two
  // multi-MB DAC tables are never resident together beyond this wait).
  compiled_pins_.WaitForReaders();
  retired.reset();
  interned_extra_ = extra;
  {
    // Drain exactly what this build interned; classes noted mid-build stay
    // queued for the next one.
    std::lock_guard<std::mutex> lock(uncovered_mu_);
    uncovered_classes_.erase(
        std::remove_if(uncovered_classes_.begin(), uncovered_classes_.end(),
                       [&](const SecurityClass& cls) {
                         return std::find(extra.begin(), extra.end(), cls) != extra.end();
                       }),
        uncovered_classes_.end());
  }
  recompiles_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status ReferenceMonitor::RecompileNow() {
  Status last = OkStatus();
  for (int attempt = 0; attempt < 4; ++attempt) {
    last = RecompileOnce();
    if (last.ok() || last.code() != StatusCode::kFailedPrecondition) {
      return last;
    }
  }
  return last;
}

void ReferenceMonitor::RequestRecompile() {
  // A request already pending is not yet consumed: the loop clears the flag
  // (under the mutex) before its build reads the stamps, so that build
  // starts after this call. Stale probes therefore take the mutex only when
  // no build is queued. Soundness never rests on this flag: tables that
  // miss a mutation carry stale stamps, and the next probe asks again.
  if (recompile_pending_.load(std::memory_order_seq_cst)) {
    return;
  }
  std::lock_guard<std::mutex> lock(recompile_mu_);
  if (recompile_shutdown_) {
    return;
  }
  if (!recompile_thread_.joinable()) {
    recompile_thread_ = std::thread([this] { RecompileLoop(); });
  }
  // Set under the mutex the waiter holds while testing its predicate, so
  // the notify cannot fall between that test and the wait.
  recompile_pending_.store(true, std::memory_order_seq_cst);
  recompile_cv_.notify_one();
}

void ReferenceMonitor::RecompileLoop() {
  std::unique_lock<std::mutex> lock(recompile_mu_);
  for (;;) {
    recompile_cv_.wait(lock, [this] {
      return recompile_pending_.load(std::memory_order_seq_cst) || recompile_shutdown_;
    });
    if (recompile_shutdown_) {
      return;
    }
    recompile_pending_.store(false, std::memory_order_seq_cst);
    lock.unlock();
    // Failures (caps, injected faults, racing mutations) leave the previous
    // tables in place; the next miss re-requests. Never blocks a mutator.
    (void)RecompileOnce(/*skip_if_current=*/true);
    lock.lock();
  }
}

void ReferenceMonitor::NotePolicyReload() {
  policy_epoch_.fetch_add(1, std::memory_order_release);
  RequestRecompile();
}

ReferenceMonitor::CompiledCounters ReferenceMonitor::compiled_counters() const {
  CompiledCounters counters;
  counters.hits = compiled_probes_.Sum(kCompiledHits);
  counters.fallbacks = compiled_probes_.Sum(kCompiledFallbacks);
  counters.stale = compiled_probes_.Sum(kCompiledStale);
  counters.recompiles = recompiles_.load(std::memory_order_relaxed);
  counters.failed_recompiles = failed_recompiles_.load(std::memory_order_relaxed);
  return counters;
}

std::shared_ptr<const CompiledPolicy> ReferenceMonitor::compiled_snapshot() const {
  std::shared_lock<std::shared_mutex> lock(compiled_mu_);
  return compiled_;
}

Decision ReferenceMonitor::CheckFloating(Subject* subject, NodeId node, AccessModeSet modes) {
  Decision decision = Check(*subject, node, modes);
  if (decision.allowed && options_.mac_enabled &&
      modes.Intersects(AccessMode::kRead | AccessMode::kList | AccessMode::kExecute)) {
    subject->security_class = subject->security_class.Join(EffectiveLabel(node));
  }
  return decision;
}

Decision ReferenceMonitor::CheckPath(const Subject& subject, std::string_view path,
                                     AccessModeSet modes, NodeId* resolved) {
  if (options_.stats_enabled && stats_.ShouldSampleLatency()) {
    uint64_t start = MonotonicNowNs();
    Decision decision = CheckPathUnsampled(subject, path, modes, resolved);
    stats_.RecordLatencyNs(MonotonicNowNs() - start);
    return decision;
  }
  return CheckPathUnsampled(subject, path, modes, resolved);
}

Decision ReferenceMonitor::CheckPathUnsampled(const Subject& subject, std::string_view path,
                                              AccessModeSet modes, NodeId* resolved) {
  auto components = ParsePath(path);
  if (!components.ok()) {
    Decision decision{false, DenyReason::kNotFound, components.status().message()};
    Audit(subject, NodeId{}, std::string(path), modes, decision);
    return decision;
  }
  NodeId cur = name_space_->root();
  for (const std::string& component : *components) {
    if (options_.check_traversal) {
      Decision step = Check(subject, cur, AccessMode::kList);
      if (!step.allowed) {
        Decision decision{false, DenyReason::kTraversal,
                          StrFormat("denied while resolving '%s': %s",
                                    name_space_->PathOf(cur).c_str(), step.detail.c_str())};
        Audit(subject, cur, std::string(path), modes, decision);
        return decision;
      }
    }
    auto child = name_space_->Child(cur, component);
    if (!child.ok()) {
      Decision decision{false, DenyReason::kNotFound, child.status().message()};
      Audit(subject, cur, std::string(path), modes, decision);
      return decision;
    }
    cur = *child;
  }
  if (resolved != nullptr) {
    *resolved = cur;
  }
  return Check(subject, cur, modes);
}

std::string ReferenceMonitor::Explain(const Subject& subject, NodeId node,
                                      AccessModeSet modes) const {
  const Node* n = name_space_->Get(node);
  if (n == nullptr) {
    return "node does not exist\n";
  }
  std::string out;
  const Principal* who = principals_->Get(subject.principal);
  out += StrFormat("subject : %s at %s\n", who != nullptr ? who->name.c_str() : "?",
                   labels_->ClassToString(subject.security_class).c_str());
  const Principal* owner = principals_->Get(n->owner);
  out += StrFormat("object  : %s (%s, owner %s)\n", name_space_->PathOf(node).c_str(),
                   std::string(NodeKindName(n->kind)).c_str(),
                   owner != nullptr ? owner->name.c_str() : "?");
  out += StrFormat("request : %s\n", modes.ToString().c_str());

  if (!options_.dac_enabled) {
    out += "DAC     : disabled\n";
  } else {
    if (subject.principal == n->owner) {
      out += "DAC     : subject owns the object (administrate implicit)\n";
    }
    // Find the governing ACL and say where it came from.
    const Node* cursor = n;
    while (cursor->acl_ref == kNoRef && cursor->id != name_space_->root()) {
      cursor = name_space_->Get(cursor->parent);
    }
    if (cursor->acl_ref == kNoRef) {
      out += "DAC     : no ACL anywhere up the tree -> everything denied\n";
    } else {
      const Acl* acl = acls_->Get(cursor->acl_ref);
      out += StrFormat("DAC     : governed by the ACL on %s%s\n",
                       name_space_->PathOf(cursor->id).c_str(),
                       cursor->id == node ? "" : " (inherited)");
      std::shared_ptr<const DynamicBitset> closure = principals_->Closure(subject.principal);
      AccessModeSet allowed, denied;
      for (const AclEntry& entry : acl->entries()) {
        bool matches = closure->Test(entry.who.value);
        const Principal* p = principals_->Get(entry.who);
        out += StrFormat("          %s %s %s%s\n",
                         entry.type == AclEntryType::kAllow ? "allow" : "deny ",
                         p != nullptr ? p->name.c_str() : "?",
                         entry.modes.ToString().c_str(),
                         matches ? "   <- matches this subject" : "");
        if (matches) {
          (entry.type == AclEntryType::kAllow ? allowed : denied) |= entry.modes;
        }
      }
      AccessModeSet effective = allowed - denied;
      out += StrFormat("          effective modes: %s -> %s\n", effective.ToString().c_str(),
                       effective.ContainsAll(modes) ? "granted" : "NOT granted");
    }
  }

  if (!options_.mac_enabled) {
    out += "MAC     : disabled\n";
  } else {
    SecurityClass label = EffectiveLabel(node);
    out += StrFormat("MAC     : object label %s\n", labels_->ClassToString(label).c_str());
    FlowVerdict verdict = flow_.Check(subject.security_class, label, modes);
    if (verdict.allowed) {
      out += "          flow rules satisfied\n";
    } else {
      out += StrFormat("          %s violates flow (%s)\n",
                       std::string(AccessModeName(*verdict.violating_mode)).c_str(),
                       subject.security_class.Dominates(label)
                           ? "object must dominate subject for this mode"
                           : "subject does not dominate the object's label");
    }
  }
  return out;
}

bool ReferenceMonitor::HasAdministrate(const Subject& subject, NodeId node) const {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return false;
  }
  if (subject.principal == snap.owner) {
    return true;
  }
  // Re-check without caching/auditing: administration is rare, so the plain
  // path is fine.
  return CheckUncached(subject, node, AccessMode::kAdministrate).allowed;
}

Status ReferenceMonitor::SetNodeAcl(const Subject& subject, NodeId node, Acl acl) {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return NotFoundError("node does not exist");
  }
  if (!HasAdministrate(subject, node)) {
    Audit(subject, node, "", AccessMode::kAdministrate,
          Decision{false, DenyReason::kNotAuthorized, "set-acl without administrate"});
    return PermissionDeniedError(
        StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
  }
  if (snap.own_acl_ref == kNoRef) {
    // Tag (and intern) the fresh ACL under the node's shard, so later edits
    // to it bump only that shard's stamp domain.
    AclStore::AclRef ref = acls_->Create(std::move(acl), snap.shard);
    return name_space_->SetAclRef(node, ref);
  }
  return acls_->Replace(snap.own_acl_ref, std::move(acl));
}

Status ReferenceMonitor::AddAclEntry(const Subject& subject, NodeId node, const AclEntry& entry) {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return NotFoundError("node does not exist");
  }
  if (!HasAdministrate(subject, node)) {
    Audit(subject, node, "", AccessMode::kAdministrate,
          Decision{false, DenyReason::kNotAuthorized, "add-acl-entry without administrate"});
    return PermissionDeniedError(
        StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
  }
  if (snap.own_acl_ref == kNoRef) {
    // Copy-down: start the node's own ACL from its effective (inherited) one
    // so adding an entry refines rather than replaces the inherited policy.
    Acl base;
    if (snap.effective_acl_ref != kNoRef) {
      (void)acls_->CopyAcl(snap.effective_acl_ref, &base);
    }
    base.AddEntry(entry);
    AclStore::AclRef ref = acls_->Create(std::move(base), snap.shard);
    return name_space_->SetAclRef(node, ref);
  }
  return acls_->AddEntry(snap.own_acl_ref, entry);
}

Status ReferenceMonitor::RemoveAclEntriesFor(const Subject& subject, NodeId node,
                                             PrincipalId who) {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return NotFoundError("node does not exist");
  }
  if (!HasAdministrate(subject, node)) {
    Audit(subject, node, "", AccessMode::kAdministrate,
          Decision{false, DenyReason::kNotAuthorized, "remove-acl-entries without administrate"});
    return PermissionDeniedError(
        StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
  }
  if (snap.own_acl_ref == kNoRef) {
    return OkStatus();  // only an inherited ACL; nothing of this node's to edit
  }
  return acls_->RemoveEntriesFor(snap.own_acl_ref, who);
}

Status ReferenceMonitor::SetNodeLabel(const Subject& subject, NodeId node,
                                      const SecurityClass& label) {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return NotFoundError("node does not exist");
  }
  const PrincipalId officer_id = security_officer();
  bool officer = officer_id.valid() && subject.principal == officer_id;
  if (!officer) {
    if (!HasAdministrate(subject, node)) {
      Audit(subject, node, "", AccessMode::kAdministrate,
            Decision{false, DenyReason::kNotAuthorized, "set-label without administrate"});
      return PermissionDeniedError(
          StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
    }
    if (options_.mac_enabled) {
      SecurityClass current = EffectiveLabel(node);
      bool sees_current = subject.security_class.Dominates(current);
      bool assigns_own_class = label == subject.security_class;
      if (!sees_current || !assigns_own_class) {
        Audit(subject, node, "", AccessMode::kAdministrate,
              Decision{false, DenyReason::kMacFlow, "relabel violates information flow"});
        return PermissionDeniedError("relabel violates information flow");
      }
    }
  }
  if (snap.own_label_ref == kNoRef) {
    LabelAuthority::LabelRef ref = labels_->StoreLabel(label);
    labels_->AttachShard(ref, snap.shard);
    return name_space_->SetLabelRef(node, ref);
  }
  return labels_->ReplaceLabel(snap.own_label_ref, label);
}

Status ReferenceMonitor::SetOwner(const Subject& subject, NodeId node, PrincipalId new_owner) {
  NameSpace::SecuritySnapshot snap;
  if (!name_space_->SnapshotSecurity(node, &snap)) {
    return NotFoundError("node does not exist");
  }
  if (!HasAdministrate(subject, node)) {
    return PermissionDeniedError(
        StrFormat("no administrate access on '%s'", name_space_->PathOf(node).c_str()));
  }
  if (principals_->Get(new_owner) == nullptr) {
    return NotFoundError("new owner does not exist");
  }
  return name_space_->SetOwner(node, new_owner);
}

}  // namespace xsec
