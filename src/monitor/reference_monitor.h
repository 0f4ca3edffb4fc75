// The reference monitor: the paper's "central facility to provide naming and
// protection services for the entire system" (§3).
//
// Every access in xsec — calling a procedure, extending an interface, reading
// a file, listing a directory, killing a thread — funnels through
// ReferenceMonitor::Check. The decision procedure is:
//
//   1. resolve the name (optionally checking `list` on every ancestor, so
//      visibility of each level of the hierarchy is itself protected, §2.3);
//   2. DAC: evaluate the node's *effective ACL* (its own, or the nearest
//      ancestor's — ACL inheritance gives AFS-style directory defaults while
//      still allowing per-leaf ACLs, which AFS cannot do, §1.2);
//   3. MAC: check the flow rules between the subject's security class and the
//      node's *effective label* (own or nearest ancestor's; the root is
//      labeled ⊥ at construction so every node has a label). MAC is checked
//      even when DAC granted: "users can not circumvent the basic security of
//      the system by exercising discretionary access control" (§2.2);
//   4. record the decision in the audit log.
//
// Decisions are cached (src/monitor/decision_cache.h); any policy mutation
// invalidates the cache via generation stamps.
//
// Thread safety: Check/CheckPath/CheckFloating and the administrative
// operations may be called concurrently from any number of threads. The
// check path reads each store through a snapshot or shared-ownership handle
// (NameSpace::SnapshotSecurity, PrincipalRegistry::Closure,
// AclStore::Evaluate, LabelAuthority::LabelHandle) and reads the validity
// stamps *before* evaluating, so a cached decision can be spuriously stale
// but never wrongly fresh. Explain() and EffectiveAcl() are introspection
// helpers for single-threaded use.

#ifndef XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_
#define XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/reader_pins.h"
#include "src/dac/acl.h"
#include "src/mac/flow_policy.h"
#include "src/mac/label_authority.h"
#include "src/monitor/audit.h"
#include "src/monitor/compiled_policy.h"
#include "src/monitor/decision_cache.h"
#include "src/monitor/monitor_stats.h"
#include "src/monitor/subject.h"
#include "src/naming/namespace.h"
#include "src/principal/registry.h"

namespace xsec {

struct Decision {
  bool allowed = false;
  DenyReason reason = DenyReason::kNone;
  std::string detail;

  // Converts to a Status for callers that propagate errors.
  Status ToStatus() const;
};

struct MonitorOptions {
  bool dac_enabled = true;
  bool mac_enabled = true;
  // Check `list` on every ancestor during resolution.
  bool check_traversal = true;
  bool cache_enabled = true;
  // Maintain MonitorStats (per-reason/per-mode counters, sampled latency
  // histogram). Relaxed atomics only; bench_f1_mediation pins the overhead.
  bool stats_enabled = true;
  FlowPolicyOptions flow;
  AuditPolicy audit_policy = AuditPolicy::kDenialsOnly;
  // Fail-closed audit (MODEL.md §12): when set and the installed resilient
  // sink's circuit is open, Check turns would-be allows into
  // kAuditUnavailable denials instead of proceeding unaudited. Off by
  // default (fail-open: unaudited allows proceed and are counted).
  bool audit_required = false;
  // Consult compiled decision tables (src/monitor/compiled_policy.h) on
  // cache misses when their stamp vector matches the stores. Tables are
  // built lazily by a background thread (RequestRecompile) or synchronously
  // (RecompileNow); until one is installed every miss takes the interpreted
  // path, so this flag never changes semantics, only the miss cost.
  bool compiled_enabled = true;
  // Read the *target node's shard-local* stamp set (docs/MODEL.md §15)
  // instead of the legacy aggregate stamps when validating cached and
  // compiled decisions, so a mutation confined to one subtree invalidates
  // only that shard. Disabling reverts to the aggregate domain everywhere —
  // semantics are identical either way (the differential fuzzer runs the
  // two configurations as an equivalence check), only invalidation breadth
  // changes.
  bool shard_stamps = true;
  size_t compiled_max_classes = 192;
  size_t compiled_max_dac_cells = size_t{1} << 22;
  size_t cache_slots = 8192;
  size_t audit_capacity = 4096;
};

class ReferenceMonitor {
 public:
  // The monitor borrows all four stores; they must outlive it.
  ReferenceMonitor(NameSpace* name_space, AclStore* acls, PrincipalRegistry* principals,
                   LabelAuthority* labels, MonitorOptions options = {});

  // Joins the background recompile thread. The stores must still be alive
  // (they outlive the monitor by the constructor's contract).
  ~ReferenceMonitor();

  // -- Access checks ---------------------------------------------------------

  // Checks `modes` on an already-resolved node (no traversal checks).
  Decision Check(const Subject& subject, NodeId node, AccessModeSet modes);

  // -- Batched checks (MODEL.md §14) -----------------------------------------

  struct BatchCheckRequest {
    Subject subject;
    NodeId node;
    AccessModeSet modes;
  };

  // Decides `n` requests in one pass, writing out[i] for requests[i]. Each
  // decision comes from the same core as Check() (Decide), so it is
  // semantically identical to Check() on the same request; what the batch
  // amortizes is the bookkeeping around the decisions:
  //   - the cache stamp vector of each validity domain is read at most once
  //     per batch (a policy mutation mid-batch makes later inserts
  //     spuriously stale, never wrongly fresh — the same one-sided race
  //     Check() already tolerates);
  //   - MonitorStats lands as one striped-counter flush per batch
  //     (RecordBatch); batched checks are not latency-sampled;
  //   - retained audit records are sequence-stamped in one ring-mutex
  //     critical section per run of consecutive retained records
  //     (AuditLog::RecordBatch), and discarded ones in two fetch_adds.
  // The `audit_required` fail-closed probe runs PER REQUEST, after that
  // request's cache step, and pending audit records are flushed before each
  // probe — so a sink trip caused by an earlier record in this very batch
  // denies every subsequent would-be allow, and the transient denial is
  // never cached (RingFaultTest.MidBatchSinkTripFailsClosedPerRequestNotPerBatch).
  void CheckBatch(const BatchCheckRequest* requests, size_t n, Decision* out);

  // Resolves `path` and checks; on success *resolved (if non-null) is set.
  Decision CheckPath(const Subject& subject, std::string_view path, AccessModeSet modes,
                     NodeId* resolved = nullptr);

  // High-water-mark variant (Denning's floating labels): like Check, but on
  // a successful access containing an observation mode (read/list/execute),
  // the subject's class is raised to the join of its current class and the
  // object's label. The subject thereafter carries everything it has seen:
  // a later write to a lower object is denied by the ordinary ⋆-property, so
  // even *sequences* of individually legal accesses cannot relay data
  // downward through a subject. The paper's model uses fixed per-principal
  // classes; this is the natural extension its lattice supports.
  Decision CheckFloating(Subject* subject, NodeId node, AccessModeSet modes);

  // -- Policy administration -------------------------------------------------
  // All three require the subject to hold `administrate` on the node. The
  // node's owner implicitly holds administrate (the bootstrap rule: a fresh
  // node has no ACL of its own and someone must be able to give it one).

  Status SetNodeAcl(const Subject& subject, NodeId node, Acl acl);
  Status AddAclEntry(const Subject& subject, NodeId node, const AclEntry& entry);
  // Removes every entry (both polarities) naming `who` from the node's own
  // ACL. A no-op if the node only inherits an ACL.
  Status RemoveAclEntriesFor(const Subject& subject, NodeId node, PrincipalId who);

  // Non-officer relabeling additionally requires, under MAC, that the
  // subject dominates the node's current label (it must be cleared to see
  // what it relabels) and that the new label equal the subject's own class —
  // a subject classifies objects at exactly its level, so labels can be
  // bootstrapped upward from ⊥ but never laundered up or down past the
  // subject. The registered security officer bypasses the MAC conditions
  // (a trusted subject in the Bell-LaPadula sense).
  Status SetNodeLabel(const Subject& subject, NodeId node, const SecurityClass& label);

  Status SetOwner(const Subject& subject, NodeId node, PrincipalId new_owner);

  // The security officer may relabel arbitrarily (trusted subject in the
  // Bell-LaPadula sense). Unset by default. Stored as one atomic word: a
  // policy reload may set it while other threads relabel.
  void set_security_officer(PrincipalId officer) {
    security_officer_.store(officer.value, std::memory_order_release);
  }
  PrincipalId security_officer() const {
    return PrincipalId{security_officer_.load(std::memory_order_acquire)};
  }

  // -- Lockdown (supervision-driven graceful degradation) --------------------
  // While armed, would-be-allowed checks whose modes include `extend` are
  // flipped to kQuarantined denials; every other mode keeps its underlying
  // decision, so reads/invokes of healthy services stay live. Applied after
  // the cache (never cached), like the audit-availability override. Driven
  // by the extension supervisor's health state machine or an operator via
  // /svc/health; the monitor itself only enforces.
  void set_lockdown(bool on) { lockdown_.store(on, std::memory_order_relaxed); }
  bool lockdown() const { return lockdown_.load(std::memory_order_relaxed); }

  // -- Effective policy resolution (own or inherited) ------------------------

  // The ACL governing a node: its own, else the nearest ancestor's, else null
  // (no ACL anywhere => DAC denies everything except the owner's administrate).
  // Returns a borrowed pointer; for single-threaded introspection only.
  const Acl* EffectiveAcl(NodeId node, AclStore::AclRef* ref_out = nullptr) const;

  // The label governing a node, by value (safe against concurrent relabels).
  // The root always has one (⊥ by default).
  SecurityClass EffectiveLabel(NodeId node) const;

  // True iff the subject holds administrate on the node (ACL grant or owner).
  bool HasAdministrate(const Subject& subject, NodeId node) const;

  // -- Compiled decision tables ----------------------------------------------
  // See src/monitor/compiled_policy.h and docs/MODEL.md §13. The compiled
  // path is epoch-driven: tables carry the stamp vector they were built
  // against and are consulted only while it matches the stores; any policy
  // mutation silently diverts misses back to the interpreted path and a
  // background recompile catches the tables up. Nothing on a mutation path
  // ever blocks on compilation.

  // Builds and installs tables synchronously. Retries a few times if policy
  // mutations race the build; fails (and leaves any previous tables in
  // place) when a size cap is exceeded, the "monitor.recompile" failpoint
  // fires, or the stores never quiesce.
  Status RecompileNow();

  // Requests an asynchronous recompile; coalesces with pending requests and
  // returns immediately. Spawns the recompile thread on first use.
  void RequestRecompile();

  // Called by policy deserialization after swapping in a loaded policy:
  // bumps the policy epoch, which by construction invalidates every cached
  // decision and any compiled tables (the epoch is part of CacheStamps), and
  // queues a recompile. This closes the reload-staleness hole even for
  // reload effects no store stamp covers (e.g. a security-officer change).
  void NotePolicyReload();
  uint64_t policy_epoch() const { return policy_epoch_.load(std::memory_order_acquire); }

  // The validity domain used to stamp decisions about `node`: its monitor
  // shard, or kAggregateShard with shard_stamps off / for non-concrete
  // shards (unknown node ids, the root). Lock-free. CheckBatch reads each
  // domain's stamps at most once per batch by it.
  ShardId DomainOf(NodeId node) const;

  // The stamp vector of one validity domain: the shard's own generations
  // when `shard` is concrete, else the legacy aggregate stamps.
  CacheStamps CurrentStampsFor(ShardId shard) const;

  // Attempts a compiled-table decision: false when disabled, no tables are
  // installed, their stamps are stale, or the tables do not cover the input
  // (then the caller must take the interpreted path). Public for the
  // differential fuzzer, which holds this against CheckInterpreted.
  // `domain` is the node's validity domain (DomainOf(node)); the check
  // validates only that domain's entry in the tables' stamp set, so a
  // mutation confined to another shard never diverts this probe. Takes no
  // lock and writes only the calling thread's stripes (MODEL.md §10).
  bool TryCompiledCheck(const Subject& subject, NodeId node, AccessModeSet modes,
                        ShardId domain, Decision* out);
  bool TryCompiledCheck(const Subject& subject, NodeId node, AccessModeSet modes,
                        Decision* out) {
    return TryCompiledCheck(subject, node, modes, DomainOf(node), out);
  }

  // The pure interpreted decision procedure — no cache, no compiled tables,
  // no audit, no stats. This is the differential-fuzz oracle.
  Decision CheckInterpreted(const Subject& subject, NodeId node, AccessModeSet modes) const {
    return CheckUncached(subject, node, modes);
  }

  struct CompiledCounters {
    uint64_t hits = 0;         // misses decided by the compiled tables
    uint64_t fallbacks = 0;    // tables fresh but input not covered
    uint64_t stale = 0;        // tables absent or stamp-stale at probe time
    uint64_t recompiles = 0;   // successful builds installed
    uint64_t failed_recompiles = 0;
  };
  CompiledCounters compiled_counters() const;

  // Checks decided per monitor shard (index kMonitorShardCount = aggregate
  // domain: unknown nodes, the root, or all checks with shard_stamps off).
  // Feeds the /sys/monitor/shard/<i>/checks telemetry leaves.
  uint64_t shard_checks(ShardId shard) const {
    return shard_checks_.Sum(DomainIndex(shard));
  }

  // The currently installed tables (null if none); for tests and stats.
  std::shared_ptr<const CompiledPolicy> compiled_snapshot() const;

  // -- Introspection ---------------------------------------------------------

  // A human-readable, multi-line diagnosis of why `subject` can or cannot
  // perform `modes` on `node`: ownership, the governing ACL (and where it
  // was inherited from), which entries matched, and the label comparison.
  // Purely informational — performs no caching and no auditing.
  std::string Explain(const Subject& subject, NodeId node, AccessModeSet modes) const;

  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }
  MonitorStats& stats() { return stats_; }
  const MonitorStats& stats() const { return stats_; }
  DecisionCache& cache() { return cache_; }
  const MonitorOptions& options() const { return options_; }
  void set_audit_policy(AuditPolicy policy) { audit_.set_policy(policy); }

  NameSpace& name_space() { return *name_space_; }
  AclStore& acls() { return *acls_; }
  PrincipalRegistry& principals() { return *principals_; }
  LabelAuthority& labels() { return *labels_; }

 private:
  Decision CheckUncached(const Subject& subject, NodeId node, AccessModeSet modes) const;
  // The one decision sequence every check runs, writing *out: cache probe,
  // then compiled tables, then the interpreted walk (inserting the result
  // under `stamps` and `clear_epoch`, which the caller read before calling),
  // then the audit-availability and lockdown overrides. `domain` is
  // DomainOf(node); `stamps` and `clear_epoch` are unused with the cache
  // off. Counts the check per domain; records no audit and no stats — its
  // two callers (CheckUnsampled, CheckBatch) do that bookkeeping, per call
  // or per batch. Inline, and defined in reference_monitor.cc (its only
  // user), so the per-call cached path pays no extra call.
  inline void Decide(const Subject& subject, NodeId node, AccessModeSet modes, ShardId domain,
                     const CacheStamps& stamps, uint64_t clear_epoch, Decision* out);
  // The per-call path over Decide, without latency sampling (the public
  // wrappers add it).
  Decision CheckUnsampled(const Subject& subject, NodeId node, AccessModeSet modes);
  Decision CheckPathUnsampled(const Subject& subject, std::string_view path,
                              AccessModeSet modes, NodeId* resolved);
  CacheStamps CurrentStamps() const;
  // All domains' stamps at one instant (compiled-table validation set).
  ShardStampSet CurrentStampSet() const;
  void Audit(const Subject& subject, NodeId node, std::string path, AccessModeSet modes,
             const Decision& decision);
  // Fail-closed override: flips an allow to a kAuditUnavailable denial (or
  // counts it as unaudited, in fail-open mode) when the required audit sink
  // is tripped. Runs AFTER the cache so the transient denial is never
  // cached — allows resume the moment the sink recovers.
  void ApplyAuditAvailability(Decision* decision);
  // Lockdown override: flips extend-mode allows to kQuarantined denials
  // while lockdown_ is armed. Same post-cache placement and rationale.
  void ApplyLockdown(Decision* decision, AccessModeSet modes);

  // One build attempt against `stamps` with `extra` interned classes.
  StatusOr<std::shared_ptr<const CompiledPolicy>> BuildCompiled(
      const ShardStampSet& stamps, const std::vector<SecurityClass>& extra);
  // Build-validate-install; kAborted when mutations keep racing the build.
  // With `skip_if_current` (the background loop) it builds nothing when the
  // installed tables already match every stamp and no uncovered class is
  // queued, e.g. because a RecompileNow ran after the request: a redundant
  // build would hold a second copy of the tables for its duration.
  Status RecompileOnce(bool skip_if_current = false);
  void RecompileLoop();
  // Queues a subject class that missed the dominance matrix so the next
  // compile interns it (bounded; duplicates dropped).
  void NoteUncoveredClass(const SecurityClass& cls);

  NameSpace* name_space_;
  AclStore* acls_;
  PrincipalRegistry* principals_;
  LabelAuthority* labels_;
  MonitorOptions options_;
  FlowPolicy flow_;
  AuditLog audit_;
  MonitorStats stats_;
  DecisionCache cache_;
  // PrincipalId::value of the security officer (kInvalid when unset).
  std::atomic<uint32_t> security_officer_{PrincipalId::kInvalid};

  // Armed by the supervision layer (breaker cascade or operator); checked
  // on every decision with one relaxed load.
  std::atomic<bool> lockdown_{false};

  // Monitor-owned stamp: policy reloads bump it (NotePolicyReload), making
  // it impossible for decisions cached against the pre-reload policy — or
  // compiled tables built against it — to be consulted afterwards.
  std::atomic<uint64_t> policy_epoch_{0};

  // The installed tables (docs/MODEL.md §10). The probe takes no lock and
  // copies no reference count: it pins its own stripe of compiled_pins_,
  // loads compiled_view_ and evaluates through it. The installer publishes
  // a new view, waits out the pins (WaitForReaders) and drops the old
  // tables at once. compiled_ owns the tables; compiled_mu_ guards it for
  // the installer and compiled_snapshot() only, never for the probe.
  mutable std::shared_mutex compiled_mu_;
  std::shared_ptr<const CompiledPolicy> compiled_;
  std::atomic<const CompiledPolicy*> compiled_view_{nullptr};
  ReaderPins compiled_pins_;

  // Subject classes that missed the dominance matrix, fed into the next
  // build as extra interned classes. Small and bounded; guarded by its own
  // mutex (touched only on the fallback path).
  std::mutex uncovered_mu_;
  std::vector<SecurityClass> uncovered_classes_;
  static constexpr size_t kMaxUncoveredClasses = 32;

  // Serializes RecompileOnce bodies: concurrent builds (the background
  // RecompileLoop racing a synchronous RecompileNow) must not interleave,
  // or a build that snapshotted the queue before a class was noted can
  // install last and silently drop that class from the tables.
  // `interned_extra_` (guarded by this mutex) carries the installed tables'
  // extra classes into every rebuild so interning is monotonic until the
  // class lands in a label or clearance.
  std::mutex recompile_exec_mu_;
  std::vector<SecurityClass> interned_extra_;

  // Slot of a validity domain in per-domain arrays: its shard, or
  // kMonitorShardCount for the aggregate domain.
  static size_t DomainIndex(ShardId domain) {
    return IsConcreteShard(domain) ? domain : kMonitorShardCount;
  }

  // Bumped on every check, so striped per thread: a shared fetch_add here
  // is a cache line every checking thread writes.
  StripedCounters<kMonitorShardCount + 1> shard_checks_;
  enum CompiledCounter : size_t {
    kCompiledHits,
    kCompiledFallbacks,
    kCompiledStale,
    kCompiledCounters
  };
  StripedCounters<kCompiledCounters> compiled_probes_;
  std::atomic<uint64_t> recompiles_{0};
  std::atomic<uint64_t> failed_recompiles_{0};

  // Lazy background recompiler: RequestRecompile sets `pending` and wakes
  // it; the loop coalesces bursts into one build. Every write of the three
  // fields below happens under recompile_mu_. RequestRecompile reads
  // `pending` without the lock first, so stale probes that find a build
  // already queued touch no shared line.
  std::mutex recompile_mu_;
  std::condition_variable recompile_cv_;
  std::thread recompile_thread_;
  std::atomic<bool> recompile_pending_{false};
  bool recompile_shutdown_ = false;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_REFERENCE_MONITOR_H_
