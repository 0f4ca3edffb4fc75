// Extension supervision: behavioral containment for untrusted extensions
// (docs/MODEL.md §16).
//
// Admission-time checks (link-time import/export mediation, per-call execute
// checks) decide whether an extension MAY run; nothing before this module
// bounded how it BEHAVES once running. A wedged or crash-looping extension
// could stall InvokeNode callers indefinitely and drag unrelated tenants
// down with it. The supervisor closes that gap with two mechanisms layered
// around every supervised invocation:
//
//   budget    — each extension carries a wall-clock invoke budget (capped
//               into the CallContext deadline the handler already honors)
//               and a max-in-flight bound (excess admissions fail fast with
//               kResourceExhausted);
//   breaker   — consecutive failures/timeouts trip a per-extension circuit
//               (the ResilientSink state-machine shape: closed → open →
//               half-open probe). A tripped extension is *quarantined*:
//               every admission answers kUnavailable without running the
//               handler, until a probe
//               interval elapses and ONE probe invocation is let through —
//               success releases the quarantine, failure re-arms it. Both
//               transitions are recorded through the audit pipeline.
//
// Above the per-extension view sits the monitor health state machine:
//
//   healthy   — fewer than degraded_after extensions quarantined;
//   degraded  — >= degraded_after extensions quarantined (observability
//               state: nothing else changes);
//   lockdown  — operator-armed (/svc/health lockdown on) or breaker cascade
//               (>= lockdown_after quarantines). The supervisor arms
//               ReferenceMonitor::set_lockdown, which denies would-be
//               allowed `extend`-mode checks (DenyReason::kQuarantined,
//               never cached) while read/execute paths stay live — the
//               paper's fail-closed bias applied as graceful degradation.
//
// Un-quarantine is a mediated `administrate` action (HealthService), not a
// direct call: operators go through the reference monitor like everyone
// else, and the release lands in the audit trail twice (the administrate
// decision and the supervisor's transition record).
//
// Per-extension failpoints: registering `name` resolves the failpoint
// `ext.invoke.<name>` (created disarmed); the kernel evaluates it inside
// the supervised window, so an armed error/sleep spec is indistinguishable
// from the extension itself failing or stalling. This is how the tests and
// bench_f17_supervisor drive trips deterministically.
//
// Thread safety: all public methods may be called from any thread. The
// registry is guarded by a shared_mutex (registrations are rare, admissions
// hot); per-extension state by a per-entry mutex; lifetime counters are
// relaxed atomics readable lock-free by the telemetry plane.

#ifndef XSEC_SRC_EXTSYS_SUPERVISOR_H_
#define XSEC_SRC_EXTSYS_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/monitor/reference_monitor.h"
#include "src/naming/namespace.h"

namespace xsec {

class Failpoint;

// Per-extension circuit state. kProbing is the half-open phase: exactly one
// invocation is in flight deciding the circuit's fate.
enum class ExtHealth : uint8_t {
  kHealthy = 0,
  kQuarantined,
  kProbing,
};

std::string_view ExtHealthName(ExtHealth state);

// The monitor-wide view derived from the per-extension states and the
// operator's lockdown flag.
enum class SystemHealth : uint8_t {
  kHealthy = 0,
  kDegraded,
  kLockdown,
};

std::string_view SystemHealthName(SystemHealth state);

struct ExtensionBudget {
  // Wall-clock bound per supervised invocation, folded into the handler's
  // CallContext deadline (min with the caller's own). 0 = unbounded.
  uint64_t invoke_budget_ns = 0;
  // Concurrent supervised invocations allowed; excess admissions fail fast
  // with kResourceExhausted. 0 = unbounded.
  uint32_t max_inflight = 0;
  // Consecutive failures (timeouts, internal errors, unavailability) that
  // trip the breaker into quarantine. The ResilientSink default shape.
  uint32_t trip_after = 4;
  // Quarantine dwell before ONE half-open probe is admitted.
  uint64_t probe_after_ns = 100'000'000;  // 100 ms
};

struct SupervisorOptions {
  // Budget applied to extensions registered without an explicit one.
  ExtensionBudget default_budget;
  // Quarantined-extension count at which system health reads degraded.
  size_t degraded_after = 2;
  // Quarantined-extension count that cascades into lockdown; 0 disables the
  // automatic cascade (operator arming still works).
  size_t lockdown_after = 0;
  // Principal stamped on supervision audit records (quarantine trips,
  // releases, health transitions). Typically the system principal.
  PrincipalId audit_principal;
};

class ExtensionSupervisor {
 private:
  struct Entry;  // declared ahead of Permit, which holds one

 public:
  // The monitor must outlive the supervisor: transitions are audited through
  // it and lockdown is enforced by it. The supervisor starts no thread.
  explicit ExtensionSupervisor(ReferenceMonitor* monitor, SupervisorOptions options = {});

  ExtensionSupervisor(const ExtensionSupervisor&) = delete;
  ExtensionSupervisor& operator=(const ExtensionSupervisor&) = delete;

  // -- Registration -----------------------------------------------------------

  // Registers (or re-registers) a supervised name. `node` is the extension's
  // own node (or the service node a manual registration guards); it anchors
  // audit records. Unloading an extension keeps
  // its entry (history survives; a reloaded extension re-joins its record).
  void Register(std::string_view name, NodeId node,
                std::optional<ExtensionBudget> budget = std::nullopt);
  void SetBudget(std::string_view name, const ExtensionBudget& budget);
  bool IsRegistered(std::string_view name) const;

  // -- Admission --------------------------------------------------------------

  // RAII admission token. Destroying an active permit without Complete()
  // records the invocation as successful (handlers that return values have
  // their status recorded explicitly by the kernel).
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& other) noexcept { *this = std::move(other); }
    Permit& operator=(Permit&& other) noexcept;
    ~Permit();
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    // False for unsupervised targets: the invocation proceeds unobserved.
    bool active() const { return entry_ != nullptr; }
    // The effective deadline: the caller's capped by the budget (0 = none).
    uint64_t deadline_ns() const { return deadline_ns_; }
    // The extension's ext.invoke.<name> failpoint (null when inactive).
    Failpoint* fault() const;
    // Records the invocation outcome exactly once and feeds the breaker.
    void Complete(const Status& status);

   private:
    friend class ExtensionSupervisor;
    ExtensionSupervisor* supervisor_ = nullptr;
    Entry* entry_ = nullptr;
    uint64_t deadline_ns_ = 0;
    bool probe_ = false;
  };

  // Admits one invocation of `name`. Unregistered names return an inactive
  // permit (pass-through). Errors: kUnavailable (quarantined, or a probe is
  // already in flight), kResourceExhausted (max_inflight). An admission that
  // finds the probe interval elapsed converts the quarantine to kProbing and
  // admits itself as the probe.
  StatusOr<Permit> Admit(std::string_view name, uint64_t caller_deadline_ns);

  // Dispatcher eligibility: false while quarantined with no probe due, so
  // class selection falls through to the next-best handler.
  bool Selectable(std::string_view name) const;

  // The supervised name owning `node`, if any (procedure/capability calls
  // resolve their supervision entry through this).
  const std::string* NameOfNode(NodeId node) const;

  // -- Operator actions (callers mediate; see HealthService) ------------------

  // Forces `name` into quarantine (audited).
  Status Quarantine(std::string_view name, std::string_view why);
  // Releases a quarantined/probing extension back to healthy (audited).
  // kFailedPrecondition when it is already healthy.
  Status Release(std::string_view name, std::string_view why);
  // Arms/disarms operator lockdown; the effective monitor lockdown is
  // operator-armed OR breaker-cascade.
  void ArmLockdown(bool on, std::string_view why);
  bool lockdown_armed() const {
    return operator_lockdown_.load(std::memory_order_relaxed);
  }

  // -- Telemetry --------------------------------------------------------------

  struct ExtSnapshot {
    std::string name;
    NodeId node;
    ExtHealth state = ExtHealth::kHealthy;
    uint64_t invokes = 0;
    uint64_t failures = 0;
    uint64_t timeouts = 0;
    uint64_t trips = 0;
    uint64_t releases = 0;
    uint64_t rejected = 0;  // fail-fast admissions refused while quarantined
    uint32_t inflight = 0;
  };
  std::optional<ExtSnapshot> Snapshot(std::string_view name) const;
  std::vector<ExtSnapshot> SnapshotAll() const;

  SystemHealth system_health() const {
    return system_health_.load(std::memory_order_relaxed);
  }
  size_t quarantined_count() const {
    return quarantined_count_.load(std::memory_order_relaxed);
  }

  // Called with each newly registered name (and every already-registered
  // one, immediately); the telemetry plane mounts per-extension leaves from
  // it. Invoked without supervisor locks held.
  void SetRegistrationHook(std::function<void(const std::string&)> hook);

  const SupervisorOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string name;
    NodeId node;
    Failpoint* fault = nullptr;  // ext.invoke.<name>, resolved at Register
    mutable std::mutex mu;
    // Guarded by mu:
    ExtHealth state = ExtHealth::kHealthy;
    ExtensionBudget budget;
    uint32_t consecutive_failures = 0;
    uint32_t inflight = 0;
    bool probe_inflight = false;
    uint64_t quarantined_at_ns = 0;
    // Lifetime counters (telemetry reads them lock-free):
    std::atomic<uint64_t> invokes{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> trips{0};
    std::atomic<uint64_t> releases{0};
    std::atomic<uint64_t> rejected{0};
  };

  Entry* Find(std::string_view name) const;
  // Breaker bookkeeping for one completed invocation.
  void RecordOutcome(Entry* entry, const Status& status, bool probe);
  // Trip/release transitions; both audit and recompute. `entry->mu` must NOT
  // be held (they take it).
  void TripToQuarantine(Entry* entry, std::string_view why);
  void ReleaseToHealthy(Entry* entry, std::string_view why);
  // Emits one synthetic record through the monitor's audit pipeline.
  void AuditTransition(const Entry* entry, bool quarantined, std::string detail);
  void AuditSystemTransition(SystemHealth from, SystemHealth to, std::string detail);
  // Re-derives system health from quarantine count + operator flag;
  // arms/disarms the monitor's lockdown and audits the change.
  void RecomputeSystemHealth(std::string_view why);
  ExtSnapshot SnapshotEntry(const Entry& entry) const;

  ReferenceMonitor* monitor_;
  SupervisorOptions options_;

  mutable std::shared_mutex registry_mu_;
  // Entries are never erased: pointers handed to permits stay stable.
  std::unordered_map<std::string, std::unique_ptr<Entry>> by_name_;
  std::unordered_map<uint32_t, Entry*> by_node_;

  std::atomic<size_t> quarantined_count_{0};
  std::atomic<bool> operator_lockdown_{false};
  std::atomic<SystemHealth> system_health_{SystemHealth::kHealthy};
  // Serializes health recomputation so the monitor lockdown flag and the
  // audited transition sequence agree on ordering.
  std::mutex health_mu_;

  std::mutex hook_mu_;
  std::function<void(const std::string&)> registration_hook_;
};

}  // namespace xsec

#endif  // XSEC_SRC_EXTSYS_SUPERVISOR_H_
