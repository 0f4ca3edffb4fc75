// The kernel of the simulated extensible system: the "base system" of the
// paper's §1.1 into which extensions are dynamically loaded and linked.
//
// The kernel owns the four policy stores, the reference monitor, the
// procedure table and the event dispatcher. Services register procedures and
// extension-point interfaces at boot (trusted, unmediated); afterwards every
// interaction — an application invoking a procedure, an extension being
// linked, an event being raised — is mediated by the reference monitor.
//
// The two interaction mechanisms of §1.1 map to:
//   calls:        Kernel::Invoke / Kernel::CallCapability  (execute mode)
//   extensions:   Kernel::LoadExtension + EventDispatcher  (extend mode)

#ifndef XSEC_SRC_EXTSYS_KERNEL_H_
#define XSEC_SRC_EXTSYS_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/dac/acl.h"
#include "src/extsys/dispatcher.h"
#include "src/extsys/extension.h"
#include "src/extsys/value.h"
#include "src/mac/label_authority.h"
#include "src/monitor/reference_monitor.h"
#include "src/naming/namespace.h"
#include "src/principal/registry.h"

namespace xsec {

// Per-call deadline/cancellation options of Invoke/CallCapability/RaiseEvent,
// plumbed into handlers via CallContext.
//
// `deadline_ns` is an absolute timestamp on the MonotonicNowNs clock; 0
// means no deadline. A call whose deadline has already passed is rejected
// with kDeadlineExceeded before any work runs; otherwise the deadline is
// forwarded so blocking stages can bound their wait.
//
// `cancel` is an optional caller-owned flag: setting it to true withdraws
// the request, and cooperative waiters (anything that polls the
// CallContext::CheckDeadline contract) return kCancelled at their next
// cancellation point. Cancellation wins over an expired deadline when both
// hold. The flag must outlive the call.
struct CallOptions {
  uint64_t deadline_ns = 0;
  const std::atomic<bool>* cancel = nullptr;
};

class ExtensionSupervisor;

class Kernel {
 public:
  explicit Kernel(MonitorOptions options = {});

  // Non-copyable, non-movable: handlers capture `this`.
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -- Store access ----------------------------------------------------------
  NameSpace& name_space() { return name_space_; }
  AclStore& acls() { return acls_; }
  PrincipalRegistry& principals() { return principals_; }
  LabelAuthority& labels() { return labels_; }
  ReferenceMonitor& monitor() { return *monitor_; }
  EventDispatcher& dispatcher() { return dispatcher_; }

  // The built-in most-privileged principal (owner of the namespace root).
  PrincipalId system_principal() const { return system_; }
  // A subject for the system principal at the lattice top.
  Subject SystemSubject();

  // Creates a fresh thread subject for a principal at a class.
  Subject CreateSubject(PrincipalId principal, const SecurityClass& security_class);

  // -- Boot-time (trusted) service registration ------------------------------
  // These create name-space nodes directly; the base system is trusted code
  // and is not subject to its own mediation (the monitor governs everything
  // that happens *through* the kernel afterwards).
  StatusOr<NodeId> RegisterService(std::string_view path, PrincipalId owner);
  StatusOr<NodeId> RegisterInterface(std::string_view path, PrincipalId owner);
  StatusOr<NodeId> RegisterProcedure(std::string_view path, PrincipalId owner, HandlerFn handler);

  // Rebinds the implementation of an existing procedure node (service-side).
  Status SetProcedureHandler(NodeId node, HandlerFn handler);

  // -- Mediated operations ----------------------------------------------------

  // Full-path call: resolve (with traversal checks), check `execute`, invoke.
  // Invoking an interface node dispatches class-selected to a handler.
  StatusOr<Value> Invoke(Subject& subject, std::string_view path, Args args,
                         const CallOptions& options = {});

  // Capability call: node-level `execute` re-check only (no traversal). The
  // fast path for linked extensions; revocation still takes effect because
  // the node check re-runs (cached) on every call.
  StatusOr<Value> CallCapability(Subject& subject, const Capability& capability, Args args,
                                 const CallOptions& options = {});

  // Raises an event on an extension-point interface: `execute` check on the
  // interface, then dispatch per `mode`. kBroadcast returns the last
  // handler's value. The deadline/cancel in `options` is forwarded to every
  // handler and re-checked between broadcast handlers, so a long chain is
  // cancellable at handler granularity.
  StatusOr<Value> RaiseEvent(Subject& subject, std::string_view interface_path, Args args,
                             DispatchMode mode = DispatchMode::kClassSelected,
                             const CallOptions& options = {});

  // -- Extension lifecycle ----------------------------------------------------

  // Links `manifest` on behalf of `loader`. The extension's handlers run at
  // manifest.static_class if set, else at the loader's class; link-time
  // import (`execute`) and export (`extend`) checks run at that class.
  StatusOr<ExtensionId> LoadExtension(const ExtensionManifest& manifest, const Subject& loader);

  // Unloads; requires the unloader to be the loading principal or to hold
  // administrate on the extension's node.
  Status UnloadExtension(const Subject& subject, ExtensionId id);

  const LinkedExtension* GetExtension(ExtensionId id) const;
  size_t loaded_extension_count() const { return loaded_count_; }

  // -- Supervision (docs/MODEL.md §16) ----------------------------------------
  // Optional: when set, every extension invocation (interface dispatch,
  // supervised procedures, broadcast handlers) runs under the supervisor's
  // budget/breaker admission, loaded extensions auto-register by name, and
  // dispatch skips quarantined handlers. The supervisor must outlive the
  // calls that use it. Null (the default) keeps the pre-supervision
  // behavior bit-for-bit.
  void set_supervisor(ExtensionSupervisor* supervisor) { supervisor_ = supervisor; }
  ExtensionSupervisor* supervisor() const { return supervisor_; }

  // The CallContext of the handler currently executing on THIS thread, or
  // null outside any handler. Nested Invoke/CallCapability/RaiseEvent cap
  // their deadline to it (a child can tighten but never outlive its
  // parent's bound) and inherit its cancel flag when none is given.
  static const CallContext* CurrentCallContext();

 private:
  StatusOr<Value> InvokeNode(Subject& subject, NodeId node, Args args,
                             const CallOptions& options);
  // Runs one handler under a CallContext scoped to this thread, admitting
  // through the supervisor first when `supervised_name` is non-null.
  StatusOr<Value> RunHandler(Subject& subject, const std::string* supervised_name,
                             const HandlerFn& handler, Args args, const CallOptions& options);
  // Caps options.deadline_ns / cancel to the enclosing handler's context.
  static CallOptions CapToParent(const CallOptions& options);

  NameSpace name_space_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  EventDispatcher dispatcher_;

  std::unordered_map<uint32_t, HandlerFn> procedures_;
  ExtensionSupervisor* supervisor_ = nullptr;
  std::vector<std::optional<LinkedExtension>> extensions_;
  size_t loaded_count_ = 0;
  PrincipalId system_;
  // Atomic: subjects are minted from concurrent threads (watchers, pollers,
  // test harnesses) and ids must stay unique.
  std::atomic<uint64_t> next_thread_id_{1};
};

}  // namespace xsec

#endif  // XSEC_SRC_EXTSYS_KERNEL_H_
