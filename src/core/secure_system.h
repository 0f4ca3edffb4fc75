// SecureSystem: the top-level public API of the xsec library.
//
// Wires together the kernel (name space, principals, ACLs, labels, reference
// monitor, dispatcher) and the standard services (memfs, mbuf pool, threads,
// log, VFS) and applies usable defaults:
//
//   - a built-in group "everyone" that every user created through this
//     facade joins automatically;
//   - default ACLs making the service tree callable and the hierarchy
//     listable by everyone (specific nodes then restrict).
//
// Quickstart:
//
//   xsec::SecureSystem sys;
//   auto alice = sys.CreateUser("alice");
//   (void)sys.labels().DefineLevels({"others", "organization", "local"});
//   auto cls = sys.labels().MakeClass("local", {});
//   xsec::Subject subject = sys.Login(*alice, *cls);
//   auto result = sys.Invoke(subject, "/svc/fs/list", {xsec::Value{"/fs"}});

#ifndef XSEC_SRC_CORE_SECURE_SYSTEM_H_
#define XSEC_SRC_CORE_SECURE_SYSTEM_H_

#include <memory>
#include <string_view>

#include "src/extsys/kernel.h"
#include "src/extsys/supervisor.h"
#include "src/services/fault_service.h"
#include "src/services/health_service.h"
#include "src/services/log.h"
#include "src/services/mbuf.h"
#include "src/services/memfs.h"
#include "src/services/netstack.h"
#include "src/services/stats_service.h"
#include "src/services/threads.h"
#include "src/services/vfs.h"

namespace xsec {

class SecureSystem {
 public:
  explicit SecureSystem(MonitorOptions options = {});

  // -- Component access -------------------------------------------------------
  Kernel& kernel() { return kernel_; }
  ReferenceMonitor& monitor() { return kernel_.monitor(); }
  NameSpace& name_space() { return kernel_.name_space(); }
  PrincipalRegistry& principals() { return kernel_.principals(); }
  LabelAuthority& labels() { return kernel_.labels(); }
  MemFs& fs() { return *fs_; }
  MbufPool& mbufs() { return *mbufs_; }
  ThreadService& threads() { return *threads_; }
  LogService& log() { return *log_; }
  VfsService& vfs() { return *vfs_; }
  NetStack& net() { return *net_; }
  StatsService& stats() { return *stats_; }
  FaultService& faults() { return *faults_; }
  // Null until EnableSupervision.
  ExtensionSupervisor* supervisor() { return supervisor_.get(); }
  HealthService* health() { return health_.get(); }

  PrincipalId everyone() const { return everyone_; }
  PrincipalId system_principal() const { return kernel_.system_principal(); }
  Subject SystemSubject() { return kernel_.SystemSubject(); }

  // -- Principals -------------------------------------------------------------

  // Creates a user and adds it to "everyone".
  StatusOr<PrincipalId> CreateUser(std::string_view name);
  StatusOr<PrincipalId> CreateGroup(std::string_view name);

  // A fresh thread subject for `principal` at `security_class`. Trusted,
  // unchecked variant — tests and boot code use it; authentication-facing
  // code should use LoginChecked.
  Subject Login(PrincipalId principal, const SecurityClass& security_class);

  // Checked login: verifies the principal exists, authenticates the
  // credential if one is registered, and enforces the principal's clearance
  // (the requested class must be dominated by it).
  StatusOr<Subject> LoginChecked(std::string_view name, std::string_view credential,
                                 const SecurityClass& security_class);

  // Convenience: record a clearance for a user (trusted administrative op).
  Status SetClearance(PrincipalId user, const SecurityClass& clearance);

  // -- Forwarders for the common operations ------------------------------------
  StatusOr<Value> Invoke(Subject& subject, std::string_view path, Args args,
                         const CallOptions& options = {}) {
    return kernel_.Invoke(subject, path, std::move(args), options);
  }
  StatusOr<ExtensionId> LoadExtension(const ExtensionManifest& manifest, const Subject& loader) {
    return kernel_.LoadExtension(manifest, loader);
  }
  Status UnloadExtension(const Subject& subject, ExtensionId id) {
    return kernel_.UnloadExtension(subject, id);
  }

  // -- Supervision (docs/MODEL.md §16) ----------------------------------------

  // Opt-in: creates the extension supervisor (budgets, circuit breakers,
  // quarantine, lockdown), attaches it to the kernel so every
  // subsequently loaded extension is supervised, mounts the health telemetry
  // under /sys/monitor/health/, and installs the mediated /svc/health
  // control plane. Idempotent after the first call (later calls return the
  // existing supervisor, ignoring `options`). Systems that never call this
  // keep pre-supervision behavior bit-for-bit.
  StatusOr<ExtensionSupervisor*> EnableSupervision(SupervisorOptions options = {});

 private:
  Status InstallDefaults();

  Kernel kernel_;
  std::unique_ptr<MemFs> fs_;
  std::unique_ptr<MbufPool> mbufs_;
  std::unique_ptr<ThreadService> threads_;
  std::unique_ptr<LogService> log_;
  std::unique_ptr<VfsService> vfs_;
  std::unique_ptr<NetStack> net_;
  std::unique_ptr<StatsService> stats_;
  std::unique_ptr<FaultService> faults_;
  // Supervision plane (EnableSupervision). Declared after the kernel and
  // the services it feeds telemetry to, so reverse-order teardown destroys
  // it before the monitor it audits through and enforces lockdown on.
  std::unique_ptr<ExtensionSupervisor> supervisor_;
  std::unique_ptr<HealthService> health_;
  PrincipalId everyone_;
};

}  // namespace xsec

#endif  // XSEC_SRC_CORE_SECURE_SYSTEM_H_
