#include "src/services/health_service.h"

#include <utility>

#include "src/base/strings.h"
#include "src/naming/path.h"

namespace xsec {

namespace {

std::string RenderSnapshotLine(const ExtensionSupervisor::ExtSnapshot& snap) {
  return StrFormat("%s %s invokes=%llu failures=%llu timeouts=%llu trips=%llu "
                   "releases=%llu rejected=%llu inflight=%u",
                   snap.name.c_str(), std::string(ExtHealthName(snap.state)).c_str(),
                   static_cast<unsigned long long>(snap.invokes),
                   static_cast<unsigned long long>(snap.failures),
                   static_cast<unsigned long long>(snap.timeouts),
                   static_cast<unsigned long long>(snap.trips),
                   static_cast<unsigned long long>(snap.releases),
                   static_cast<unsigned long long>(snap.rejected), snap.inflight);
}

}  // namespace

HealthService::HealthService(Kernel* kernel, ExtensionSupervisor* supervisor,
                             HealthServiceOptions options)
    : kernel_(kernel), supervisor_(supervisor), options_(std::move(options)) {}

Status HealthService::Install() {
  PrincipalId system = kernel_->system_principal();
  // The stats plane may already have created the mount directory as an
  // intermediate of its health leaves; adopt it in that case.
  auto mount = kernel_->name_space().Lookup(options_.mount_path);
  if (!mount.ok()) {
    mount = kernel_->name_space().BindPath(options_.mount_path, NodeKind::kDirectory, system);
    if (!mount.ok()) {
      return mount.status();
    }
  }
  // Fail-closed: releasing a quarantined extension or arming lockdown is a
  // way to override the supervisor's containment, so the mount root carries
  // an own ACL granting the system principal only. Operations roles are
  // widened with ordinary AddAclEntry calls.
  Acl restricted;
  restricted.AddEntry({AclEntryType::kAllow, system,
                       AccessMode::kRead | AccessMode::kList | AccessMode::kAdministrate});
  XSEC_RETURN_IF_ERROR(
      kernel_->name_space().SetAclRef(*mount, kernel_->acls().Create(std::move(restricted))));

  auto proc = [this, system](std::string_view name, HandlerFn fn) -> Status {
    auto node =
        kernel_->RegisterProcedure(JoinPath(options_.service_path, name), system, std::move(fn));
    return node.ok() ? OkStatus() : node.status();
  };
  // An optional trailing "why" argument; absent renders as empty.
  auto arg_why = [](const Args& args, size_t index) -> std::string {
    auto why = ArgString(args, index);
    return why.ok() ? std::move(*why) : std::string();
  };

  XSEC_RETURN_IF_ERROR(proc("state", [this](CallContext& ctx) -> StatusOr<Value> {
    auto rendered = State(*ctx.subject);
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  }));
  XSEC_RETURN_IF_ERROR(proc("list", [this](CallContext& ctx) -> StatusOr<Value> {
    auto rendered = List(*ctx.subject);
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  }));
  XSEC_RETURN_IF_ERROR(proc("read", [this](CallContext& ctx) -> StatusOr<Value> {
    auto name = ArgString(ctx.args, 0);
    if (!name.ok()) {
      return name.status();
    }
    auto rendered = ReadExtension(*ctx.subject, *name);
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  }));
  XSEC_RETURN_IF_ERROR(proc("release", [this, arg_why](CallContext& ctx) -> StatusOr<Value> {
    auto name = ArgString(ctx.args, 0);
    if (!name.ok()) {
      return name.status();
    }
    auto rendered = Release(*ctx.subject, *name, arg_why(ctx.args, 1));
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  }));
  XSEC_RETURN_IF_ERROR(proc("quarantine", [this, arg_why](CallContext& ctx) -> StatusOr<Value> {
    auto name = ArgString(ctx.args, 0);
    if (!name.ok()) {
      return name.status();
    }
    auto rendered = ForceQuarantine(*ctx.subject, *name, arg_why(ctx.args, 1));
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  }));
  return proc("lockdown", [this, arg_why](CallContext& ctx) -> StatusOr<Value> {
    auto toggle = ArgString(ctx.args, 0);
    if (!toggle.ok()) {
      return toggle.status();
    }
    if (*toggle != "on" && *toggle != "off") {
      return InvalidArgumentError("lockdown expects \"on\" or \"off\"");
    }
    auto rendered = SetLockdown(*ctx.subject, *toggle == "on", arg_why(ctx.args, 1));
    if (!rendered.ok()) {
      return rendered.status();
    }
    return Value{std::move(*rendered)};
  });
}

StatusOr<NodeId> HealthService::EnsureLeaf(std::string_view name) {
  if (!IsValidComponent(name)) {
    return InvalidArgumentError(
        StrFormat("'%s' is not a valid extension name", std::string(name).c_str()));
  }
  std::string full = JoinPath(JoinPath(JoinPath(options_.mount_path, "ext"), name), "state");
  auto existing = kernel_->name_space().Lookup(full);
  if (existing.ok()) {
    return existing;
  }
  return kernel_->name_space().BindPath(full, NodeKind::kFile, kernel_->system_principal());
}

StatusOr<std::string> HealthService::State(Subject& subject) {
  auto mount = kernel_->name_space().Lookup(options_.mount_path);
  if (!mount.ok()) {
    return mount.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *mount, AccessMode::kRead);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  return StrFormat("state %s\nquarantined %zu\nlockdown %d\n",
                   std::string(SystemHealthName(supervisor_->system_health())).c_str(),
                   supervisor_->quarantined_count(),
                   supervisor_->system_health() == SystemHealth::kLockdown ? 1 : 0);
}

StatusOr<std::string> HealthService::List(Subject& subject) {
  auto mount = kernel_->name_space().Lookup(options_.mount_path);
  if (!mount.ok()) {
    return mount.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *mount, AccessMode::kList);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  std::string out;
  for (const ExtensionSupervisor::ExtSnapshot& snap : supervisor_->SnapshotAll()) {
    out += RenderSnapshotLine(snap);
    out += '\n';
  }
  return out;
}

StatusOr<std::string> HealthService::ReadExtension(Subject& subject, std::string_view name) {
  auto node = EnsureLeaf(name);
  if (!node.ok()) {
    return node.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *node, AccessMode::kRead);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  auto snap = supervisor_->Snapshot(name);
  if (!snap.has_value()) {
    return NotFoundError(
        StrFormat("'%s' is not supervised", std::string(name).c_str()));
  }
  return RenderSnapshotLine(*snap);
}

StatusOr<std::string> HealthService::Release(Subject& subject, std::string_view name,
                                             std::string_view why) {
  auto node = EnsureLeaf(name);
  if (!node.ok()) {
    return node.status();
  }
  // The real monitor path: the administrate decision — allow or deny — is
  // counted and audited, so every release of a quarantine is on the record
  // alongside the supervisor's own transition audit.
  Decision decision = kernel_->monitor().Check(subject, *node, AccessMode::kAdministrate);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  XSEC_RETURN_IF_ERROR(supervisor_->Release(name, why));
  auto snap = supervisor_->Snapshot(name);
  return std::string(snap ? ExtHealthName(snap->state) : "healthy");
}

StatusOr<std::string> HealthService::ForceQuarantine(Subject& subject, std::string_view name,
                                                     std::string_view why) {
  auto node = EnsureLeaf(name);
  if (!node.ok()) {
    return node.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *node, AccessMode::kAdministrate);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  XSEC_RETURN_IF_ERROR(supervisor_->Quarantine(name, why));
  auto snap = supervisor_->Snapshot(name);
  return std::string(snap ? ExtHealthName(snap->state) : "quarantined");
}

StatusOr<std::string> HealthService::SetLockdown(Subject& subject, bool on,
                                                 std::string_view why) {
  auto mount = kernel_->name_space().Lookup(options_.mount_path);
  if (!mount.ok()) {
    return mount.status();
  }
  Decision decision = kernel_->monitor().Check(subject, *mount, AccessMode::kAdministrate);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  supervisor_->ArmLockdown(on, why);
  return std::string(SystemHealthName(supervisor_->system_health()));
}

}  // namespace xsec
