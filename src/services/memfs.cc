#include "src/services/memfs.h"

#include <algorithm>

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/extsys/cooperative_budget.h"

namespace xsec {

namespace {

// Bulk content copies poll for cancellation once per this many bytes; a
// caller abandoning a multi-megabyte read stops paying for it within one
// chunk instead of at the end.
constexpr size_t kCopyChunkBytes = 64 * 1024;

// Directory scans poll once per this many entries.
constexpr uint64_t kScanPollEntries = 64;

}  // namespace

MemFs::MemFs(Kernel* kernel, std::string mount_path, std::string service_path)
    : kernel_(kernel), mount_path_(std::move(mount_path)), service_path_(std::move(service_path)) {}

Status MemFs::Install() {
  PrincipalId system = kernel_->system_principal();
  auto mount = kernel_->name_space().BindPath(mount_path_, NodeKind::kDirectory, system);
  if (!mount.ok()) {
    return mount.status();
  }
  auto svc = kernel_->RegisterService(service_path_, system);
  if (!svc.ok()) {
    return svc.status();
  }

  auto proc = [this, system](std::string_view name, HandlerFn fn) -> Status {
    auto node = kernel_->RegisterProcedure(JoinPath(service_path_, name), system, std::move(fn));
    return node.ok() ? OkStatus() : node.status();
  };

  XSEC_RETURN_IF_ERROR(proc("create", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    auto node = Create(*ctx.subject, *path);
    if (!node.ok()) {
      return node.status();
    }
    return Value{static_cast<int64_t>(node->value)};
  }));
  XSEC_RETURN_IF_ERROR(proc("mkdir", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    auto node = MkDir(*ctx.subject, *path);
    if (!node.ok()) {
      return node.status();
    }
    return Value{static_cast<int64_t>(node->value)};
  }));
  XSEC_RETURN_IF_ERROR(proc("read", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    auto data = Read(*ctx.subject, *path, &ctx);
    if (!data.ok()) {
      return data.status();
    }
    return Value{std::move(*data)};
  }));
  XSEC_RETURN_IF_ERROR(proc("write", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    auto data = ArgBytes(ctx.args, 1);
    if (!path.ok()) {
      return path.status();
    }
    if (!data.ok()) {
      return data.status();
    }
    XSEC_RETURN_IF_ERROR(Write(*ctx.subject, *path, std::move(*data), &ctx));
    return Value{true};
  }));
  XSEC_RETURN_IF_ERROR(proc("append", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    auto data = ArgBytes(ctx.args, 1);
    if (!path.ok()) {
      return path.status();
    }
    if (!data.ok()) {
      return data.status();
    }
    XSEC_RETURN_IF_ERROR(Append(*ctx.subject, *path, *data, &ctx));
    return Value{true};
  }));
  XSEC_RETURN_IF_ERROR(proc("remove", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    XSEC_RETURN_IF_ERROR(Remove(*ctx.subject, *path));
    return Value{true};
  }));
  XSEC_RETURN_IF_ERROR(proc("list", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    auto names = ListDir(*ctx.subject, *path, &ctx);
    if (!names.ok()) {
      return names.status();
    }
    return Value{StrJoin(*names, "\n")};
  }));
  XSEC_RETURN_IF_ERROR(proc("stat", [this](CallContext& ctx) -> StatusOr<Value> {
    auto path = ArgString(ctx.args, 0);
    if (!path.ok()) {
      return path.status();
    }
    auto size = Stat(*ctx.subject, *path);
    if (!size.ok()) {
      return size.status();
    }
    return Value{*size};
  }));
  return OkStatus();
}

StatusOr<NodeId> MemFs::CreateFileAsSystem(std::string_view path, std::vector<uint8_t> contents) {
  if (!StartsWith(path, mount_path_ + "/")) {
    return InvalidArgumentError(
        StrFormat("'%s' is outside the mount '%s'", std::string(path).c_str(),
                  mount_path_.c_str()));
  }
  auto node = kernel_->name_space().BindPath(path, NodeKind::kFile, kernel_->system_principal());
  if (!node.ok()) {
    return node.status();
  }
  contents_[node->value] = std::move(contents);
  return node;
}

StatusOr<NodeId> MemFs::ResolveChecked(Subject& subject, std::string_view path,
                                       AccessModeSet modes, NodeKind kind) {
  if (!StartsWith(path, mount_path_ + "/") && path != mount_path_) {
    return InvalidArgumentError(
        StrFormat("'%s' is outside the mount '%s'", std::string(path).c_str(),
                  mount_path_.c_str()));
  }
  NodeId node;
  Decision decision = kernel_->monitor().CheckPath(subject, path, modes, &node);
  if (!decision.allowed) {
    return decision.ToStatus();
  }
  NodeKind actual;
  if (!kernel_->name_space().KindOf(node, &actual)) {
    return NotFoundError(StrFormat("'%s' vanished", std::string(path).c_str()));
  }
  if (actual != kind) {
    return FailedPreconditionError(
        StrFormat("'%s' is a %s, expected %s", std::string(path).c_str(),
                  std::string(NodeKindName(actual)).c_str(),
                  std::string(NodeKindName(kind)).c_str()));
  }
  return node;
}

StatusOr<NodeId> MemFs::Create(Subject& subject, std::string_view path) {
  auto parent = ResolveChecked(subject, ParentPath(path), AccessMode::kWrite,
                               NodeKind::kDirectory);
  if (!parent.ok()) {
    return parent.status();
  }
  auto node = kernel_->name_space().Bind(*parent, Basename(path), NodeKind::kFile,
                                         subject.principal);
  if (!node.ok()) {
    return node.status();
  }
  contents_[node->value] = {};
  return node;
}

StatusOr<NodeId> MemFs::MkDir(Subject& subject, std::string_view path) {
  auto parent = ResolveChecked(subject, ParentPath(path), AccessMode::kWrite,
                               NodeKind::kDirectory);
  if (!parent.ok()) {
    return parent.status();
  }
  return kernel_->name_space().Bind(*parent, Basename(path), NodeKind::kDirectory,
                                    subject.principal);
}

StatusOr<std::vector<uint8_t>> MemFs::Read(Subject& subject, std::string_view path,
                                           const CallContext* call) {
  auto node = ResolveChecked(subject, path, AccessMode::kRead, NodeKind::kFile);
  if (!node.ok()) {
    return node.status();
  }
  // Post-mediation I/O fault site: the check allowed, the device failed.
  XSEC_FAILPOINT("memfs.read");
  const std::vector<uint8_t>& src = contents_[node->value];
  CooperativeBudget budget(call, kCopyChunkBytes);
  std::vector<uint8_t> out;
  out.reserve(src.size());
  for (size_t off = 0; off < src.size(); off += kCopyChunkBytes) {
    const size_t len = std::min(kCopyChunkBytes, src.size() - off);
    XSEC_RETURN_IF_ERROR(budget.Charge(len));
    out.insert(out.end(), src.begin() + static_cast<ptrdiff_t>(off),
               src.begin() + static_cast<ptrdiff_t>(off + len));
  }
  return out;
}

Status MemFs::Write(Subject& subject, std::string_view path, std::vector<uint8_t> data,
                    const CallContext* call) {
  auto node = ResolveChecked(subject, path, AccessMode::kWrite, NodeKind::kFile);
  if (!node.ok()) {
    return node.status();
  }
  // Fires before any mutation, so an injected failure leaves the old
  // contents fully intact.
  XSEC_FAILPOINT("memfs.write");
  // The overwrite itself is one O(1) move, so it is a single work unit: poll
  // once before committing, and a cancelled caller leaves the old contents
  // fully intact.
  if (call != nullptr) {
    XSEC_RETURN_IF_ERROR(call->CheckDeadline());
  }
  contents_[node->value] = std::move(data);
  return OkStatus();
}

Status MemFs::Append(Subject& subject, std::string_view path,
                     const std::vector<uint8_t>& data, const CallContext* call) {
  // Either write-append or full write suffices; try the narrower mode first.
  auto node = ResolveChecked(subject, path, AccessMode::kWriteAppend, NodeKind::kFile);
  if (!node.ok()) {
    node = ResolveChecked(subject, path, AccessMode::kWrite, NodeKind::kFile);
  }
  if (!node.ok()) {
    return node.status();
  }
  // Same contract as the cancellation rollback below: an injected failure
  // here (or mid-copy) must never leave a torn suffix behind.
  XSEC_FAILPOINT("memfs.append");
  std::vector<uint8_t>& dst = contents_[node->value];
  const size_t old_size = dst.size();
  CooperativeBudget budget(call, kCopyChunkBytes);
  for (size_t off = 0; off < data.size(); off += kCopyChunkBytes) {
    const size_t len = std::min(kCopyChunkBytes, data.size() - off);
    Status deadline = budget.Charge(len);
    if (!deadline.ok()) {
      // Roll back the partial append: a cancelled call must not leave a
      // torn suffix behind.
      dst.resize(old_size);
      return deadline;
    }
    dst.insert(dst.end(), data.begin() + static_cast<ptrdiff_t>(off),
               data.begin() + static_cast<ptrdiff_t>(off + len));
  }
  return OkStatus();
}

Status MemFs::Remove(Subject& subject, std::string_view path) {
  auto node = ResolveChecked(subject, path, AccessMode::kDelete, NodeKind::kFile);
  if (!node.ok()) {
    return node.status();
  }
  auto parent = ResolveChecked(subject, ParentPath(path), AccessMode::kWrite,
                               NodeKind::kDirectory);
  if (!parent.ok()) {
    return parent.status();
  }
  XSEC_RETURN_IF_ERROR(kernel_->name_space().Unbind(*node));
  contents_.erase(node->value);
  return OkStatus();
}

StatusOr<std::vector<std::string>> MemFs::ListDir(Subject& subject, std::string_view path,
                                                  const CallContext* call) {
  auto node = ResolveChecked(subject, path, AccessMode::kList, NodeKind::kDirectory);
  if (!node.ok()) {
    return node.status();
  }
  XSEC_FAILPOINT("memfs.list");
  auto names = kernel_->name_space().ListNames(*node);
  if (!names.ok()) {
    return names.status();
  }
  // The names are copied under one tree-lock hold; a directory large enough
  // to cross the poll interval still honors the caller's deadline.
  CooperativeBudget budget(call, kScanPollEntries);
  XSEC_RETURN_IF_ERROR(budget.Charge(names->size()));
  return names;
}

StatusOr<int64_t> MemFs::Stat(Subject& subject, std::string_view path) {
  auto node = ResolveChecked(subject, path, AccessMode::kRead, NodeKind::kFile);
  if (!node.ok()) {
    return node.status();
  }
  return static_cast<int64_t>(contents_[node->value].size());
}

}  // namespace xsec
