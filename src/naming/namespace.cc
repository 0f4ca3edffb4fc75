#include "src/naming/namespace.h"

#include <mutex>

#include "src/base/strings.h"

namespace xsec {

namespace {

// The published per-id word: shard in bits 0..15, kind in 16..23, and the
// alive bit. Shard and kind are immutable; only Unbind clears alive.
constexpr unsigned kKindShift = 16;
constexpr uint32_t kAliveBit = uint32_t{1} << 24;
static_assert(kUnknownShard <= 0xffff, "shard ids must fit the low half-word");

uint32_t NodeWord(ShardId shard, NodeKind kind) {
  return shard | (uint32_t{static_cast<uint8_t>(kind)} << kKindShift) | kAliveBit;
}

}  // namespace

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDirectory:
      return "directory";
    case NodeKind::kService:
      return "service";
    case NodeKind::kInterface:
      return "interface";
    case NodeKind::kObject:
      return "object";
    case NodeKind::kProcedure:
      return "procedure";
    case NodeKind::kFile:
      return "file";
  }
  return "unknown";
}

bool KindAllowsChildren(NodeKind kind) {
  return kind != NodeKind::kProcedure && kind != NodeKind::kFile;
}

NameSpace::NameSpace() {
  Node root;
  root.id = NodeId{0};
  root.parent = NodeId{0};
  root.kind = NodeKind::kDirectory;
  root.name = "";
  // Every node can inherit the root's ACL/label, so root metadata mutations
  // must invalidate every shard.
  root.shard = kAllShards;
  nodes_.push_back(std::move(root));
  PublishNodeLocked(0, kAllShards, NodeKind::kDirectory);
}

Node* NameSpace::GetMutableLocked(NodeId id) {
  if (id.value >= nodes_.size() || !nodes_[id.value].alive) {
    return nullptr;
  }
  return &nodes_[id.value];
}

const Node* NameSpace::GetLocked(NodeId id) const {
  if (id.value >= nodes_.size() || !nodes_[id.value].alive) {
    return nullptr;
  }
  return &nodes_[id.value];
}

const Node* NameSpace::Get(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return GetLocked(id);
}

void NameSpace::BumpShard(ShardId shard) {
  if (IsConcreteShard(shard)) {
    shard_generation_[shard].fetch_add(1, std::memory_order_release);
    return;
  }
  // kAllShards (root) / kAggregateShard: the effect is not confined to one
  // subtree, so every shard's cached decisions must go stale.
  for (auto& g : shard_generation_) {
    g.fetch_add(1, std::memory_order_release);
  }
}

void NameSpace::Touch(Node& node) {
  ++node.generation;
  BumpShard(node.shard);
  // Release: the mutation this stamp publishes happened-before any reader
  // that observes the new generation value. The aggregate stamp is bumped by
  // *every* mutation — it is the validity domain for unknown node ids and
  // for monitors running with sharding disabled.
  global_generation_.fetch_add(1, std::memory_order_release);
}

std::atomic<uint32_t>* NameSpace::NodeWordSlot(uint32_t index) const {
  size_t chunk = index >> kNodeChunkBits;
  if (chunk >= kNodeMaxChunks) {
    return nullptr;
  }
  NodeWordChunk* c = node_chunks_[chunk].load(std::memory_order_acquire);
  return c == nullptr ? nullptr : &c->word[index & (kNodeChunkSize - 1)];
}

void NameSpace::PublishNodeLocked(uint32_t index, ShardId shard, NodeKind kind) {
  size_t chunk = index >> kNodeChunkBits;
  if (chunk >= kNodeMaxChunks) {
    return;  // beyond capacity: ShardOf reports kAggregateShard, still sound
  }
  if (node_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    node_chunk_owner_.push_back(std::make_unique<NodeWordChunk>());
    node_chunks_[chunk].store(node_chunk_owner_.back().get(), std::memory_order_release);
  }
  NodeWordSlot(index)->store(NodeWord(shard, kind), std::memory_order_relaxed);
  // The element store above happens-before any reader that observes the new
  // published count.
  node_ids_published_.store(index + 1, std::memory_order_release);
}

bool NameSpace::LoadNodeWord(NodeId id, uint32_t* word) const {
  if (!id.valid() || id.value >= node_ids_published_.load(std::memory_order_acquire)) {
    return false;
  }
  const std::atomic<uint32_t>* slot = NodeWordSlot(id.value);
  if (slot == nullptr) {
    return false;
  }
  *word = slot->load(std::memory_order_relaxed);
  return true;
}

ShardId NameSpace::ShardOf(NodeId id) const {
  uint32_t word;
  if (!LoadNodeWord(id, &word)) {
    return kAggregateShard;
  }
  return word & 0xffff;
}

bool NameSpace::KindOf(NodeId id, NodeKind* out) const {
  uint32_t word;
  if (!LoadNodeWord(id, &word)) {
    if (!id.valid() || (id.value >> kNodeChunkBits) < kNodeMaxChunks) {
      return false;
    }
    // Beyond the table's capacity: read the node under the tree lock.
    std::shared_lock<std::shared_mutex> lock(mu_);
    const Node* n = GetLocked(id);
    if (n == nullptr) {
      return false;
    }
    *out = n->kind;
    return true;
  }
  if ((word & kAliveBit) == 0) {
    return false;
  }
  *out = static_cast<NodeKind>((word >> kKindShift) & 0xff);
  return true;
}

StatusOr<NodeId> NameSpace::BindLocked(NodeId parent, std::string_view name, NodeKind kind,
                                       PrincipalId owner) {
  Node* p = GetMutableLocked(parent);
  if (p == nullptr) {
    return NotFoundError("parent node does not exist");
  }
  if (!KindAllowsChildren(p->kind)) {
    return FailedPreconditionError(
        StrFormat("node '%s' is a %s and cannot have children", PathOfLocked(parent).c_str(),
                  std::string(NodeKindName(p->kind)).c_str()));
  }
  if (!IsValidComponent(name)) {
    return InvalidArgumentError(StrFormat("invalid name '%s'", std::string(name).c_str()));
  }
  if (p->children.find(name) != p->children.end()) {
    return AlreadyExistsError(
        StrFormat("'%s' already exists under '%s'", std::string(name).c_str(),
                  PathOfLocked(parent).c_str()));
  }
  NodeId id{static_cast<uint32_t>(nodes_.size())};
  Node child;
  child.id = id;
  child.parent = parent;
  child.kind = kind;
  child.name = std::string(name);
  child.owner = owner;
  // Shard assignment (immutable from here on): top-level containers start a
  // subtree of their own, keyed by name; top-level leaves have no subtree,
  // so they follow their owner (the flat-namespace fallback); deeper nodes
  // inherit the subtree's shard.
  if (parent == root()) {
    child.shard = KindAllowsChildren(kind) ? ShardOfName(name) : ShardOfPrincipal(owner.value);
  } else {
    child.shard = p->shard;
  }
  ShardId child_shard = child.shard;
  nodes_.push_back(std::move(child));
  PublishNodeLocked(id.value, child_shard, kind);
  p->children.emplace(std::string(name), id);
  // The structural change is confined to the child's validity domain: no
  // cached decision about the *parent* depends on its children map, but a
  // cached NotFound (aggregate domain) or a compiled table covering the
  // child's shard must go stale. The parent keeps its node-local generation
  // bump for observers of Node::generation.
  ++p->generation;
  BumpShard(child_shard);
  global_generation_.fetch_add(1, std::memory_order_release);
  return id;
}

StatusOr<NodeId> NameSpace::Bind(NodeId parent, std::string_view name, NodeKind kind,
                                 PrincipalId owner) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return BindLocked(parent, name, kind, owner);
}

StatusOr<NodeId> NameSpace::BindPath(std::string_view path, NodeKind kind, PrincipalId owner) {
  auto components = ParsePath(path);
  if (!components.ok()) {
    return components.status();
  }
  if (components->empty()) {
    return InvalidArgumentError("cannot bind the root");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  NodeId cur = root();
  for (size_t i = 0; i + 1 < components->size(); ++i) {
    auto child = ChildLocked(cur, (*components)[i]);
    if (child.ok()) {
      cur = *child;
      continue;
    }
    // Auto-created intermediates take the *enclosing* directory's owner, not
    // the caller's. Giving them the final node's owner would silently grant
    // the caller the owner-administrate fallback on every path prefix it
    // named — a privilege the caller never held on those directories.
    auto made = BindLocked(cur, (*components)[i], NodeKind::kDirectory, nodes_[cur.value].owner);
    if (!made.ok()) {
      return made.status();
    }
    cur = *made;
  }
  return BindLocked(cur, components->back(), kind, owner);
}

Status NameSpace::Unbind(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(node);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  if (node == root()) {
    return FailedPreconditionError("cannot unbind the root");
  }
  if (!n->children.empty()) {
    return FailedPreconditionError(
        StrFormat("'%s' still has %zu children", PathOfLocked(node).c_str(), n->children.size()));
  }
  Node& parent = nodes_[n->parent.value];
  parent.children.erase(n->name);
  n->alive = false;
  if (std::atomic<uint32_t>* word = NodeWordSlot(node.value)) {
    word->store(word->load(std::memory_order_relaxed) & ~kAliveBit, std::memory_order_relaxed);
  }
  // As in BindLocked: the structural edit only affects decisions in the
  // removed node's validity domain (and the aggregate domain, via Touch's
  // global bump). Bumping the parent's shard here would re-create the
  // invalidation storm for top-level unbinds, whose parent is the root.
  ++parent.generation;
  Touch(*n);
  return OkStatus();
}

StatusOr<NodeId> NameSpace::ChildLocked(NodeId parent, std::string_view name) const {
  const Node* p = GetLocked(parent);
  if (p == nullptr) {
    return NotFoundError("parent node does not exist");
  }
  auto it = p->children.find(name);
  if (it == p->children.end()) {
    return NotFoundError(StrFormat("'%s' has no child '%s'", PathOfLocked(parent).c_str(),
                                   std::string(name).c_str()));
  }
  return it->second;
}

StatusOr<NodeId> NameSpace::Child(NodeId parent, std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ChildLocked(parent, name);
}

StatusOr<NodeId> NameSpace::Lookup(std::string_view path) const {
  return LookupWithAncestors(path, nullptr);
}

StatusOr<NodeId> NameSpace::LookupWithAncestors(std::string_view path,
                                                AncestorBuffer* ancestors) const {
  auto components = ParsePath(path);
  if (!components.ok()) {
    return components.status();
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  NodeId cur = root();
  for (const std::string& component : *components) {
    if (ancestors != nullptr) {
      ancestors->push_back(cur);
    }
    auto next = ChildLocked(cur, component);
    if (!next.ok()) {
      return next.status();
    }
    cur = *next;
  }
  return cur;
}

StatusOr<std::vector<NodeId>> NameSpace::List(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Node* n = GetLocked(node);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  std::vector<NodeId> out;
  out.reserve(n->children.size());
  for (const auto& [name, id] : n->children) {
    out.push_back(id);
  }
  return out;
}

StatusOr<std::vector<std::string>> NameSpace::ListNames(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Node* n = GetLocked(node);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  std::vector<std::string> out;
  out.reserve(n->children.size());
  for (const auto& [name, id] : n->children) {
    out.push_back(name);
  }
  return out;
}

bool NameSpace::SnapshotSecurity(NodeId id, SecuritySnapshot* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Node* n = GetLocked(id);
  if (n == nullptr) {
    return false;
  }
  out->owner = n->owner;
  out->own_acl_ref = n->acl_ref;
  out->own_label_ref = n->label_ref;
  out->shard = n->shard;
  out->effective_acl_ref = kNoRef;
  out->effective_label_ref = kNoRef;
  // Ancestors of a live node are always alive (only leaves can be unbound),
  // so the walk needs no liveness checks.
  const Node* cur = n;
  while (true) {
    if (out->effective_acl_ref == kNoRef && cur->acl_ref != kNoRef) {
      out->effective_acl_ref = cur->acl_ref;
    }
    if (out->effective_label_ref == kNoRef && cur->label_ref != kNoRef) {
      out->effective_label_ref = cur->label_ref;
    }
    if ((out->effective_acl_ref != kNoRef && out->effective_label_ref != kNoRef) ||
        cur->id == root()) {
      break;
    }
    cur = &nodes_[cur->parent.value];
  }
  return true;
}

std::string NameSpace::PathOfLocked(NodeId id) const {
  const Node* n = GetLocked(id);
  if (n == nullptr) {
    return "<dead>";
  }
  if (id == root()) {
    return "/";
  }
  std::vector<const Node*> chain;
  while (n->id != root()) {
    chain.push_back(n);
    n = &nodes_[n->parent.value];
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out += '/';
    out += (*it)->name;
  }
  return out;
}

std::string NameSpace::PathOf(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return PathOfLocked(id);
}

size_t NameSpace::node_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return nodes_.size();
}

Status NameSpace::SetAclRef(NodeId id, uint32_t acl_ref) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->acl_ref = acl_ref;
  Touch(*n);
  return OkStatus();
}

Status NameSpace::SetLabelRef(NodeId id, uint32_t label_ref) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->label_ref = label_ref;
  Touch(*n);
  return OkStatus();
}

Status NameSpace::SetOwner(NodeId id, PrincipalId owner) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node* n = GetMutableLocked(id);
  if (n == nullptr) {
    return NotFoundError("node does not exist");
  }
  n->owner = owner;
  Touch(*n);
  return OkStatus();
}

}  // namespace xsec
