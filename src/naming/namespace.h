// The single, universal, hierarchical name space (paper §2.3).
//
// Every protected thing in the system — services, interfaces, objects,
// procedures/methods, directories, files — is a node in one tree. Leaves are
// procedures and files; non-leaves are directories, services, interfaces and
// objects. The reference monitor attaches protection state (an ACL reference
// and a MAC label reference) to every node, which is what lets one central
// facility enforce all protection: "this similarity in structure allows for
// the use of a single, universal name space … and thus enables a central name
// server to enforce all protection."
//
// This class is only the tree; it stores the security references as opaque
// handles and never interprets them. Interpretation is the reference
// monitor's job (src/monitor/), keeping the mechanism in exactly one place.
//
// Thread safety: all public methods may be called concurrently. Mutators
// take the tree lock exclusively; readers share it. Methods that return
// values (ids, paths, SecuritySnapshot) are safe under concurrent mutation.
// Get() returns a pointer whose *address* is stable for the life of the
// NameSpace (nodes are never destroyed), but whose fields may change under a
// concurrent mutator; callers that dereference it across operations must
// either hold external synchronization or tolerate torn metadata — the
// monitor's check path uses SnapshotSecurity() instead. A node's kind and
// shard never change, so ShardOf() and KindOf() read them from a lock-free
// per-id table instead of taking the tree lock.

#ifndef XSEC_SRC_NAMING_NAMESPACE_H_
#define XSEC_SRC_NAMING_NAMESPACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/inline_vector.h"
#include "src/base/shard.h"
#include "src/base/status.h"
#include "src/naming/path.h"
#include "src/principal/principal.h"

namespace xsec {

enum class NodeKind : uint8_t {
  kDirectory = 0,  // pure grouping (also: Java package, SPIN domain)
  kService,        // a loadable system service
  kInterface,      // a group of procedures; the unit extensions extend
  kObject,         // an instance (e.g. a thread, an mbuf pool)
  kProcedure,      // leaf: a callable method/procedure
  kFile,           // leaf: file contents live in the memfs service
};

std::string_view NodeKindName(NodeKind kind);

// True for kinds that may have children.
bool KindAllowsChildren(NodeKind kind);

struct NodeId {
  uint32_t value = kInvalid;

  static constexpr uint32_t kInvalid = 0xffffffff;

  bool valid() const { return value != kInvalid; }

  friend bool operator==(NodeId a, NodeId b) { return a.value == b.value; }
  friend bool operator!=(NodeId a, NodeId b) { return a.value != b.value; }
  friend bool operator<(NodeId a, NodeId b) { return a.value < b.value; }
};

// Opaque references into the security layers. kNoRef means "not set":
// an unset ACL falls back to the nearest ancestor's ACL; an unset label
// falls back to the nearest labeled ancestor (the monitor implements both).
inline constexpr uint32_t kNoRef = 0xffffffff;

struct Node {
  NodeId id;
  NodeId parent;
  NodeKind kind = NodeKind::kDirectory;
  std::string name;          // component name; "" for the root
  bool alive = true;         // false once unbound (ids are never reused)
  uint64_t generation = 0;   // bumped on any structural or metadata change

  // Monitor shard (validity domain). Assigned at Bind and immutable after:
  // top-level containers hash by name, top-level leaves by owner (flat-
  // namespace fallback), deeper nodes inherit their parent's. The root is
  // kAllShards: mutating its metadata invalidates every shard, since every
  // node can inherit its ACL/label.
  ShardId shard = kAggregateShard;

  PrincipalId owner;         // creating principal; administrate fallback
  uint32_t acl_ref = kNoRef;
  uint32_t label_ref = kNoRef;

  // Children sorted by name for deterministic listing.
  std::map<std::string, NodeId, std::less<>> children;
};

// Ancestor chains deeper than this spill to the heap; 12 levels covers every
// path the services and benches create, so mediated lookups stay
// allocation-free (the F1 cached-check budget counts on it).
inline constexpr size_t kAncestorInlineDepth = 12;
using AncestorBuffer = InlineVector<NodeId, kAncestorInlineDepth>;

class NameSpace {
 public:
  NameSpace();

  NodeId root() const { return NodeId{0}; }

  // Creates a child of `parent`. Fails if the parent is a leaf kind, is dead,
  // or already has a child with that name.
  StatusOr<NodeId> Bind(NodeId parent, std::string_view name, NodeKind kind, PrincipalId owner);

  // Creates every missing intermediate directory, then the final node with
  // `kind`. Existing intermediates are reused regardless of their kind as
  // long as they allow children.
  StatusOr<NodeId> BindPath(std::string_view path, NodeKind kind, PrincipalId owner);

  // Removes a node. Fails on the root or on a node with live children.
  Status Unbind(NodeId node);

  // Pure name resolution; no access checks (the monitor layers those on).
  StatusOr<NodeId> Lookup(std::string_view path) const;

  // Resolution that also reports the ancestor chain (root first, excluding
  // the target). The monitor checks traversal rights on each ancestor. The
  // buffer is inline up to kAncestorInlineDepth, so typical lookups do not
  // allocate.
  StatusOr<NodeId> LookupWithAncestors(std::string_view path,
                                       AncestorBuffer* ancestors) const;

  // Single-step child lookup.
  StatusOr<NodeId> Child(NodeId parent, std::string_view name) const;

  // Children of a node, sorted by name.
  StatusOr<std::vector<NodeId>> List(NodeId node) const;
  // Their names, copied under the same lock acquisition (a child unbound
  // right after List() would leave its id without a live node to name).
  StatusOr<std::vector<std::string>> ListNames(NodeId node) const;

  const Node* Get(NodeId id) const;

  // The kind of a live node, without taking the tree lock: false (and *out
  // untouched) if the id was never bound or the node has been unbound. The
  // dispatch path (Kernel::InvokeNode) reads this on every call.
  bool KindOf(NodeId id, NodeKind* out) const;

  // Everything the reference monitor needs to decide an access, copied out
  // under one shared-lock acquisition so the ancestor walk is atomic with
  // respect to concurrent tree mutation. The effective refs are the first
  // non-kNoRef acl_ref / label_ref on the path node → root (ACL/label
  // inheritance); the own refs are the node's own fields.
  struct SecuritySnapshot {
    PrincipalId owner;
    uint32_t own_acl_ref = kNoRef;
    uint32_t own_label_ref = kNoRef;
    uint32_t effective_acl_ref = kNoRef;
    uint32_t effective_label_ref = kNoRef;
    // Validity domain of any decision derived from this snapshot. Concrete
    // for ordinary nodes; kAllShards for the root.
    ShardId shard = kAggregateShard;
  };
  // False iff the node does not exist (or is dead).
  bool SnapshotSecurity(NodeId id, SecuritySnapshot* out) const;

  // Reconstructs the absolute path of a live node.
  std::string PathOf(NodeId id) const;

  // Security-metadata mutators (called by the monitor; bump generations).
  Status SetAclRef(NodeId id, uint32_t acl_ref);
  Status SetLabelRef(NodeId id, uint32_t label_ref);
  Status SetOwner(NodeId id, PrincipalId owner);

  size_t node_count() const;

  // Bumped on every mutation anywhere in the tree; decision-cache validity.
  // Published with release ordering *after* the mutation is complete, so a
  // reader that observes a given generation and then reads the tree sees at
  // least that mutation (see docs/MODEL.md, "Concurrency model").
  uint64_t global_generation() const { return global_generation_.load(std::memory_order_acquire); }

  // Per-shard generation: bumped only by mutations whose validity domain is
  // (or includes) that shard. Same release discipline as global_generation.
  // A root-metadata mutation bumps every shard; a Bind/Unbind or metadata
  // change elsewhere bumps only the affected node's shard. The global
  // generation is still bumped by *every* mutation (aggregate domain).
  uint64_t shard_generation(ShardId shard) const {
    return shard_generation_[shard % kMonitorShardCount].load(std::memory_order_acquire);
  }

  // Monitor shard of a node id, readable without taking the tree lock (the
  // assignment is immutable once the id is published; an unbound node keeps
  // its shard). Unknown / not-yet-published ids — including NotFound
  // targets — report kAggregateShard, the domain whose stamps every
  // mutation bumps. The root reports kAllShards.
  ShardId ShardOf(NodeId id) const;

 private:
  // Unlocked internals; callers hold mu_ (shared for const, exclusive for
  // mutation).
  const Node* GetLocked(NodeId id) const;
  Node* GetMutableLocked(NodeId id);
  StatusOr<NodeId> ChildLocked(NodeId parent, std::string_view name) const;
  StatusOr<NodeId> BindLocked(NodeId parent, std::string_view name, NodeKind kind,
                              PrincipalId owner);
  std::string PathOfLocked(NodeId id) const;
  void Touch(Node& node);
  void BumpShard(ShardId shard);
  // Publishes a new node's {shard, kind, alive} word (BindLocked).
  void PublishNodeLocked(uint32_t index, ShardId shard, NodeKind kind);
  // The table entry of an id, or null beyond the allocated chunks.
  std::atomic<uint32_t>* NodeWordSlot(uint32_t index) const;
  // The published word of an id; false if the id is not published.
  bool LoadNodeWord(NodeId id, uint32_t* word) const;

  mutable std::shared_mutex mu_;
  // Deque, not vector: node addresses stay stable across Bind, so Get()'s
  // returned pointers never dangle.
  std::deque<Node> nodes_;
  std::atomic<uint64_t> global_generation_{0};
  std::array<std::atomic<uint64_t>, kMonitorShardCount> shard_generation_{};

  // Lock-free id→{shard, kind, alive} map for the check and dispatch hot
  // paths: one 32-bit word per id (NodeWord in namespace.cc) in fixed-size
  // chunks published with release stores. Writers append, and Unbind clears
  // the alive bit, under mu_; readers never take a lock. Ids beyond the
  // published count (or beyond capacity, ~16M nodes) report the aggregate
  // domain, which stays sound because the aggregate stamps are bumped by
  // every mutation; KindOf reads ids beyond capacity under the tree lock.
  static constexpr size_t kNodeChunkBits = 12;
  static constexpr size_t kNodeChunkSize = size_t{1} << kNodeChunkBits;
  static constexpr size_t kNodeMaxChunks = 4096;
  struct NodeWordChunk {
    std::array<std::atomic<uint32_t>, kNodeChunkSize> word;
  };
  std::array<std::atomic<NodeWordChunk*>, kNodeMaxChunks> node_chunks_{};
  std::atomic<size_t> node_ids_published_{0};
  std::vector<std::unique_ptr<NodeWordChunk>> node_chunk_owner_;  // under mu_
};

}  // namespace xsec

#endif  // XSEC_SRC_NAMING_NAMESPACE_H_
