// Compiled policy decisions: the reference monitor's miss path, flattened
// into tables (ROADMAP "Policy compilation for raw check speed").
//
// A CompiledPolicy is an immutable snapshot of the entire decision function
// for one stamp vector:
//
//   - per-node: owner, effective-ACL row and interned effective-label id,
//     precomputed by one SnapshotSecurity ancestor walk per node at build
//     time instead of one walk per check;
//   - DAC: a dense (acl × principal) matrix of packed uint16 cells,
//     allowed-mask | denied-mask << 8, folding each principal's membership
//     closure through every ACL entry once at build time — evaluation is one
//     load and two ANDs, reproducing deny-overrides exactly;
//   - MAC: lattice dominance over every interned class (LabelAuthority::
//     CompileDominance) folded through FlowAllowedMask into a (class × class)
//     byte matrix of allowed-mode masks — the S ⊒ O / O ⊒ S pair collapses
//     to one byte load.
//
// Soundness contract: Evaluate() for a node may be consulted ONLY while the
// stamp vector of that node's *validity domain* (its monitor shard, or the
// aggregate domain for unknown ids) still equals the stores' current stamps
// for that domain (the monitor checks this; any policy-relevant mutation
// bumps the affected shard's stamps, and conservatively tagged mutations
// bump all of them). Within a valid stamp vector the tables are
// exhaustive over everything that existed at build time; anything that can
// appear WITHOUT a stamp bump — a principal id beyond the compiled width
// (CreateUser bumps no stamp) or a subject class that is not interned —
// makes Evaluate return false ("not covered"), never a guess, and the
// caller falls back to the interpreted path. Node ids beyond the compiled
// width are decided (kNotFound): Bind always bumps the namespace
// generation, so within a valid stamp vector such a node cannot exist.
//
// Equivalence contract: for covered inputs, Evaluate returns bit-for-bit
// the Decision (allowed, reason, AND detail string) that
// ReferenceMonitor::CheckUncached computes — tests/diff_fuzz_test.cc holds
// the two paths against each other under randomized policies, mutations,
// and fault injection.

#ifndef XSEC_SRC_MONITOR_COMPILED_POLICY_H_
#define XSEC_SRC_MONITOR_COMPILED_POLICY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/page_array.h"
#include "src/base/status.h"
#include "src/dac/acl.h"
#include "src/mac/flow_policy.h"
#include "src/mac/label_authority.h"
#include "src/monitor/decision_cache.h"
#include "src/monitor/subject.h"
#include "src/naming/namespace.h"
#include "src/principal/registry.h"

namespace xsec {

struct Decision;  // src/monitor/reference_monitor.h

// The slice of MonitorOptions a compile depends on, plus size caps. The caps
// bound build cost and memory: a store too large to flatten is a build
// failure (kResourceExhausted), which the monitor treats as "stay
// interpreted", never as an error visible to Check callers.
struct CompiledPolicyConfig {
  bool dac_enabled = true;
  bool mac_enabled = true;
  FlowPolicyOptions flow;
  // Interned-class cap for the dominance matrix (memory is O(n^2)).
  size_t max_classes = 192;
  // Cap on (acl count + 1) * principal count uint16 DAC cells (8 MiB at the
  // default).
  size_t max_dac_cells = size_t{1} << 22;
};

class CompiledPolicy {
 public:
  // Flattens the four stores into tables. `stamps` must be the stamp vector
  // the caller read BEFORE calling Build; the caller must re-read stamps
  // after Build returns and discard the result on any difference (a
  // mutation may have committed mid-build). Each store is read under its
  // own lock, so a discarded build is wasted work, never a torn table that
  // gets used. `extra_classes` are additional security classes to intern
  // (the monitor feeds back subject classes that previously missed the
  // matrix, so repeat fallbacks converge onto the fast path).
  //
  // Fails with kResourceExhausted when a cap is exceeded and with whatever
  // the "monitor.recompile" failpoint injects.
  static StatusOr<std::shared_ptr<const CompiledPolicy>> Build(
      const NameSpace& name_space, const AclStore& acls, const PrincipalRegistry& principals,
      const LabelAuthority& labels, const CompiledPolicyConfig& config,
      const ShardStampSet& stamps, const std::vector<SecurityClass>& extra_classes = {});

  // Decides `modes` for `subject` on `node` from the tables alone. Returns
  // true and fills *out when the tables cover the inputs; returns false
  // (out untouched) when they do not — subject principal beyond the
  // compiled width, or (under MAC) a subject class that is not interned.
  // `labels` is used only to format the MAC denial detail, exactly as the
  // interpreted path does.
  bool Evaluate(const Subject& subject, NodeId node, AccessModeSet modes,
                const LabelAuthority& labels, Decision* out) const;

  // The full per-shard stamp family the tables were built against. A probe
  // validates only the target node's shard entry (plus the aggregate entry
  // for unknown node ids) — see ReferenceMonitor::TryCompiledCheck.
  const ShardStampSet& stamps() const { return stamps_; }
  const CompiledPolicyConfig& config() const { return config_; }
  size_t node_count() const { return nodes_.size(); }
  size_t principal_count() const { return principal_count_; }
  size_t class_count() const { return matrix_ ? matrix_->size() : 0; }
  const std::shared_ptr<const DominanceMatrix>& dominance() const { return matrix_; }
  // Approximate table footprint, for introspection/stats.
  size_t table_bytes() const;

 private:
  CompiledPolicy() = default;

  // Per-node flattening of SnapshotSecurity. `dac_row` indexes the DAC cell
  // matrix (kNoAcl = no effective ACL anywhere up the tree); `label_id` is
  // the interned effective label (kNoLabel = not interned, forces fallback
  // under MAC).
  struct NodeEntry {
    PrincipalId owner;
    uint32_t dac_row = kNoAcl;
    int32_t label_id = kNoLabel;
    bool alive = false;
  };
  static constexpr uint32_t kNoAcl = 0xffffffff;
  static constexpr int32_t kNoLabel = -1;

  std::vector<NodeEntry> nodes_;
  // (acl_count + 1) rows × principal_count columns; row acl_count is
  // all-zero and absorbs dangling ACL refs (they evaluate like an empty
  // ACL, exactly as AclStore::Evaluate treats a bad ref). Cell = allowed
  // mode mask | denied mode mask << 8. Several MB at the generated
  // benchmark policy's size and rebuilt on every recompile, so it gets pages
  // of its own that go back to the system when the tables are dropped (see
  // src/base/page_array.h).
  PageArray<uint16_t> dac_;
  size_t principal_count_ = 0;
  std::shared_ptr<const DominanceMatrix> matrix_;
  // class_count × class_count; [subject_id * n + object_id] = allowed-mode
  // mask from FlowAllowedMask (the single source of truth shared with the
  // interpreted FlowPolicy).
  std::vector<uint8_t> mac_mask_;
  ShardStampSet stamps_;
  CompiledPolicyConfig config_;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_COMPILED_POLICY_H_
