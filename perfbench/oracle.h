// The benchmark's exact oracle: an independent model of the protection
// state the generator emits, used to predict every request's outcome.
//
// It shares no code with the monitor. Closure is a depth-first walk of the
// generator's own membership lists, DAC is deny-overrides over the nearest
// ACL up the tree, MAC is the paper's dominance rule written out per mode,
// and class-selected dispatch picks the most trusted handler the caller
// dominates. The benchmark compares every outcome against this model, and a
// self-check holds it equal to ReferenceMonitor::CheckInterpreted.

#ifndef XSEC_PERFBENCH_ORACLE_H_
#define XSEC_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Access-mode bits, as the policy text names them.
enum Mode : uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kWriteAppend = 1u << 2,
  kExecute = 1u << 3,
  kExtend = 1u << 4,
  kAdministrate = 1u << 5,
  kDelete = 1u << 6,
  kList = 1u << 7,
};

// "read|list" in the policy grammar.
std::string ModeText(uint32_t modes);

// A point in the levels x category-subsets lattice.
struct Cls {
  uint16_t level = 0;
  uint32_t cats = 0;  // bit i = category i
  bool Dominates(const Cls& o) const { return level >= o.level && (o.cats & ~cats) == 0; }
  bool operator==(const Cls&) const = default;
};

enum class Kind : uint8_t { kDirectory, kService, kInterface, kProcedure, kFile };
const char* KindText(Kind kind);

// Why a decision denied; mirrors the monitor's reasons that the workloads
// can produce, so the self-check compares reasons too.
enum class Why : uint8_t { kAllowed, kTraversal, kDacExplicitDeny, kDacNoGrant, kMacFlow };
const char* WhyText(Why why);

struct Verdict {
  bool allowed = false;
  Why why = Why::kAllowed;
};

struct PrincipalSpec {
  std::string name;
  bool group = false;
  bool boot = false;                 // exists before the policy loads
  std::vector<uint32_t> member_of;   // direct parent groups
};

struct AclEntrySpec {
  bool deny = false;
  uint32_t who = 0;
  uint32_t modes = 0;
};

struct NodeSpec {
  std::string path;
  int32_t parent = -1;  // -1 for the root
  Kind kind = Kind::kDirectory;
  uint32_t owner = 0;
  bool boot = false;    // created by the base system, not by a node directive
  bool has_acl = false;
  std::vector<AclEntrySpec> acl;
  bool has_label = false;
  Cls label;
  std::vector<uint32_t> children;  // in name order
};

// Handler registered on an interface: its class and the value it returns.
struct HandlerSpec {
  Cls cls;
  int64_t tag = 0;
};

class Model {
 public:
  std::vector<PrincipalSpec> principals;
  std::vector<NodeSpec> nodes;
  // Per interface node: handlers in registration order.
  std::vector<std::vector<HandlerSpec>> handlers;  // indexed by node
  std::vector<std::string> level_names;
  std::vector<std::string> category_names;

  // Computes every principal's membership closure; call once after the
  // principal graph is final.
  void Finish();

  bool InClosure(uint32_t principal, uint32_t group) const {
    return (closure_[principal][group / 64] >> (group % 64)) & 1;
  }

  // One node-level decision (no traversal), like Check on a resolved node.
  Verdict Decide(uint32_t principal, const Cls& cls, uint32_t node, uint32_t modes) const;
  // Full path resolution: `list` on every ancestor, then `modes` on the node.
  Verdict DecidePath(uint32_t principal, const Cls& cls, uint32_t node, uint32_t modes) const;
  // Class-selected dispatch: tag of the chosen handler, or false when the
  // caller dominates none.
  bool Select(uint32_t iface, const Cls& caller, int64_t* tag) const;

  std::vector<uint32_t> AncestorsOf(uint32_t node) const;  // root first

 private:
  std::vector<std::vector<uint64_t>> closure_;
};

}  // namespace perfbench

#endif  // XSEC_PERFBENCH_ORACLE_H_
