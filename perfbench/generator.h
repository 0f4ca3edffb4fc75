// Seeded input generator for the end-to-end benchmark.
//
// From one seed it emits everything the benchmark feeds the system: the
// policy text (loaded with LoadPolicy), the files and service procedures
// created at boot, the extension manifests, the subjects, and one request
// stream per client thread. Each request carries its expected outcome,
// computed by the oracle model (oracle.h) that the same generator built.
// The same (workload, seed) always gives byte-identical inputs; Serialize()
// renders them canonically so that can be checked.

#ifndef XSEC_PERFBENCH_GENERATOR_H_
#define XSEC_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/oracle.h"

namespace perfbench {

enum class Workload : uint8_t { kTenantMix, kExtHot, kPolicyChurn };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);

enum class Op : uint8_t {
  kRead,    // MemFs::Read of a file
  kStat,    // MemFs::Stat of a file
  kList,    // MemFs::ListDir of a home directory
  kAppend,  // MemFs::Append to a tenant's log file
  kInvoke,  // Kernel::Invoke of a procedure by path
  kRaise,   // Kernel::RaiseEvent, class-selected, on an interface
  kCall,    // Kernel::CallCapability through a linked extension's import
};
const char* OpName(Op op);

// Expected status codes (numeric values of xsec::StatusCode).
inline constexpr uint8_t kExpectOk = 0;
inline constexpr uint8_t kExpectDenied = 4;  // kPermissionDenied

struct Request {
  Op op = Op::kRead;
  uint8_t expect_code = kExpectOk;
  uint16_t manifest = 0;  // kCall: which linked extension
  uint16_t import = 0;    // kCall: index into its imports
  uint32_t subject = 0;   // index into Inputs::subjects
  uint32_t target = 0;    // node index in the model
  // Read: FNV-1a of the contents; Stat: size; List: FNV-1a of the names
  // joined by '\n'; Invoke/Raise/Call: the handler's tag; Append: 0.
  int64_t expect_value = 0;
};

// A thread of control (§2.2): a principal at a class. The companion nodes
// are this subject's own objects; the traced run probes a layer on them
// when the request itself does not reach that layer.
struct SubjectSpec {
  uint32_t principal = 0;
  Cls cls;
  uint32_t home = 0;
  uint32_t file = 0;
  uint32_t log = 0;
  uint32_t tool = 0;
  uint32_t iface = 0;
};

struct FileSpec {
  uint32_t node = 0;
  std::vector<uint8_t> contents;
};

struct ProcSpec {
  uint32_t node = 0;
  int64_t tag = 0;  // the value the handler returns
};

struct ManifestSpec {
  std::string name;
  uint32_t loader = 0;  // principal
  Cls loader_cls;
  bool has_static = false;
  Cls static_class;
  std::vector<uint32_t> imports;                       // node indices
  std::vector<std::pair<uint32_t, int64_t>> exports;   // (interface node, tag)
};

// What the policy_churn admin thread mutates. Every mutation leaves each
// reader's expected decision unchanged: grants and memberships name only the
// probe principal, and relabels write back the label a node already has.
struct AdminPlan {
  uint32_t admin = 0;  // owns the grant nodes; the security officer
  Cls admin_cls;
  uint32_t probe = 0;  // in no reader's path
  Cls probe_cls;
  std::vector<uint32_t> grant_nodes;  // nodes with their own ACL
  std::vector<std::pair<uint32_t, Cls>> label_nodes;  // node, its current label
  std::vector<uint32_t> groups;       // groups the probe is added to and removed from
};

struct Inputs {
  Workload workload = Workload::kTenantMix;
  uint64_t seed = 0;
  int clients = 0;
  Model model;
  std::vector<std::pair<uint32_t, Cls>> clearances;
  uint32_t officer = 0;
  std::vector<std::string> sites;  // top-level mount directories, one per shard
  std::vector<FileSpec> files;
  std::vector<ProcSpec> procedures;
  std::vector<uint32_t> interfaces;
  std::vector<ManifestSpec> manifests;
  std::vector<SubjectSpec> subjects;
  std::vector<std::vector<Request>> streams;  // one per client thread
  AdminPlan admin;
  std::string policy;

  // Canonical byte rendering of every generated input.
  std::string Serialize() const;
};

Inputs Generate(Workload workload, uint64_t seed);

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // XSEC_PERFBENCH_GENERATOR_H_
