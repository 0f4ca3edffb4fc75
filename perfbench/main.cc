// End-to-end benchmark of the xsec mediation pipeline.
//
//   xsec_perfbench --workload <tenant_mix|ext_hot|policy_churn> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out <file>]
//
// One process: generate inputs from the seed, boot a SecureSystem from them
// (timed as setup, several times), check the oracle against the monitor's
// interpreter, then drive the workload's closed-loop clients through the
// public API and compare every outcome with the oracle. Prints a report and,
// as its last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). README.md explains the metrics.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/generator.h"
#include "perfbench/oracle.h"
#include "src/core/secure_system.h"
#include "src/policy/policy_io.h"

namespace perfbench {
namespace {

using xsec::AccessModeSet;
using xsec::NodeId;
using xsec::PrincipalId;
using xsec::Subject;

// Warm-up before the timed window: caches fill, lazy compiles finish.
constexpr double kWarmupSeconds = 1.0;
// Throughput and latency are computed per window; the medians are reported.
constexpr double kWindowSeconds = 0.5;
// One operation in kLatencyEvery (by sequence number) is timed; a clock read
// costs ~40 ns on a virtualized clock, so timing every operation would
// distort the operations it measures.
constexpr uint64_t kLatencyEvery = 64;
// Latency samples kept per client per window. The buffers are allocated and
// touched before the window, so peak RSS does not grow with throughput.
constexpr size_t kLatencyCap = 16384;
// Setups per run; setup_s is their median.
constexpr int kSetupReps = 15;
// policy_churn admin thread: open loop on a fixed schedule of bursts, like
// an administrator pushing a batch of policy edits. The gap between bursts
// is several times a recompile of the generated policy (~80 ms), so compiled
// tables go stale at each burst and are rebuilt before the next.
constexpr uint64_t kAdminBurst = 25;                   // mutations per burst
constexpr uint64_t kAdminBurstPeriodNs = 500'000'000;  // one burst every 500 ms
constexpr uint64_t kAdminSpacingNs = 4'000'000;        // within a burst
constexpr double kAdminPerSecond = kAdminBurst * 1e9 / kAdminBurstPeriodNs;
// The quiescent admin probe after the window: rounds of mutations, spread
// over ~1 s so one moment of host noise does not set the median.
constexpr int kAdminProbeRounds = 20;
constexpr int kAdminProbeMutations = 250;  // per round, whole cycles of 5
constexpr auto kAdminProbeGap = std::chrono::milliseconds(50);
// Traced run: one request in kTraceEvery (seeded) gets spans; at most
// kTraceCapPerClient per client thread.
constexpr uint64_t kTraceEvery = 1024;
constexpr size_t kTraceCapPerClient = 2500;
constexpr size_t kBatchItems = 8;
// Requests sampled for the oracle self-check.
constexpr size_t kSelfCheckRequests = 3000;

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double NowS() { return static_cast<double>(xsec::MonotonicNowNs()) * 1e-9; }

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? static_cast<double>(v[n / 2])
               : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2;
}

template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t i = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return static_cast<double>(v[i]);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

uint32_t ModeOf(Op op) {
  switch (op) {
    case Op::kRead:
    case Op::kStat:
      return kRead;
    case Op::kList:
      return kList;
    case Op::kAppend:
      return kWriteAppend;
    default:
      return kExecute;
  }
}

AccessModeSet ToModes(uint32_t modes) {
  auto parsed = AccessModeSet::Parse(ModeText(modes));
  if (!parsed.ok()) {
    Die("bad mode set");
  }
  return *parsed;
}

// -- The booted system -------------------------------------------------------

struct World {
  std::unique_ptr<xsec::SecureSystem> sys;
  std::vector<std::unique_ptr<xsec::MemFs>> mounts;
  std::vector<int> mount_of;            // model node -> mount index, -1 outside
  std::vector<PrincipalId> principal;   // model principal -> id
  std::vector<NodeId> node;             // model node -> id
  std::vector<Subject> subjects;        // parallel to Inputs::subjects
  std::vector<xsec::ExtensionId> extensions;  // parallel to Inputs::manifests
  Subject admin, probe;
  std::vector<xsec::SecurityClass> admin_labels;  // parallel to AdminPlan::label_nodes
  double load_s = 0, recompile_s = 0, setup_s = 0;

  xsec::Kernel& kernel() { return sys->kernel(); }
  xsec::ReferenceMonitor& monitor() { return sys->monitor(); }
  xsec::MemFs& fs(uint32_t n) { return *mounts[mount_of[n]]; }
};

xsec::SecurityClass ToClass(const Model& m, xsec::LabelAuthority& labels, const Cls& cls) {
  std::vector<std::string> cats;
  for (size_t c = 0; c < m.category_names.size(); ++c) {
    if (cls.cats & (1u << c)) {
      cats.push_back(m.category_names[c]);
    }
  }
  auto made = labels.MakeClass(m.level_names[cls.level], cats);
  if (!made.ok()) {
    Die("bad class: " + made.status().ToString());
  }
  return *made;
}

xsec::HandlerFn Returning(int64_t tag) {
  return [tag](xsec::CallContext&) -> xsec::StatusOr<xsec::Value> { return xsec::Value{tag}; };
}

void Require(const xsec::Status& status, const std::string& what) {
  if (!status.ok()) {
    Die(what + ": " + status.ToString());
  }
}

// Boot, file creation, LoadPolicy, extension loading and RecompileNow: the
// work a deployment does before serving its first mediated call. Mapping the
// model's principals, nodes and subjects to ids comes after the clock stops.
std::unique_ptr<World> Setup(const Inputs& in) {
  const Model& m = in.model;
  auto w = std::make_unique<World>();
  w->mount_of.assign(m.nodes.size(), -1);
  for (size_t n = 0; n < m.nodes.size(); ++n) {
    int32_t top = static_cast<int32_t>(n);
    while (top >= 0 && m.nodes[top].parent > 0) {
      top = m.nodes[top].parent;
    }
    if (top > 0) {
      auto it = std::find(in.sites.begin(), in.sites.end(), m.nodes[top].path.substr(1));
      if (it != in.sites.end()) {
        w->mount_of[n] = static_cast<int>(it - in.sites.begin());
      }
    }
  }

  const double t0 = NowS();
  w->sys = std::make_unique<xsec::SecureSystem>();
  xsec::Kernel& k = w->kernel();
  const PrincipalId system = k.system_principal();
  for (const std::string& site : in.sites) {
    w->mounts.push_back(std::make_unique<xsec::MemFs>(&k, "/" + site, "/svc/" + site + "fs"));
    Require(w->mounts.back()->Install(), "mount " + site);
  }
  for (const ProcSpec& p : in.procedures) {
    auto node = k.RegisterProcedure(m.nodes[p.node].path, system, Returning(p.tag));
    Require(node.status(), "register " + m.nodes[p.node].path);
  }
  for (uint32_t iface : in.interfaces) {
    Require(k.RegisterInterface(m.nodes[iface].path, system).status(), "interface");
  }
  for (const FileSpec& f : in.files) {
    Require(w->fs(f.node).CreateFileAsSystem(m.nodes[f.node].path, f.contents).status(),
            "create " + m.nodes[f.node].path);
  }
  const double t_load = NowS();
  Require(xsec::LoadPolicy(in.policy, &k), "LoadPolicy");
  w->load_s = NowS() - t_load;
  for (const ManifestSpec& ms : in.manifests) {
    xsec::ExtensionManifest manifest;
    manifest.name = ms.name;
    manifest.origin = xsec::Origin::kLocal;
    for (uint32_t imp : ms.imports) {
      manifest.imports.push_back(m.nodes[imp].path);
    }
    for (const auto& [iface, tag] : ms.exports) {
      manifest.exports.push_back({m.nodes[iface].path, Returning(tag)});
    }
    if (ms.has_static) {
      manifest.static_class = ToClass(m, k.labels(), ms.static_class);
    }
    auto loader = k.principals().FindByName(m.principals[ms.loader].name);
    Require(loader.status(), "loader of " + ms.name);
    auto id = k.LoadExtension(manifest,
                              k.CreateSubject(*loader, ToClass(m, k.labels(), ms.loader_cls)));
    Require(id.status(), "load extension " + ms.name);
    w->extensions.push_back(*id);
  }
  const double t_rc = NowS();
  Require(w->monitor().RecompileNow(), "RecompileNow");
  const double t_end = NowS();
  w->recompile_s = t_end - t_rc;
  w->setup_s = t_end - t0;

  for (const PrincipalSpec& p : m.principals) {
    auto id = k.principals().FindByName(p.name);
    Require(id.status(), "principal " + p.name);
    w->principal.push_back(*id);
  }
  for (const NodeSpec& n : m.nodes) {
    auto id = k.name_space().Lookup(n.path);
    Require(id.status(), "node " + n.path);
    w->node.push_back(*id);
  }
  for (const SubjectSpec& s : in.subjects) {
    w->subjects.push_back(
        k.CreateSubject(w->principal[s.principal], ToClass(m, k.labels(), s.cls)));
  }
  w->admin =
      k.CreateSubject(w->principal[in.admin.admin], ToClass(m, k.labels(), in.admin.admin_cls));
  w->probe =
      k.CreateSubject(w->principal[in.admin.probe], ToClass(m, k.labels(), in.admin.probe_cls));
  for (const auto& [node, cls] : in.admin.label_nodes) {
    w->admin_labels.push_back(ToClass(m, k.labels(), cls));
  }
  return w;
}

// -- Executing one request -----------------------------------------------------

struct Outcome {
  uint8_t code = 0;
  int64_t value = 0;
};

template <typename T>
uint8_t CodeOf(const xsec::StatusOr<T>& r) {
  return static_cast<uint8_t>(r.status().code());
}

int64_t IntOf(const xsec::StatusOr<xsec::Value>& r) {
  const int64_t* v = std::get_if<int64_t>(&*r);
  return v != nullptr ? *v : -1;
}

const std::vector<uint8_t> kAppendBytes = {0x61, 0x62, 0x63, 0x0a};

Outcome Execute(World& w, const Inputs& in, const Request& r) {
  Subject& s = w.subjects[r.subject];
  const std::string& path = in.model.nodes[r.target].path;
  Outcome out;
  switch (r.op) {
    case Op::kRead: {
      auto data = w.fs(r.target).Read(s, path);
      out.code = CodeOf(data);
      if (data.ok()) {
        out.value = static_cast<int64_t>(Fnv1a(data->data(), data->size()));
      }
      break;
    }
    case Op::kStat: {
      auto size = w.fs(r.target).Stat(s, path);
      out.code = CodeOf(size);
      out.value = size.ok() ? *size : 0;
      break;
    }
    case Op::kList: {
      auto names = w.fs(r.target).ListDir(s, path);
      out.code = CodeOf(names);
      if (names.ok()) {
        uint64_t h = 1469598103934665603ull;
        for (size_t i = 0; i < names->size(); ++i) {
          if (i > 0) {
            h = Fnv1a("\n", 1, h);
          }
          h = Fnv1a((*names)[i].data(), (*names)[i].size(), h);
        }
        out.value = static_cast<int64_t>(h);
      }
      break;
    }
    case Op::kAppend:
      out.code = static_cast<uint8_t>(w.fs(r.target).Append(s, path, kAppendBytes).code());
      break;
    case Op::kInvoke: {
      auto v = w.kernel().Invoke(s, path, {});
      out.code = CodeOf(v);
      out.value = v.ok() ? IntOf(v) : 0;
      break;
    }
    case Op::kRaise: {
      auto v = w.kernel().RaiseEvent(s, path, {});
      out.code = CodeOf(v);
      out.value = v.ok() ? IntOf(v) : 0;
      break;
    }
    case Op::kCall: {
      const xsec::LinkedExtension* ext = w.kernel().GetExtension(w.extensions[r.manifest]);
      auto v = w.kernel().CallCapability(s, ext->imports[r.import], {});
      out.code = CodeOf(v);
      out.value = v.ok() ? IntOf(v) : 0;
      break;
    }
  }
  return out;
}

bool Matches(const Request& r, const Outcome& o) {
  return o.code == r.expect_code && (o.code != kExpectOk || o.value == r.expect_value);
}

// -- Oracle self-check ------------------------------------------------------------

xsec::DenyReason ReasonOf(Why why) {
  switch (why) {
    case Why::kAllowed:
      return xsec::DenyReason::kNone;
    case Why::kTraversal:
      return xsec::DenyReason::kTraversal;
    case Why::kDacExplicitDeny:
      return xsec::DenyReason::kDacExplicitDeny;
    case Why::kDacNoGrant:
      return xsec::DenyReason::kDacNoGrant;
    case Why::kMacFlow:
      return xsec::DenyReason::kMacFlow;
  }
  return xsec::DenyReason::kNone;
}

// Holds the oracle's node-level decisions equal to CheckInterpreted on a
// sample of requests and their ancestors. Returns the mismatch count.
size_t SelfCheck(World& w, const Inputs& in, size_t* checked) {
  const Model& m = in.model;
  size_t total = 0;
  for (const auto& stream : in.streams) {
    total += stream.size();
  }
  const size_t stride = std::max<size_t>(1, total / kSelfCheckRequests);
  size_t mismatches = 0;
  *checked = 0;
  auto compare = [&](uint32_t subject, uint32_t node, uint32_t modes) {
    const SubjectSpec& s = in.subjects[subject];
    Verdict v = m.Decide(s.principal, s.cls, node, modes);
    xsec::Decision d =
        w.monitor().CheckInterpreted(w.subjects[subject], w.node[node], ToModes(modes));
    ++*checked;
    if (d.allowed != v.allowed || d.reason != ReasonOf(v.why)) {
      if (mismatches++ < 3) {
        std::printf("self-check mismatch: %s %s %s oracle=%s monitor=%s\n",
                    m.principals[s.principal].name.c_str(), m.nodes[node].path.c_str(),
                    ModeText(modes).c_str(), WhyText(v.why),
                    std::string(xsec::DenyReasonName(d.reason)).c_str());
      }
    }
  };
  size_t i = 0;
  for (const auto& stream : in.streams) {
    for (const Request& r : stream) {
      if (i++ % stride != 0) {
        continue;
      }
      for (uint32_t a : m.AncestorsOf(r.target)) {
        compare(r.subject, a, kList);
      }
      compare(r.subject, r.target, ModeOf(r.op));
    }
  }
  return mismatches;
}

// -- Tracing ---------------------------------------------------------------------

enum Layer : uint8_t {
  kRoot,
  kLookup,
  kSnapshot,
  kClosure,
  kEvaluate,
  kLabelHandle,
  kFlowCheck,
  kCacheProbe,
  kCompiledProbe,
  kInterpreted,
  kCheckL,
  kCheckPath,
  kStatsRecord,
  kAuditRecord,
  kCheckBatch,
  kCallCapability,
  kInvokeL,
  kDispatchSelect,
  kRaiseEvent,
  kMemfsRead,
  kMemfsStat,
  kMemfsList,
  kMemfsAppend,
  kAddAcl,
  kRemoveAcl,
  kSetLabel,
  kAddMember,
  kRemoveMember,
  kLayerCount,
};

// Metric name per layer span; the root span and RemoveMember have none.
const char* const kLayerMetric[kLayerCount] = {
    nullptr,
    "naming.lookup_ns",
    "naming.snapshot_ns",
    "principal.closure_ns",
    "dac.evaluate_ns",
    "mac.label_handle_ns",
    "mac.flow_check_ns",
    "monitor.cache_probe_ns",
    "monitor.compiled_probe_ns",
    "monitor.interpreted_ns",
    "monitor.check_ns",
    "monitor.check_path_ns_per_level",
    "monitor.stats_record_ns",
    "monitor.audit_record_ns",
    "monitor.check_batch_item_ns",
    "extsys.call_capability_ns",
    "extsys.invoke_ns",
    "extsys.dispatch_select_ns",
    "extsys.raise_event_ns",
    "services.memfs_read_ns",
    "services.memfs_stat_ns",
    "services.memfs_list_ns",
    "services.memfs_append_ns",
    "monitor.add_acl_entry_ns",
    "monitor.remove_acl_entries_ns",
    "monitor.set_node_label_ns",
    "principal.add_member_ns",
    nullptr,
};

const char* const kLayerSpanName[kLayerCount] = {
    "op",           "naming.lookup",    "naming.snapshot",      "principal.closure",
    "dac.evaluate", "mac.label_handle", "mac.flow_check",       "monitor.cache_probe",
    "monitor.compiled_probe", "monitor.interpreted", "monitor.check", "monitor.check_path",
    "monitor.stats_record", "monitor.audit_record", "monitor.check_batch",
    "extsys.call_capability", "extsys.invoke", "extsys.dispatch_select", "extsys.raise_event",
    "services.memfs_read", "services.memfs_stat", "services.memfs_list", "services.memfs_append",
    "monitor.add_acl_entry", "monitor.remove_acl_entries", "monitor.set_node_label",
    "principal.add_member", "principal.remove_member",
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint8_t layer = 0;
  uint8_t tag = 0;       // root spans: the Op; naming.lookup spans: path depth
  uint16_t divisor = 1;  // per-level / per-item normalization for the metric
};

// Per-thread span buffer; spans are written out when the run ends.
struct Tracer {
  uint64_t next_id;
  std::vector<Span> spans;
  explicit Tracer(uint64_t thread) : next_id((thread + 1) << 40) {}

  template <typename Fn>
  uint64_t Time(uint8_t layer, uint64_t parent, uint64_t request, Fn&& fn, uint16_t divisor = 1,
                uint8_t tag = 0) {
    Span s;
    s.id = ++next_id;
    s.parent = parent;
    s.request = request;
    s.layer = layer;
    s.tag = tag;
    s.divisor = divisor;
    s.start = xsec::MonotonicNowNs();
    fn();
    s.end = xsec::MonotonicNowNs();
    spans.push_back(s);
    return s.id;
  }
};

// Benchmark-owned bookkeeping instances for the stats/audit probes, so they
// price the recording call alone.
struct TraceShared {
  xsec::MonitorStats stats;
  xsec::AuditLog audit{4096};
  xsec::FlowPolicy flow;
};

size_t PathDepth(const std::string& path) {
  return static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
}

// Runs each layer's public entry point on one sampled request's inputs, as
// child spans of the request's root span. Layers the request does not reach
// are probed on the subject's own companion objects (SubjectSpec).
using BatchRequest = xsec::ReferenceMonitor::BatchCheckRequest;

void ProbeLayers(World& w, const Inputs& in, const Request& r, uint64_t root, uint64_t req,
                 Tracer& tr, TraceShared& shared, std::vector<BatchRequest>& batch) {
  const Model& m = in.model;
  const SubjectSpec& spec = in.subjects[r.subject];
  Subject& s = w.subjects[r.subject];
  const NodeId node = w.node[r.target];
  const std::string& path = m.nodes[r.target].path;
  const AccessModeSet modes = ToModes(ModeOf(r.op));
  xsec::Kernel& k = w.kernel();
  xsec::ReferenceMonitor& mon = w.monitor();
  const uint16_t levels = static_cast<uint16_t>(PathDepth(path) + 1);

  tr.Time(kLookup, root, req, [&] { (void)k.name_space().Lookup(path); }, 1,
          static_cast<uint8_t>(levels - 1));
  xsec::NameSpace::SecuritySnapshot snap;
  tr.Time(kSnapshot, root, req, [&] { (void)k.name_space().SnapshotSecurity(node, &snap); });
  std::shared_ptr<const xsec::DynamicBitset> closure;
  tr.Time(kClosure, root, req, [&] { closure = k.principals().Closure(s.principal); });
  tr.Time(kEvaluate, root, req,
          [&] { (void)k.acls().Evaluate(snap.effective_acl_ref, *closure, modes); });
  std::shared_ptr<const xsec::SecurityClass> label;
  tr.Time(kLabelHandle, root, req,
          [&] { label = k.labels().LabelHandle(snap.effective_label_ref); });
  tr.Time(kFlowCheck, root, req, [&] {
    if (label) {
      (void)shared.flow.Check(s.security_class, *label, modes);
    }
  });
  const xsec::CacheStamps stamps = mon.CurrentStampsFor(mon.DomainOf(node));
  xsec::DecisionCache::CachedDecision cached;
  tr.Time(kCacheProbe, root, req,
          [&] { (void)mon.cache().Lookup(s, node, modes, stamps, &cached); });
  xsec::Decision decision;
  tr.Time(kCompiledProbe, root, req,
          [&] { (void)mon.TryCompiledCheck(s, node, modes, &decision); });
  tr.Time(kInterpreted, root, req, [&] { decision = mon.CheckInterpreted(s, node, modes); });
  tr.Time(kCheckL, root, req, [&] { decision = mon.Check(s, node, modes); });
  tr.Time(kCheckPath, root, req, [&] { (void)mon.CheckPath(s, path, modes); }, levels);
  tr.Time(kStatsRecord, root, req, [&] { shared.stats.RecordDecision(modes, decision.reason); });
  xsec::AuditRecord record;
  record.principal = s.principal;
  record.thread_id = s.thread_id;
  record.node = node;
  record.path = path;
  record.modes = modes;
  record.allowed = decision.allowed;
  record.reason = decision.reason;
  tr.Time(kAuditRecord, root, req, [&] { shared.audit.Record(std::move(record)); });
  if (batch.size() == kBatchItems) {
    batch.erase(batch.begin());
  }
  batch.push_back({s, node, modes});
  xsec::Decision out[kBatchItems];
  tr.Time(kCheckBatch, root, req, [&] { mon.CheckBatch(batch.data(), batch.size(), out); },
          static_cast<uint16_t>(batch.size()));

  const bool proc = r.op == Op::kInvoke || r.op == Op::kCall;
  const uint32_t proc_node =
      proc && m.nodes[r.target].kind == Kind::kProcedure ? r.target : spec.tool;
  const xsec::Capability cap{w.node[proc_node], m.nodes[proc_node].path};
  tr.Time(kCallCapability, root, req, [&] { (void)k.CallCapability(s, cap, {}); });
  tr.Time(kInvokeL, root, req, [&] { (void)k.Invoke(s, m.nodes[proc_node].path, {}); });
  const uint32_t iface = m.nodes[r.target].kind == Kind::kInterface ? r.target : spec.iface;
  tr.Time(kDispatchSelect, root, req, [&] {
    (void)k.dispatcher().Select(w.node[iface], s.security_class,
                                xsec::DispatchMode::kClassSelected);
  });
  tr.Time(kRaiseEvent, root, req, [&] { (void)k.RaiseEvent(s, m.nodes[iface].path, {}); });

  const bool own_file = m.nodes[r.target].kind == Kind::kFile && r.op != Op::kAppend;
  const uint32_t file = own_file ? r.target : spec.file;
  tr.Time(kMemfsRead, root, req, [&] { (void)w.fs(file).Read(s, m.nodes[file].path); });
  tr.Time(kMemfsStat, root, req, [&] { (void)w.fs(file).Stat(s, m.nodes[file].path); });
  tr.Time(kMemfsList, root, req,
          [&] { (void)w.fs(spec.home).ListDir(s, m.nodes[spec.home].path); });
  tr.Time(kMemfsAppend, root, req,
          [&] { (void)w.fs(spec.log).Append(s, m.nodes[spec.log].path, kAppendBytes); });
}

// -- Admin mutations (policy_churn, and the quiescent probe elsewhere) ------------

struct AdminResult {
  std::vector<uint64_t> latency_ns;  // from each mutation's due time
  std::vector<uint64_t> lateness_ns;
  std::vector<uint64_t> service_ns[5];  // per step kind, call start to end
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t revoke_checks = 0;
  std::vector<std::string> errors;
};

// One admin step; `step` cycles through grant, revoke, relabel, add member,
// remove member. Returns the mutation call's start and end times. Grants and
// revokes are each followed by a probe check, which must see the change at
// once. Under live traffic the probe goes through Check (cache and compiled
// tables included); the quiescent probe uses CheckInterpreted, so it does
// not set the background recompiler running under the mutations it times.
std::pair<uint64_t, uint64_t> AdminStep(World& w, const Inputs& in, uint64_t step, bool live,
                                        AdminResult* res, Tracer* tr) {
  static const AccessModeSet kReadMode = ToModes(kRead);
  const AdminPlan& plan = in.admin;
  const uint64_t cycle = step / 5;
  const NodeId grant = w.node[plan.grant_nodes[cycle % plan.grant_nodes.size()]];
  const PrincipalId group = w.principal[plan.groups[cycle % plan.groups.size()]];
  const size_t relabel = cycle % plan.label_nodes.size();
  const PrincipalId probe = w.principal[plan.probe];
  xsec::ReferenceMonitor& mon = w.monitor();
  xsec::PrincipalRegistry& principals = w.kernel().principals();
  xsec::Status status;
  static constexpr uint8_t kStepLayer[5] = {kAddAcl, kRemoveAcl, kSetLabel, kAddMember,
                                            kRemoveMember};
  auto mutate = [&] {
    switch (step % 5) {
      case 0:
        status = mon.AddAclEntry(w.admin, grant,
                                 xsec::AclEntry{xsec::AclEntryType::kAllow, probe, kReadMode});
        break;
      case 1:
        status = mon.RemoveAclEntriesFor(w.admin, grant, probe);
        break;
      case 2:
        status = mon.SetNodeLabel(w.admin, w.node[plan.label_nodes[relabel].first],
                                  w.admin_labels[relabel]);
        break;
      case 3:
        status = principals.AddMember(group, probe);
        break;
      case 4:
        status = principals.RemoveMember(group, probe);
        break;
    }
  };
  const uint64_t start = xsec::MonotonicNowNs();
  if (tr != nullptr) {
    tr->Time(kStepLayer[step % 5], 0, step, mutate);
  } else {
    mutate();
  }
  const uint64_t end = xsec::MonotonicNowNs();
  ++res->attempted;
  if (!status.ok()) {
    ++res->failed;
    if (res->errors.size() < 3) {
      res->errors.push_back("admin step failed: " + status.ToString());
    }
  }
  if (step % 5 <= 1) {
    const bool want_allowed = step % 5 == 0;
    res->revoke_checks += want_allowed ? 0 : 1;
    ++res->attempted;
    const bool allowed = live ? mon.Check(w.probe, grant, kReadMode).allowed
                              : mon.CheckInterpreted(w.probe, grant, kReadMode).allowed;
    if (allowed != want_allowed) {
      ++res->failed;
      if (res->errors.size() < 3) {
        res->errors.push_back(want_allowed ? "probe denied after grant"
                                           : "probe allowed after revoke");
      }
    }
  }
  return {start, end};
}

// -- Client threads ----------------------------------------------------------------

struct alignas(64) Client {
  std::atomic<uint64_t> ops{0};
  uint64_t failed = 0;
  uint64_t denied = 0;
  size_t pos = 0;
  uint64_t seq = 0;
  std::vector<std::string> errors;
  // Latency samples of the measured window: kLatencyCap slots per window.
  std::vector<uint32_t> lat_ns;
  std::vector<uint32_t> lat_count;  // per window
  std::unique_ptr<Tracer> tracer;
  std::vector<BatchRequest> batch;
  size_t traced_requests = 0;
};

struct Phase {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<uint64_t> measure_start_ns{0};
  uint64_t window_ns = 0;
  size_t windows = 0;
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

template <bool kTraced>
void ClientLoop(World& w, const Inputs& in, int c, Client& cl, Phase& phase, TraceShared* shared) {
  const std::vector<Request>& stream = in.streams[c];
  const uint64_t trace_salt = Mix(in.seed ^ (static_cast<uint64_t>(c) << 32));
  while (!phase.stop.load(std::memory_order_relaxed)) {
    const Request& r = stream[cl.pos];
    cl.pos = cl.pos + 1 == stream.size() ? 0 : cl.pos + 1;
    const uint64_t seq = cl.seq++;
    Outcome out;
    if constexpr (kTraced) {
      if (cl.traced_requests < kTraceCapPerClient && Mix(trace_salt + seq) % kTraceEvery == 0) {
        const uint64_t req = (static_cast<uint64_t>(c) << 48) | seq;
        uint64_t root = cl.tracer->Time(kRoot, 0, req, [&] { out = Execute(w, in, r); }, 1,
                                        static_cast<uint8_t>(r.op));
        ProbeLayers(w, in, r, root, req, *cl.tracer, *shared, cl.batch);
        ++cl.traced_requests;
      } else {
        out = Execute(w, in, r);
      }
    } else {
      if (seq % kLatencyEvery == 0) {
        const uint64_t t0 = xsec::MonotonicNowNs();
        out = Execute(w, in, r);
        const uint64_t t1 = xsec::MonotonicNowNs();
        const uint64_t start = phase.measure_start_ns.load(std::memory_order_relaxed);
        if (phase.measuring.load(std::memory_order_relaxed) && t1 > start) {
          const size_t window = (t1 - start) / phase.window_ns;
          if (window < phase.windows && cl.lat_count[window] < kLatencyCap) {
            cl.lat_ns[window * kLatencyCap + cl.lat_count[window]++] =
                static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX));
          }
        }
      } else {
        out = Execute(w, in, r);
      }
    }
    if (out.code != kExpectOk) {
      ++cl.denied;
    }
    if (!Matches(r, out)) {
      ++cl.failed;
      if (cl.errors.size() < 3) {
        const SubjectSpec& s = in.subjects[r.subject];
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s %s by %s: got code=%u value=%" PRId64
                      ", want code=%u value=%" PRId64,
                      OpName(r.op), in.model.nodes[r.target].path.c_str(),
                      in.model.principals[s.principal].name.c_str(), out.code, out.value,
                      r.expect_code, r.expect_value);
        cl.errors.push_back(buf);
      }
    }
    cl.ops.store(cl.ops.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
}

// Waits until `due`: sleeps while it is far off, then spins, because a
// sleeping thread wakes tens of microseconds late and that delay would be
// charged to the system as admin latency.
void WaitUntil(uint64_t due) {
  constexpr uint64_t kSpinNs = 2'000'000;
  for (;;) {
    const uint64_t now = xsec::MonotonicNowNs();
    if (now >= due) {
      return;
    }
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs / 2));
    }
  }
}

// On policy_churn the admin thread gets a CPU of its own, so the open-loop
// generator is never queued behind the load it measures; the clients and
// every other thread (the monitor's recompile thread is spawned during
// setup and inherits the mask) share the rest.
bool PinThread(int first_cpu, int cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first_cpu; c < first_cpu + cpus; ++c) {
    CPU_SET(c, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

uint64_t TotalOps(const std::vector<std::unique_ptr<Client>>& clients) {
  uint64_t total = 0;
  for (const auto& cl : clients) {
    total += cl->ops.load(std::memory_order_relaxed);
  }
  return total;
}

// CPU time the hypervisor took from the guest: /proc/stat's aggregate steal
// time as a share of the CPU time the VM demanded (busy time, steal
// included); zero where /proc/stat is unavailable. On a shared host this
// share ranges from a few percent to half, which would otherwise swamp any
// change to the program:
//   - setup runs on one thread, whose wall time grows by 1 / (1 - share);
//     setup_s is scaled back by (1 - share);
//   - with share s only ~(1 - s) of the client threads run at once, so they
//     contend less: each operation gets faster while throughput falls.
//     Across the three workloads, at shares of 1-49%, throughput moved with
//     (1 - s)^0.34..0.85 and median latency with (1 - s)^0.36..0.64, so
//     ops_per_s and p50_ns are scaled by 1 / sqrt(1 - s) per window
//     (ContentionScale). p99_ns is not: operations that straddle a stolen
//     interval lengthen the tail, which offsets the lighter contention.
// The report prints the unscaled figures beside the scaled ones.
struct CpuTimes {
  uint64_t busy = 0, steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  return std::min(0.95, Ratio(to.steal - from.steal, to.busy - from.busy));
}

double ContentionScale(double steal_share) { return 1.0 / std::sqrt(1.0 - steal_share); }

// Counters the untraced window reports as deltas.
struct Counters {
  uint64_t ops = 0, cache_hits = 0, cache_misses = 0, cache_stale = 0;
  uint64_t compiled_hits = 0, compiled_fallbacks = 0, compiled_stale = 0, recompiles = 0;
  uint64_t decisions = 0, retained = 0;
};

Counters ReadCounters(World& w, uint64_t ops) {
  xsec::ReferenceMonitor& mon = w.monitor();
  auto cc = mon.compiled_counters();
  return Counters{ops,
                  mon.cache().hits(),
                  mon.cache().misses(),
                  mon.cache().stale_hits(),
                  cc.hits,
                  cc.fallbacks,
                  cc.stale,
                  cc.recompiles,
                  mon.stats().checks_total(),
                  mon.audit().total_denials()};
}

struct PhaseResult {
  double seconds = 0;
  double steal_share = 0;
  uint64_t ops = 0;
  // Per window: completed operations per second of wall time, and the
  // host steal share.
  std::vector<double> window_rates;
  std::vector<double> window_steal;

  std::vector<double> ScaledRates() const {
    std::vector<double> out;
    for (size_t i = 0; i < window_rates.size(); ++i) {
      out.push_back(window_rates[i] * ContentionScale(window_steal[i]));
    }
    return out;
  }
  Counters delta;
  AdminResult admin;
};

// Runs every client (and, on policy_churn, the admin thread) for `seconds`,
// after `warmup` seconds that are executed but not measured.
PhaseResult RunPhase(World& w, const Inputs& in, std::vector<std::unique_ptr<Client>>& clients,
                     bool traced, double warmup, double seconds, TraceShared* shared,
                     Tracer* admin_tracer, bool pin_admin) {
  const int admin_cpu = in.clients;
  Phase phase;
  PhaseResult res;
  phase.windows = std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
  phase.window_ns = static_cast<uint64_t>(seconds / phase.windows * 1e9);
  if (!traced) {  // the traced phase records spans, not latency samples
    for (auto& cl : clients) {
      cl->lat_ns.assign(phase.windows * kLatencyCap, 0);
      cl->lat_count.assign(phase.windows, 0);
    }
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < in.clients; ++c) {
    threads.emplace_back([&, c] {
      if (pin_admin) {
        PinThread(0, admin_cpu);
      }
      if (traced) {
        ClientLoop<true>(w, in, c, *clients[c], phase, shared);
      } else {
        ClientLoop<false>(w, in, c, *clients[c], phase, nullptr);
      }
    });
  }
  std::thread admin;
  std::atomic<bool> admin_stop{false};
  if (in.workload == Workload::kPolicyChurn) {
    admin = std::thread([&] {
      if (pin_admin) {
        PinThread(admin_cpu, 1);
      }
      const uint64_t start = xsec::MonotonicNowNs();
      // Stops only between cycles, so the probe ends with no grant or
      // membership left over.
      for (uint64_t step = 0; step % 5 != 0 || !admin_stop.load(std::memory_order_relaxed);
           ++step) {
        const uint64_t due = start + step / kAdminBurst * kAdminBurstPeriodNs +
                             step % kAdminBurst * kAdminSpacingNs;
        WaitUntil(due);
        const auto [begin, done] = AdminStep(w, in, step, /*live=*/true, &res.admin, admin_tracer);
        if (phase.measuring.load(std::memory_order_relaxed)) {
          res.admin.service_ns[step % 5].push_back(done - begin);
          res.admin.latency_ns.push_back(done - due);
          res.admin.lateness_ns.push_back(begin > due ? begin - due : 0);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  uint64_t prev_t = xsec::MonotonicNowNs();
  uint64_t prev_ops = TotalOps(clients);
  const Counters before = ReadCounters(w, prev_ops);
  const CpuTimes cpu_before = ReadCpuTimes();
  phase.measure_start_ns.store(prev_t);
  phase.measuring.store(true);
  const uint64_t start_t = prev_t, start_ops = prev_ops;
  CpuTimes prev_cpu = cpu_before;
  for (size_t i = 0; i < phase.windows; ++i) {
    const uint64_t until = start_t + (i + 1) * phase.window_ns;
    uint64_t now = xsec::MonotonicNowNs();
    if (now < until) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    }
    const uint64_t t = xsec::MonotonicNowNs();
    const uint64_t ops = TotalOps(clients);
    const CpuTimes cpu = ReadCpuTimes();
    const double rate =
        static_cast<double>(ops - prev_ops) / (static_cast<double>(t - prev_t) * 1e-9);
    res.window_rates.push_back(rate);
    res.window_steal.push_back(StealShare(prev_cpu, cpu));
    prev_t = t;
    prev_ops = ops;
    prev_cpu = cpu;
  }
  phase.measuring.store(false);
  const Counters after = ReadCounters(w, prev_ops);
  const CpuTimes cpu_after = ReadCpuTimes();
  res.steal_share = StealShare(cpu_before, cpu_after);
  res.seconds = static_cast<double>(prev_t - start_t) * 1e-9;
  res.ops = prev_ops - start_ops;
  res.delta = Counters{after.ops - before.ops,
                       after.cache_hits - before.cache_hits,
                       after.cache_misses - before.cache_misses,
                       after.cache_stale - before.cache_stale,
                       after.compiled_hits - before.compiled_hits,
                       after.compiled_fallbacks - before.compiled_fallbacks,
                       after.compiled_stale - before.compiled_stale,
                       after.recompiles - before.recompiles,
                       after.decisions - before.decisions,
                       after.retained - before.retained};
  phase.stop.store(true);
  admin_stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  if (admin.joinable()) {
    admin.join();
  }
  return res;
}

// -- Output -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[320];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "span_id,parent,request,name,start_ns,end_ns,divisor\n");
  for (const Tracer* tr : tracers) {
    for (const Span& s : tr->spans) {
      std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRIu64 ",%" PRIu64 ",%u\n", s.id,
                   s.parent, s.request,
                   s.layer == kRoot ? OpName(static_cast<Op>(s.tag)) : kLayerSpanName[s.layer],
                   s.start, s.end, s.divisor);
    }
  }
  std::fclose(f);
}

struct Args {
  Workload workload = Workload::kTenantMix;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + key);
    }
    std::string val = argv[++i];
    if (key == "--workload") {
      have_workload = ParseWorkload(val, &a.workload);
      if (!have_workload) {
        Die("unknown workload " + val);
      }
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (!have_workload || !have_seed || a.seconds <= 0 || a.trace < 0) {
    Die("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              WorkloadName(args.workload), args.seed, args.seconds, args.trace);

  // Inputs, generated twice: the same seed must give the same bytes.
  Inputs in = Generate(args.workload, args.seed);
  uint64_t inputs_hash = 0;
  size_t inputs_bytes = 0;
  bool deterministic = false;
  {
    const std::string bytes = in.Serialize();
    inputs_hash = Fnv1a(bytes.data(), bytes.size());
    inputs_bytes = bytes.size();
    deterministic = Generate(args.workload, args.seed).Serialize() == bytes;
  }
  size_t stream_len = 0, expected_denials = 0;
  for (const auto& s : in.streams) {
    stream_len += s.size();
    for (const Request& r : s) {
      expected_denials += r.expect_code != kExpectOk;
    }
  }
  std::printf("inputs fnv64=%016" PRIx64 " bytes=%zu deterministic=%s principals=%zu nodes=%zu "
              "files=%zu extensions=%zu subjects=%zu clients=%d requests=%zu "
              "expected_denial_share=%.4f\n",
              inputs_hash, inputs_bytes, deterministic ? "yes" : "NO",
              in.model.principals.size(), in.model.nodes.size(), in.files.size(),
              in.manifests.size(), in.subjects.size(), in.clients, stream_len,
              Ratio(expected_denials, stream_len));

  // Reserve the last CPU for the admin thread before any system thread is
  // spawned (see PinThread).
  const bool pin_admin = in.workload == Workload::kPolicyChurn &&
                         static_cast<int>(std::thread::hardware_concurrency()) > in.clients &&
                         PinThread(0, in.clients);
  // Setup, several times; the last system serves the run.
  std::vector<double> setup_s, load_s, recompile_s;
  std::unique_ptr<World> w;
  std::vector<double> setup_raw_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const CpuTimes cpu_before = ReadCpuTimes();
    w = Setup(in);
    setup_raw_s.push_back(w->setup_s);
    setup_s.push_back(w->setup_s * (1.0 - StealShare(cpu_before, ReadCpuTimes())));
    load_s.push_back(w->load_s);
    recompile_s.push_back(w->recompile_s);
  }
  std::printf("setup reps=%d median_s=%.6f (steal-scaled; unscaled %.6f) load_policy_s=%.6f "
              "recompile_now_s=%.6f\n",
              kSetupReps, Median(setup_s), Median(setup_raw_s), Median(load_s),
              Median(recompile_s));

  const double setup_rss_mb = PeakRssMb();
  size_t checked_before = 0, checked_after = 0;
  const size_t mismatch_before = SelfCheck(*w, in, &checked_before);

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < in.clients; ++c) {
    clients.push_back(std::make_unique<Client>());
    clients.back()->tracer = std::make_unique<Tracer>(static_cast<uint64_t>(c));
  }
  auto admin_tracer = std::make_unique<Tracer>(static_cast<uint64_t>(in.clients));
  TraceShared shared;

  const bool traced = args.trace == 1;
  const double untraced_s = traced ? args.seconds / 2 : args.seconds;
  PhaseResult base =
      RunPhase(*w, in, clients, false, kWarmupSeconds, untraced_s, nullptr, nullptr, pin_admin);
  const double window_rss_mb = PeakRssMb();
  PhaseResult tr;
  if (traced) {
    tr = RunPhase(*w, in, clients, true, 0, args.seconds - untraced_s, &shared, admin_tracer.get(),
                  pin_admin);
  }

  // Admin latency, gated: a quiescent closed-loop probe after the window,
  // the same on every workload. policy_churn's admin thread under load is
  // reported but not gated; see README.md. Traced runs on the other
  // workloads repeat the probe with spans.
  AdminResult probe_run;
  auto run_probe = [&](Tracer* tracer) {
    uint64_t step = 0;
    for (int round = 0; round < kAdminProbeRounds; ++round) {
      std::this_thread::sleep_for(kAdminProbeGap);
      for (int i = 0; i < kAdminProbeMutations; ++i, ++step) {
        const auto [begin, done] = AdminStep(*w, in, step, /*live=*/false, &probe_run, tracer);
        if (tracer == nullptr) {
          probe_run.latency_ns.push_back(done - begin);
        }
      }
    }
  };
  run_probe(nullptr);
  if (traced && in.workload != Workload::kPolicyChurn) {
    run_probe(admin_tracer.get());
  }
  const uint64_t admin_attempted = base.admin.attempted + tr.admin.attempted + probe_run.attempted;
  const uint64_t admin_failed = base.admin.failed + tr.admin.failed + probe_run.failed;

  const size_t mismatch_after = SelfCheck(*w, in, &checked_after);
  std::printf("oracle self-check decisions=%zu mismatches=%zu (before) decisions=%zu "
              "mismatches=%zu (after)\n",
              checked_before, mismatch_before, checked_after, mismatch_after);

  uint64_t client_ops = 0, client_failed = 0, client_denied = 0;
  std::vector<std::string> errors;
  for (const auto& cl : clients) {
    client_ops += cl->ops.load();
    client_failed += cl->failed;
    client_denied += cl->denied;
    errors.insert(errors.end(), cl->errors.begin(), cl->errors.end());
  }
  errors.insert(errors.end(), base.admin.errors.begin(), base.admin.errors.end());
  errors.insert(errors.end(), tr.admin.errors.begin(), tr.admin.errors.end());
  errors.insert(errors.end(), probe_run.errors.begin(), probe_run.errors.end());
  for (size_t i = 0; i < errors.size() && i < 5; ++i) {
    std::printf("mismatch: %s\n", errors[i].c_str());
  }
  const uint64_t attempted = client_ops + admin_attempted;
  const uint64_t failed = client_failed + admin_failed;
  const bool correct = failed == 0 && deterministic && mismatch_before == 0 && mismatch_after == 0;
  std::printf("error_rate %.6g (failed=%" PRIu64 " attempted=%" PRIu64
              " client_ops=%" PRIu64 " observed_denial_share=%.4f admin_ops=%" PRIu64
              " revoke_checks=%" PRIu64 ") correct=%s\n",
              Ratio(failed, attempted), failed, attempted, client_ops,
              Ratio(client_denied, client_ops), admin_attempted,
              base.admin.revoke_checks + tr.admin.revoke_checks + probe_run.revoke_checks,
              correct ? "true" : "false");

  const Counters& d = base.delta;
  std::printf("host steal_share=%.4f (share of demanded CPU time the hypervisor took during "
              "the window)\n",
              base.steal_share);
  std::printf("counters window_s=%.3f ops=%" PRIu64 " cache_probes=%" PRIu64 " cache_hits=%" PRIu64
              " cache_stale=%" PRIu64 " compiled_hits=%" PRIu64 " compiled_fallbacks=%" PRIu64
              " compiled_stale=%" PRIu64 " recompiles=%" PRIu64 " decisions=%" PRIu64
              " retained=%" PRIu64 "\n",
              base.seconds, d.ops, d.cache_hits + d.cache_misses, d.cache_hits, d.cache_stale,
              d.compiled_hits, d.compiled_fallbacks, d.compiled_stale, d.recompiles, d.decisions,
              d.retained);

  // Per-window latency quantiles, medians across windows. One reused
  // buffer, so the peak RSS reading does not depend on the sample count.
  std::vector<double> p50s, p99s, raw_p50s;
  std::vector<uint32_t> window_samples;
  window_samples.reserve(clients.size() * kLatencyCap);
  size_t samples = 0;
  for (size_t win = 0; win < base.window_rates.size(); ++win) {
    window_samples.clear();
    for (const auto& cl : clients) {
      const uint32_t* first = cl->lat_ns.data() + win * kLatencyCap;
      window_samples.insert(window_samples.end(), first, first + cl->lat_count[win]);
    }
    if (window_samples.empty()) {
      continue;
    }
    samples += window_samples.size();
    std::sort(window_samples.begin(), window_samples.end());
    auto at = [&](double q) {
      return static_cast<double>(window_samples[static_cast<size_t>(
          q * static_cast<double>(window_samples.size() - 1) + 0.5)]);
    };
    raw_p50s.push_back(at(0.50));
    p50s.push_back(raw_p50s.back() * ContentionScale(base.window_steal[win]));
    p99s.push_back(at(0.99));
  }
  const double peak_rss_mb = PeakRssMb();
  const double ops_per_s = Median(base.ScaledRates());

  std::vector<Metric> e2e = {
      {"ops_per_s", ops_per_s, "1/s"},
      {"p50_ns", Median(p50s), "ns"},
      {"p99_ns", Median(p99s), "ns"},
      {"admin_p50_ns", Quantile(probe_run.latency_ns, 0.50), "ns"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("metric ops_per_s %.1f 1/s (median of %zu windows, steal-scaled; unscaled "
              "median %.1f, overall %.1f)\n",
              ops_per_s, base.window_rates.size(), Median(base.window_rates),
              static_cast<double>(base.ops) / base.seconds);
  std::printf("metric p50_ns %.0f ns (steal-scaled; unscaled %.0f), p99_ns %.0f ns (1 in %" PRIu64
              " ops timed, samples=%zu, median over %zu windows)\n",
              Median(p50s), Median(raw_p50s), Median(p99s), kLatencyEvery, samples, p50s.size());
  const double admin_p99 = Quantile(probe_run.latency_ns, 0.99);
  std::printf("metric admin_p50_ns %.0f ns, admin_p99_ns %.0f ns (samples=%zu, quiescent "
              "closed-loop probe after the window)\n",
              e2e[3].value, admin_p99, probe_run.latency_ns.size());
  if (in.workload == Workload::kPolicyChurn) {
    const AdminResult& admin = base.admin;
    std::printf("admin under load p50=%.0f ns p99=%.0f ns (samples=%zu, open loop, timed from "
                "due time; not gated)\n",
                Quantile(admin.latency_ns, 0.5), Quantile(admin.latency_ns, 0.99),
                admin.latency_ns.size());
    std::printf("admin generator lateness p50=%.0f ns p99=%.0f ns max=%.0f ns "
                "(%g mutations/s in bursts of %" PRIu64 " every %.0f ms)\n",
                Quantile(admin.lateness_ns, 0.5), Quantile(admin.lateness_ns, 0.99),
                Quantile(admin.lateness_ns, 1.0), kAdminPerSecond, kAdminBurst,
                kAdminBurstPeriodNs * 1e-6);
    static const char* const kStep[5] = {"add_acl_entry", "remove_acl_entries", "set_node_label",
                                         "add_member", "remove_member"};
    for (int k = 0; k < 5; ++k) {
      std::printf("admin service %s p50=%.0f ns p99=%.0f ns max=%.0f ns (samples=%zu)\n", kStep[k],
                  Quantile(admin.service_ns[k], 0.5), Quantile(admin.service_ns[k], 0.99),
                  Quantile(admin.service_ns[k], 1.0), admin.service_ns[k].size());
    }
  }
  std::printf("metric setup_s %.6f s (median of %d), peak_rss_mb %.1f MB (peak after setup "
              "%.1f MB, after the window %.1f MB)\n",
              Median(setup_s), kSetupReps, peak_rss_mb, setup_rss_mb, window_rss_mb);

  if (!traced) {
    PrintJson(correct, attempted, failed, e2e);
    return 0;
  }

  // Per-layer metrics from the traced phase's spans.
  std::vector<const Tracer*> tracers;
  std::vector<std::vector<double>> by_layer(kLayerCount);
  std::vector<double> depths;
  size_t roots = 0;
  for (const auto& cl : clients) {
    tracers.push_back(cl->tracer.get());
  }
  tracers.push_back(admin_tracer.get());
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans) {
      by_layer[s.layer].push_back(static_cast<double>(s.end - s.start) / s.divisor);
      if (s.layer == kRoot) {
        ++roots;
      } else if (s.layer == kLookup) {
        depths.push_back(s.tag);
      }
    }
  }
  if (!args.trace_out.empty()) {
    WriteSpans(args.trace_out, tracers);
  }
  const double untraced_rate = Median(base.ScaledRates());
  const double traced_rate = Median(tr.ScaledRates());
  std::vector<Metric> layers;
  for (int l = 0; l < kLayerCount; ++l) {
    if (kLayerMetric[l] != nullptr) {
      layers.push_back({kLayerMetric[l], Median(by_layer[l]), "ns"});
    }
  }
  layers.push_back({"naming.path_depth", Median(depths), "count"});
  const uint64_t cache_probes = d.cache_hits + d.cache_misses;
  const uint64_t compiled_probes = d.compiled_hits + d.compiled_fallbacks + d.compiled_stale;
  layers.push_back({"monitor.cache_hit_ratio", Ratio(d.cache_hits, cache_probes), "ratio"});
  layers.push_back({"monitor.cache_stale_ratio", Ratio(d.cache_stale, cache_probes), "ratio"});
  layers.push_back(
      {"monitor.compiled_hit_ratio", Ratio(d.compiled_hits, compiled_probes), "ratio"});
  layers.push_back(
      {"monitor.recompiles_per_s", static_cast<double>(d.recompiles) / base.seconds, "1/s"});
  layers.push_back({"monitor.decisions_per_op", Ratio(d.decisions, d.ops), "count"});
  layers.push_back({"monitor.audit_retained_per_op", Ratio(d.retained, d.ops), "count"});
  layers.push_back({"policy.load_s", Median(load_s), "s"});
  layers.push_back({"monitor.recompile_now_s", Median(recompile_s), "s"});
  layers.push_back({"admin_p99_ns", admin_p99, "ns"});
  layers.push_back({"base.ops", static_cast<double>(d.ops), "count"});
  layers.push_back({"base.cache_probes", static_cast<double>(cache_probes), "count"});
  layers.push_back({"base.compiled_probes", static_cast<double>(compiled_probes), "count"});
  layers.push_back({"base.decisions", static_cast<double>(d.decisions), "count"});
  layers.push_back({"trace.sampled_requests", static_cast<double>(roots), "count"});
  layers.push_back({"trace.admin_samples", static_cast<double>(by_layer[kAddAcl].size()), "count"});
  layers.push_back({"trace.untraced_ops_per_s", untraced_rate, "1/s"});
  layers.push_back({"trace.traced_ops_per_s", traced_rate, "1/s"});
  layers.push_back({"trace.overhead_pct",
                    untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate : 0,
                    "%"});
  for (const Metric& m : layers) {
    std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(correct, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
