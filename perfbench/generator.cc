#include "perfbench/generator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/base/rng.h"
#include "src/base/shard.h"

namespace perfbench {

namespace {

// World shape. About a thousand principals: 16 orgs x 4 depts x 2 teams x
// 6 users, the groups above them, and a few service principals.
constexpr int kOrgs = 16;
constexpr int kDeptsPerOrg = 4;
constexpr int kTeamsPerDept = 2;
constexpr int kUsersPerTeam = 6;
constexpr int kFilesPerHome = 8;
constexpr int kSharedFiles = 4;
constexpr int kToolsPerOrg = 4;
constexpr int kHotProcedures = 20;
constexpr int kInterfaces = 4;
constexpr int kCategories = 4;
constexpr uint16_t kLow = 0, kMid = 1, kHigh = 2;

// Requests per client stream. tenant_mix streams touch a working set many
// times the decision cache; ext_hot cycles over a hot set that fits it.
constexpr size_t kMixStreamLen = size_t{1} << 16;
constexpr size_t kHotStreamLen = size_t{1} << 12;
constexpr int kLoadersPerClient = 2;

struct ModelMaker {
  Model& m;

  uint32_t Principal(std::string name, bool group, bool boot = false) {
    m.principals.push_back(PrincipalSpec{std::move(name), group, boot, {}});
    return static_cast<uint32_t>(m.principals.size() - 1);
  }
  void Member(uint32_t group, uint32_t member) { m.principals[member].member_of.push_back(group); }

  uint32_t Node(int32_t parent, const std::string& name, Kind kind, uint32_t owner,
                bool boot = false) {
    NodeSpec n;
    n.parent = parent;
    n.kind = kind;
    n.owner = owner;
    n.boot = boot;
    if (parent < 0) {
      n.path = "/";
    } else {
      const std::string& pp = m.nodes[parent].path;
      n.path = (pp == "/" ? "" : pp) + "/" + name;
    }
    m.nodes.push_back(std::move(n));
    uint32_t id = static_cast<uint32_t>(m.nodes.size() - 1);
    if (parent >= 0) {
      m.nodes[parent].children.push_back(id);
    }
    return id;
  }
  void Acl(uint32_t node, std::vector<AclEntrySpec> entries) {
    m.nodes[node].has_acl = true;
    m.nodes[node].acl = std::move(entries);
  }
  void Label(uint32_t node, Cls cls) {
    m.nodes[node].has_label = true;
    m.nodes[node].label = cls;
  }
};

AclEntrySpec Allow(uint32_t who, uint32_t modes) { return {false, who, modes}; }
AclEntrySpec Deny(uint32_t who, uint32_t modes) { return {true, who, modes}; }

std::string Basename(const std::string& path) { return path.substr(path.rfind('/') + 1); }

// Zipf(s = 1) over n items, as a cumulative table.
std::vector<double> ZipfCdf(int n) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += 1.0 / (i + 1);
    cdf[i] = sum;
  }
  for (double& c : cdf) {
    c /= sum;
  }
  return cdf;
}

int Draw(const std::vector<double>& cdf, xsec::Rng& rng) {
  double u = rng.NextDouble();
  return static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

std::string ClassTokens(const Model& m, const Cls& cls) {
  std::string out = m.level_names[cls.level];
  for (int c = 0; c < kCategories; ++c) {
    if (cls.cats & (1u << c)) {
      out += " " + m.category_names[c];
    }
  }
  return out;
}

std::string RenderPolicy(const Inputs& in) {
  const Model& m = in.model;
  std::string out = "xsec-policy v1\nlevels";
  for (const std::string& level : m.level_names) {
    out += " " + level;
  }
  out += "\n";
  for (const std::string& cat : m.category_names) {
    out += "category " + cat + "\n";
  }
  for (const PrincipalSpec& p : m.principals) {
    if (!p.boot) {
      out += (p.group ? "group " : "user ") + p.name + "\n";
    }
  }
  for (const PrincipalSpec& p : m.principals) {
    for (uint32_t g : p.member_of) {
      out += "member " + m.principals[g].name + " " + p.name + "\n";
    }
  }
  for (const auto& [who, cls] : in.clearances) {
    out += "clearance " + m.principals[who].name + " " + ClassTokens(m, cls) + "\n";
  }
  out += "officer " + m.principals[in.officer].name + "\n";
  for (const NodeSpec& n : m.nodes) {
    if (!n.boot) {
      out += std::string("node ") + n.path + " " + KindText(n.kind) + " " +
             m.principals[n.owner].name + "\n";
    }
  }
  for (const NodeSpec& n : m.nodes) {
    if (n.has_label) {
      out += "label " + n.path + " " + ClassTokens(m, n.label) + "\n";
    }
    if (n.has_acl) {
      for (const AclEntrySpec& e : n.acl) {
        out += "acl " + n.path + (e.deny ? " deny " : " allow ") + m.principals[e.who].name +
               " " + ModeText(e.modes) + "\n";
      }
    }
  }
  return out;
}

void Fail(const char* what) {
  std::fprintf(stderr, "generator: inconsistent world: %s\n", what);
  std::exit(2);
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kTenantMix, Workload::kExtHot, Workload::kPolicyChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kTenantMix:
      return "tenant_mix";
    case Workload::kExtHot:
      return "ext_hot";
    case Workload::kPolicyChurn:
      return "policy_churn";
  }
  return "?";
}

const char* OpName(Op op) {
  static const char* const kNames[] = {"read", "stat", "list", "append", "invoke", "raise", "call"};
  return kNames[static_cast<int>(op)];
}

Inputs Generate(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.clients = workload == Workload::kPolicyChurn ? 3 : 4;
  xsec::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  Model& m = in.model;
  ModelMaker b{m};
  m.level_names = {"low", "mid", "high"};
  for (int c = 0; c < kCategories; ++c) {
    m.category_names.push_back("c" + std::to_string(c));
  }

  // -- Principals -----------------------------------------------------------
  const uint32_t system = b.Principal("system", false, true);
  const uint32_t everyone = b.Principal("everyone", true, true);
  const uint32_t suspended = b.Principal("suspended", true);
  const uint32_t contractors = b.Principal("contractors", true);
  const uint32_t secadmin = b.Principal("secadmin", false);
  const uint32_t probe = b.Principal("probe", false);
  const uint32_t vendor = b.Principal("vendor", false);
  b.Member(everyone, vendor);
  in.officer = secadmin;
  in.clearances.push_back({vendor, Cls{kHigh, (1u << kCategories) - 1}});

  struct Tenant {
    uint32_t user;
    int org_index, dept_index;
    Cls clearance;
  };
  std::vector<Tenant> tenants;
  std::vector<uint32_t> org_groups, dept_groups, team_groups;
  for (int o = 0; o < kOrgs; ++o) {
    uint32_t org = b.Principal("o" + std::to_string(o), true);
    b.Member(everyone, org);
    org_groups.push_back(org);
    for (int d = 0; d < kDeptsPerOrg; ++d) {
      uint32_t dept = b.Principal(m.principals[org].name + "d" + std::to_string(d), true);
      b.Member(org, dept);
      dept_groups.push_back(dept);
      for (int t = 0; t < kTeamsPerDept; ++t) {
        uint32_t team = b.Principal(m.principals[dept].name + "t" + std::to_string(t), true);
        b.Member(dept, team);
        team_groups.push_back(team);
        for (int u = 0; u < kUsersPerTeam; ++u) {
          uint32_t user = b.Principal("u" + std::to_string(tenants.size()), false);
          b.Member(team, user);
          if (rng.NextBool(4, 100)) {
            b.Member(suspended, user);
          }
          if (rng.NextBool(8, 100)) {
            b.Member(contractors, user);
          }
          uint32_t cats = 1u << (o % kCategories);
          if (rng.NextBool(30, 100)) {
            cats |= 1u << rng.NextBelow(kCategories);
          }
          Cls clearance{rng.NextBool(1, 2) ? kMid : kHigh, cats};
          in.clearances.push_back({user, clearance});
          tenants.push_back({user, o, d, clearance});
        }
      }
    }
  }
  m.Finish();

  // -- Name space -----------------------------------------------------------
  const uint32_t root = b.Node(-1, "", Kind::kDirectory, system, /*boot=*/true);
  b.Acl(root, {Allow(everyone, kList | kRead)});
  b.Label(root, Cls{kLow, 0});
  const uint32_t svc = b.Node(root, "svc", Kind::kDirectory, system, /*boot=*/true);
  b.Acl(svc, {Allow(everyone, kList | kExecute)});
  const uint32_t app = b.Node(svc, "app", Kind::kDirectory, system);
  std::vector<uint32_t> hot_procs;
  for (int p = 0; p < kHotProcedures; ++p) {
    hot_procs.push_back(b.Node(app, "p" + std::to_string(p), Kind::kProcedure, system));
    in.procedures.push_back({hot_procs.back(), 5000 + p});
  }
  const uint32_t ev = b.Node(svc, "ev", Kind::kDirectory, system);
  b.Acl(ev, {Allow(everyone, kList | kExecute), Allow(vendor, kExtend)});
  for (int e = 0; e < kInterfaces; ++e) {
    in.interfaces.push_back(b.Node(ev, "e" + std::to_string(e), Kind::kInterface, system));
  }

  // One top-level site per monitor shard, each its own MemFs mount.
  std::vector<bool> shard_taken(xsec::kMonitorShardCount, false);
  for (int k = 0; in.sites.size() < xsec::kMonitorShardCount; ++k) {
    std::string name = "s" + std::to_string(k);
    xsec::ShardId shard = xsec::ShardOfName(name);
    if (!shard_taken[shard]) {
      shard_taken[shard] = true;
      in.sites.push_back(name);
    }
  }

  auto add_file = [&](uint32_t dir, const std::string& name, uint32_t owner) {
    uint32_t node = b.Node(dir, name, Kind::kFile, owner);
    FileSpec f{node, std::vector<uint8_t>(16 + rng.NextBelow(48))};
    for (uint8_t& byte : f.contents) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    in.files.push_back(std::move(f));
    return node;
  };

  struct Home {
    uint32_t dir, log;
    uint32_t files[kFilesPerHome];
  };
  std::vector<Home> homes(tenants.size());
  std::vector<uint32_t> tool_nodes(kOrgs * kToolsPerOrg);
  std::vector<uint32_t> shared_dirs(kOrgs * kDeptsPerOrg);
  std::vector<uint32_t> shared_files(kOrgs * kDeptsPerOrg * kSharedFiles);
  size_t next_tenant = 0;
  for (int o = 0; o < kOrgs; ++o) {
    const uint32_t org = org_groups[o];
    const Cls org_cat{kLow, 1u << (o % kCategories)};
    uint32_t site = b.Node(root, in.sites[o], Kind::kDirectory, system);
    b.Acl(site, {Allow(everyone, kList)});
    uint32_t org_dir = b.Node(site, m.principals[org].name, Kind::kDirectory, system);
    b.Acl(org_dir, {Allow(org, kList)});
    uint32_t bin = b.Node(org_dir, "bin", Kind::kDirectory, system);
    b.Acl(bin, {Allow(org, kList | kExecute), Deny(contractors, kExecute)});
    for (int t = 0; t < kToolsPerOrg; ++t) {
      uint32_t tool = b.Node(bin, "t" + std::to_string(t), Kind::kProcedure, system);
      if (t == 2) {
        b.Label(tool, Cls{kMid, 0});
      } else if (t == 3) {
        b.Label(tool, org_cat);
      }
      tool_nodes[o * kToolsPerOrg + t] = tool;
      in.procedures.push_back({tool, 1000 * (o + 1) + t});
    }
    for (int d = 0; d < kDeptsPerOrg; ++d) {
      const int di = o * kDeptsPerOrg + d;
      const uint32_t dept = dept_groups[di];
      uint32_t dept_dir = b.Node(org_dir, m.principals[dept].name, Kind::kDirectory, system);
      b.Acl(dept_dir, {Allow(dept, kList)});
      uint32_t shared = b.Node(dept_dir, "shared", Kind::kDirectory, secadmin);
      b.Acl(shared, {Allow(dept, kList | kRead), Deny(suspended, kRead)});
      shared_dirs[di] = shared;
      for (int g = 0; g < kSharedFiles; ++g) {
        uint32_t file = add_file(shared, "g" + std::to_string(g), secadmin);
        if (g == 2) {
          b.Label(file, org_cat);
        } else if (g == 3) {
          b.Label(file, Cls{kMid, 0});
        }
        shared_files[di * kSharedFiles + g] = file;
      }
      // Homes are 4, 5 or 6 levels deep depending on the department.
      const int layout = d % 3;
      for (int t = 0; t < kTeamsPerDept; ++t) {
        const uint32_t team = team_groups[di * kTeamsPerDept + t];
        uint32_t parent = dept_dir;
        if (layout >= 1) {
          parent = b.Node(dept_dir, m.principals[team].name, Kind::kDirectory, system);
          b.Acl(parent, {Allow(team, kList)});
        }
        if (layout == 2) {
          parent = b.Node(parent, "home", Kind::kDirectory, system);
        }
        for (int u = 0; u < kUsersPerTeam; ++u, ++next_tenant) {
          const Tenant& tn = tenants[next_tenant];
          Home& h = homes[next_tenant];
          h.dir = b.Node(parent, m.principals[tn.user].name, Kind::kDirectory, tn.user);
          b.Acl(h.dir, {Allow(tn.user, kRead | kWrite | kWriteAppend | kList),
                        Allow(team, kList)});
          for (int f = 0; f < kFilesPerHome; ++f) {
            h.files[f] = add_file(h.dir, "f" + std::to_string(f), tn.user);
          }
          b.Label(h.files[3], org_cat);
          b.Label(h.files[4], org_cat);
          b.Label(h.files[5], Cls{kMid, org_cat.cats});
          b.Label(h.files[6], tn.clearance);
          b.Label(h.files[7], org_cat);
          b.Acl(h.files[6], {Allow(tn.user, kRead), Deny(suspended, kRead)});
          b.Acl(h.files[7], {Allow(tn.user, kRead | kWriteAppend), Allow(team, kRead),
                             Deny(contractors, kRead)});
          h.log = add_file(h.dir, "log", tn.user);
          b.Label(h.log, tn.clearance);
        }
      }
    }
  }
  for (NodeSpec& n : m.nodes) {
    std::sort(n.children.begin(), n.children.end(), [&](uint32_t a, uint32_t c) {
      return Basename(m.nodes[a].path) < Basename(m.nodes[c].path);
    });
  }

  // -- Extensions -----------------------------------------------------------
  m.handlers.assign(m.nodes.size(), {});
  for (int e = 0; e < kInterfaces; ++e) {
    // A chain of handler classes per interface; the last interface has no
    // low handler, so low subjects find nothing they are cleared for.
    for (uint16_t level = (e == kInterfaces - 1 ? kMid : kLow); level <= kHigh; ++level) {
      ManifestSpec ms;
      ms.name = "prov-e" + std::to_string(e) + "-" + m.level_names[level];
      ms.loader = vendor;
      ms.loader_cls = Cls{kHigh, (1u << kCategories) - 1};
      ms.has_static = true;
      ms.static_class = Cls{level, 0};
      int64_t tag = 100 * (e + 1) + level;
      ms.exports.push_back({in.interfaces[e], tag});
      m.handlers[in.interfaces[e]].push_back({ms.static_class, tag});
      if (!m.DecidePath(vendor, ms.static_class, in.interfaces[e], kExtend).allowed) {
        Fail("provider export would not link");
      }
      in.manifests.push_back(std::move(ms));
    }
  }

  // -- Subjects ---------------------------------------------------------------
  // Three threads of control per tenant: at its clearance, at mid with its
  // org's category, and at the bottom of the lattice.
  for (size_t t = 0; t < tenants.size(); ++t) {
    const Tenant& tn = tenants[t];
    const Cls classes[3] = {tn.clearance, Cls{kMid, 1u << (tn.org_index % kCategories)},
                            Cls{kLow, 0}};
    for (const Cls& cls : classes) {
      in.subjects.push_back(SubjectSpec{tn.user, cls, homes[t].dir, homes[t].files[0],
                                        homes[t].log,
                                        tool_nodes[tn.org_index * kToolsPerOrg],
                                        in.interfaces[0]});
    }
  }

  auto expect_path = [&](Request& r, uint32_t modes) {
    const SubjectSpec& s = in.subjects[r.subject];
    bool ok = m.DecidePath(s.principal, s.cls, r.target, modes).allowed;
    r.expect_code = ok ? kExpectOk : kExpectDenied;
    return ok;
  };
  std::vector<int64_t> file_hash(m.nodes.size(), 0), file_size(m.nodes.size(), 0);
  for (const FileSpec& f : in.files) {
    file_hash[f.node] = static_cast<int64_t>(Fnv1a(f.contents.data(), f.contents.size()));
    file_size[f.node] = static_cast<int64_t>(f.contents.size());
  }
  std::vector<int64_t> proc_tag(m.nodes.size(), 0);
  for (const ProcSpec& p : in.procedures) {
    proc_tag[p.node] = p.tag;
  }
  auto list_hash = [&](uint32_t dir) {
    std::string joined;
    for (uint32_t c : m.nodes[dir].children) {
      if (!joined.empty()) {
        joined += '\n';
      }
      joined += Basename(m.nodes[c].path);
    }
    return static_cast<int64_t>(Fnv1a(joined.data(), joined.size()));
  };

  in.streams.resize(in.clients);
  if (workload == Workload::kExtHot) {
    // Per client: two tenants link an extension importing every hot
    // procedure and interface; their calls stay on that client's thread.
    for (int c = 0; c < in.clients; ++c) {
      std::vector<uint32_t> subjects;
      for (int l = 0; l < kLoadersPerClient; ++l) {
        size_t t;
        do {
          t = rng.NextBelow(tenants.size());
        } while (static_cast<int>(t % in.clients) != c);
        ManifestSpec ms;
        ms.name = "hot-c" + std::to_string(c) + "-" + std::to_string(l);
        ms.loader = tenants[t].user;
        ms.loader_cls = tenants[t].clearance;
        ms.imports = hot_procs;
        ms.imports.insert(ms.imports.end(), in.interfaces.begin(), in.interfaces.end());
        for (uint32_t node : ms.imports) {
          if (!m.DecidePath(ms.loader, ms.loader_cls, node, kExecute).allowed) {
            Fail("hot import would not link");
          }
        }
        subjects.push_back(static_cast<uint32_t>(3 * t));  // the clearance subject
        in.manifests.push_back(std::move(ms));
      }
      const size_t first_manifest = in.manifests.size() - kLoadersPerClient;
      for (size_t i = 0; i < kHotStreamLen; ++i) {
        Request r;
        r.op = Op::kCall;
        int l = static_cast<int>(rng.NextBelow(kLoadersPerClient));
        r.manifest = static_cast<uint16_t>(first_manifest + l);
        const ManifestSpec& ms = in.manifests[r.manifest];
        r.import = static_cast<uint16_t>(rng.NextBelow(ms.imports.size()));
        r.subject = subjects[l];
        r.target = ms.imports[r.import];
        const SubjectSpec& s = in.subjects[r.subject];
        if (!m.Decide(s.principal, s.cls, r.target, kExecute).allowed) {
          Fail("ext_hot call would be denied");
        }
        if (m.nodes[r.target].kind == Kind::kInterface) {
          if (!m.Select(r.target, s.cls, &r.expect_value)) {
            Fail("ext_hot dispatch has no eligible handler");
          }
        } else {
          r.expect_value = proc_tag[r.target];
        }
        in.streams[c].push_back(r);
      }
    }
  } else {
    // tenant_mix traffic: tenants are spread over clients by index, the op
    // mix is fixed and files within a home are Zipf-skewed.
    static constexpr int kOpWeights[] = {28, 10, 8, 10, 14, 14, 16};  // read..raise, shared read
    const std::vector<double> file_cdf = ZipfCdf(kFilesPerHome);
    for (int c = 0; c < in.clients; ++c) {
      std::vector<size_t> mine;
      for (size_t t = c; t < tenants.size(); t += in.clients) {
        mine.push_back(t);
      }
      for (size_t i = 0; i < kMixStreamLen; ++i) {
        size_t t = mine[rng.NextBelow(mine.size())];
        const Tenant& tn = tenants[t];
        uint64_t which = rng.NextBelow(10);
        Request r;
        r.subject = static_cast<uint32_t>(3 * t + (which < 5 ? 0 : which < 8 ? 1 : 2));
        const SubjectSpec& s = in.subjects[r.subject];
        int pick = static_cast<int>(rng.NextBelow(100));
        int op = 0;
        while (pick >= kOpWeights[op]) {
          pick -= kOpWeights[op++];
        }
        switch (op) {
          case 0:  // read
          case 1:  // stat
            r.op = op == 0 ? Op::kRead : Op::kStat;
            r.target = homes[t].files[Draw(file_cdf, rng)];
            if (expect_path(r, kRead)) {
              r.expect_value = op == 0 ? file_hash[r.target] : file_size[r.target];
            }
            break;
          case 2:
            r.op = Op::kList;
            r.target = homes[t].dir;
            if (expect_path(r, kList)) {
              r.expect_value = list_hash(r.target);
            }
            break;
          case 3: {
            r.op = Op::kAppend;
            r.target = homes[t].log;
            bool ok = m.DecidePath(s.principal, s.cls, r.target, kWriteAppend).allowed ||
                      m.DecidePath(s.principal, s.cls, r.target, kWrite).allowed;
            r.expect_code = ok ? kExpectOk : kExpectDenied;
            break;
          }
          case 4: {  // shared group file: mostly the tenant's own department
            int d = tn.dept_index;
            if (rng.NextBool(15, 100)) {
              d = (d + 1 + static_cast<int>(rng.NextBelow(kDeptsPerOrg - 1))) % kDeptsPerOrg;
            }
            r.op = Op::kRead;
            r.target = shared_files[(tn.org_index * kDeptsPerOrg + d) * kSharedFiles +
                                    rng.NextBelow(kSharedFiles)];
            if (expect_path(r, kRead)) {
              r.expect_value = file_hash[r.target];
            }
            break;
          }
          case 5:
            r.op = Op::kInvoke;
            r.target = tool_nodes[tn.org_index * kToolsPerOrg + rng.NextBelow(kToolsPerOrg)];
            if (expect_path(r, kExecute)) {
              r.expect_value = proc_tag[r.target];
            }
            break;
          default:
            r.op = Op::kRaise;
            r.target = in.interfaces[rng.NextBelow(kInterfaces)];
            if (expect_path(r, kExecute) && !m.Select(r.target, s.cls, &r.expect_value)) {
              r.expect_code = kExpectDenied;
            }
            break;
        }
        in.streams[c].push_back(r);
      }
    }
  }

  // -- Admin plan (policy_churn; the other workloads run it after the window)
  in.admin.admin = secadmin;
  in.admin.admin_cls = Cls{kLow, 0};
  in.admin.probe = probe;
  in.admin.probe_cls = Cls{kLow, 0};
  in.admin.grant_nodes = shared_dirs;
  for (size_t di = 0; di < shared_dirs.size(); ++di) {
    uint32_t g3 = shared_files[di * kSharedFiles + 3];
    in.admin.label_nodes.push_back({g3, m.nodes[g3].label});
  }
  in.admin.groups = team_groups;
  for (uint32_t node : in.admin.grant_nodes) {
    NodeSpec& n = m.nodes[node];
    if (m.Decide(probe, in.admin.probe_cls, node, kRead).allowed) {
      Fail("probe holds a grant before the admin gives it one");
    }
    n.acl.push_back(Allow(probe, kRead));
    bool granted = m.Decide(probe, in.admin.probe_cls, node, kRead).allowed;
    n.acl.pop_back();
    if (!granted) {
      Fail("probe grant would not take effect");
    }
  }

  in.policy = RenderPolicy(in);
  return in;
}

std::string Inputs::Serialize() const {
  std::string out = policy;
  auto put = [&out](const void* p, size_t n) { out.append(static_cast<const char*>(p), n); };
  auto put_cls = [&](const Cls& c) {
    put(&c.level, sizeof c.level);
    put(&c.cats, sizeof c.cats);
  };
  for (const std::string& s : sites) {
    out += "site " + s + "\n";
  }
  for (const FileSpec& f : files) {
    out += "file " + model.nodes[f.node].path + "\n";
    put(f.contents.data(), f.contents.size());
  }
  for (const ProcSpec& p : procedures) {
    out += "proc " + model.nodes[p.node].path + " " + std::to_string(p.tag) + "\n";
  }
  for (const ManifestSpec& ms : manifests) {
    out += "ext " + ms.name + " " + model.principals[ms.loader].name + "\n";
    put_cls(ms.loader_cls);
    if (ms.has_static) {
      put_cls(ms.static_class);
    }
    for (uint32_t i : ms.imports) {
      out += "import " + model.nodes[i].path + "\n";
    }
    for (const auto& [node, tag] : ms.exports) {
      out += "export " + model.nodes[node].path + " " + std::to_string(tag) + "\n";
    }
  }
  for (const SubjectSpec& s : subjects) {
    put(&s.principal, sizeof s.principal);
    put_cls(s.cls);
  }
  for (const std::vector<Request>& stream : streams) {
    out += "stream\n";
    for (const Request& r : stream) {
      put(&r.op, 1);
      put(&r.expect_code, 1);
      put(&r.manifest, 2);
      put(&r.import, 2);
      put(&r.subject, 4);
      put(&r.target, 4);
      put(&r.expect_value, 8);
    }
  }
  return out;
}

}  // namespace perfbench
