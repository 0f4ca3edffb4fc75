// Experiment F15 — batched vs per-call checks (MODEL.md §14).
//
// CheckBatch's claim is amortization: a batch of N decisions reads each
// validity domain's stamps once, lands ONE striped stats flush, and stamps
// retained audit records in one section per run, where N per-call checks
// pay N of each (plus per-call latency sampling).
//
//   check_per_call         ReferenceMonitor::Check in a loop — the baseline
//                          every mediated operation pays today
//   check_batched/N        one CheckBatch of N requests per iteration; the
//                          gate (ci/check_bench_f15.py) divides cpu_time by
//                          N and requires per-item <= per-call at N >= 8

#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/secure_system.h"

namespace xsec {
namespace {

// Default monitor configuration on purpose: stats, cache, audit policy all
// as shipped — the figure is batching's effect on the real check path.
struct Fixture {
  Fixture() {
    user = *sys.CreateUser("batch-user");
    node = *sys.name_space().BindPath("/data/batch/target", NodeKind::kFile, user);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessMode::kRead | AccessMode::kWrite});
    (void)sys.name_space().SetAclRef(node, sys.kernel().acls().Create(std::move(acl)));
    subject = sys.Login(user, sys.labels().Bottom());
  }

  SecureSystem sys;
  PrincipalId user;
  NodeId node;
  Subject subject;
};

void BM_CheckPerCall(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    Decision d = f.sys.monitor().Check(f.subject, f.node, AccessMode::kRead);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckPerCall);

void BM_CheckBatched(benchmark::State& state) {
  Fixture f;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<ReferenceMonitor::BatchCheckRequest> requests(
      n, ReferenceMonitor::BatchCheckRequest{f.subject, f.node,
                                             AccessModeSet(AccessMode::kRead)});
  std::vector<Decision> out(n);
  for (auto _ : state) {
    f.sys.monitor().CheckBatch(requests.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CheckBatched)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace xsec

BENCHMARK_MAIN();
