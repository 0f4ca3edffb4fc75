// Regression tests for the Clear()/in-flight-check race: a CheckBatch (or
// single check) that captured its stamps before a DecisionCache::Clear()
// must not be able to re-insert its pre-clear decision afterwards. Clear()
// bumps clear_epoch_ BEFORE wiping, and the epoch-carrying Insert refuses
// under the shard lock when the epoch moved — so a stale insert either lands
// before the wipe (and is wiped) or refuses. Both interleavings leave the
// cache empty of pre-clear decisions, which makes the property
// deterministically testable despite the race.
//
// The --quick and --faults sanitizer sweeps (ci/run_checks.sh) run this
// file's concurrent hammers: ctest -R ShardClearRace.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/monitor/decision_cache.h"
#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

Subject TestSubject(PrincipalId p, uint64_t thread_id = 1) {
  return Subject{p, SecurityClass(), thread_id};
}

TEST(ShardClearRaceTest, StaleEpochInsertIsRefused) {
  DecisionCache cache(64);
  Subject subject = TestSubject(PrincipalId{1});
  CacheStamps stamps;
  DecisionCache::CachedDecision out;

  // An insert carrying an epoch captured before Clear() must be a no-op.
  uint64_t stale_epoch = cache.clear_epoch();
  cache.Clear();
  cache.Insert(subject, NodeId{1}, AccessModeSet(AccessMode::kRead), stamps,
               DecisionCache::CachedDecision{true, DenyReason::kNone}, stale_epoch);
  EXPECT_FALSE(cache.Lookup(subject, NodeId{1}, AccessModeSet(AccessMode::kRead), stamps, &out));

  // The same insert with a current epoch lands.
  cache.Insert(subject, NodeId{1}, AccessModeSet(AccessMode::kRead), stamps,
               DecisionCache::CachedDecision{true, DenyReason::kNone}, cache.clear_epoch());
  EXPECT_TRUE(cache.Lookup(subject, NodeId{1}, AccessModeSet(AccessMode::kRead), stamps, &out));
  EXPECT_TRUE(out.allowed);
}

TEST(ShardClearRaceTest, ClearRacingInsertNeverResurrectsPreClearDecision) {
  // The determinism argument: whatever the interleaving, an Insert whose
  // epoch predates a Clear() is unobservable once BOTH the Insert and the
  // Clear() have returned. Either the Insert landed first and the wipe
  // removed it, or it saw the bumped epoch and refused. So the post-join
  // Lookup below must miss on EVERY iteration — under TSan and otherwise.
  constexpr int kRounds = 400;
  DecisionCache cache(64);
  Subject subject = TestSubject(PrincipalId{2});
  CacheStamps stamps;

  for (int round = 0; round < kRounds; ++round) {
    NodeId node{static_cast<uint32_t>(round + 1)};
    uint64_t pre_clear_epoch = cache.clear_epoch();
    std::atomic<bool> go{false};
    std::thread inserter([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      cache.Insert(subject, node, AccessModeSet(AccessMode::kRead), stamps,
                   DecisionCache::CachedDecision{true, DenyReason::kNone}, pre_clear_epoch);
    });
    go.store(true, std::memory_order_release);
    cache.Clear();
    inserter.join();

    DecisionCache::CachedDecision out;
    ASSERT_FALSE(cache.Lookup(subject, node, AccessModeSet(AccessMode::kRead), stamps, &out))
        << "round " << round << ": a pre-clear decision survived Clear()";
  }
}

// The end-to-end shape the fix exists for: CheckBatch captures its clear
// epoch once at batch start and each domain's stamps at most once per batch;
// a concurrent Clear() plus ACL tightening must not let the batch re-install
// its pre-clear allows. The hammer runs batches from several threads against
// cache clears and policy mutations, then proves quiescent agreement with
// the final (deny) policy.
TEST(ShardClearRaceTest, BatchesRacingClearConvergeOnFinalPolicy) {
  NameSpace ns;
  AclStore acls;
  PrincipalRegistry principals;
  LabelAuthority labels;
  MonitorOptions moptions;
  moptions.audit_policy = AuditPolicy::kOff;
  ReferenceMonitor monitor(&ns, &acls, &principals, &labels, moptions);

  PrincipalId user = *principals.CreateUser("u");
  constexpr int kNodes = 8;
  constexpr size_t kBatch = 16;
  std::vector<NodeId> nodes;
  std::vector<AclStore::AclRef> refs;
  for (int i = 0; i < kNodes; ++i) {
    NodeId node = *ns.BindPath("/t" + std::to_string(i) + "/obj", NodeKind::kObject, user);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, user, AccessModeSet(AccessMode::kRead)});
    AclStore::AclRef ref = acls.Create(std::move(acl), ns.ShardOf(node));
    ASSERT_TRUE(ns.SetAclRef(node, ref).ok());
    nodes.push_back(node);
    refs.push_back(ref);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> checkers;
  for (int t = 0; t < 3; ++t) {
    checkers.emplace_back([&, t] {
      std::vector<ReferenceMonitor::BatchCheckRequest> batch(kBatch);
      std::vector<Decision> out(kBatch);
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (ReferenceMonitor::BatchCheckRequest& req : batch) {
          req = {TestSubject(user, t + 1), nodes[(i++ + t) % kNodes],
                 AccessModeSet(AccessMode::kRead)};
        }
        monitor.CheckBatch(batch.data(), batch.size(), out.data());
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      monitor.cache().Clear();
      std::this_thread::yield();
    }
  });

  // Tighten policy under load: strip the allow entry from every node, with
  // cache clears racing the in-flight batches the whole time.
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(acls.Replace(refs[i], Acl()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : checkers) {
    t.join();
  }
  clearer.join();

  // Quiescent: every node now denies, and no raced batch left a stale allow
  // behind — a final Clear()-free probe must agree with the final policy.
  for (NodeId node : nodes) {
    Decision d = monitor.Check(TestSubject(user), node, AccessMode::kRead);
    EXPECT_FALSE(d.allowed) << "node " << node.value
                            << ": stale pre-clear allow resurrected into the cache";
  }
}

}  // namespace
}  // namespace xsec
