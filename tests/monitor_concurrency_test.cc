// Hammers the reference monitor from many threads at once: readers calling
// Check/CheckPath while administrators rewrite ACLs, relabel nodes, and churn
// group membership. Designed to run under ThreadSanitizer (ci/run_checks.sh
// builds with -fsanitize=thread); any lock-ordering or publication bug in the
// stores, the decision cache, or the audit log shows up here.
//
// Beyond "no crashes, no races" the test checks the cache soundness property
// end to end: once the mutators stop, every cached decision must agree with a
// fresh cache-disabled evaluation over the same stores — concurrency may make
// cached entries spuriously stale, never wrongly fresh.

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/thread_stripe.h"
#include "src/monitor/reference_monitor.h"

namespace xsec {
namespace {

constexpr size_t kNodes = 32;
constexpr size_t kReaderThreads = 4;
constexpr int kReaderIterations = 4000;
constexpr int kMutatorIterations = 400;

class MonitorConcurrencyTest : public ::testing::Test {
 protected:
  MonitorConcurrencyTest() {
    MonitorOptions options;
    options.audit_policy = AuditPolicy::kDenialsOnly;
    options.audit_capacity = 1024;
    options.cache_slots = 4096;
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);

    admin_ = *principals_.CreateUser("admin");
    officer_ = *principals_.CreateUser("officer");
    group_ = *principals_.CreateGroup("readers");
    for (size_t i = 0; i < kReaderThreads; ++i) {
      users_.push_back(*principals_.CreateUser("user" + std::to_string(i)));
      (void)principals_.AddMember(group_, users_.back());
    }
    churn_user_ = *principals_.CreateUser("churn");
    (void)labels_.DefineLevels({"low", "high"});
    monitor_->set_security_officer(officer_);

    svc_ = *ns_.BindPath("/svc", NodeKind::kDirectory, admin_);
    for (size_t i = 0; i < kNodes; ++i) {
      nodes_.push_back(
          *ns_.BindPath("/svc/n" + std::to_string(i), NodeKind::kFile, admin_));
    }
    // Group may list the tree and read every node (per-node ACLs are what
    // the ACL-mutator thread rewrites).
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, group_,
                  AccessMode::kRead | AccessMode::kList});
    (void)ns_.SetAclRef(svc_, acls_.Create(std::move(acl)));
  }

  Subject Low(PrincipalId p) { return Subject{p, labels_.Bottom(), 1}; }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  PrincipalId admin_, officer_, group_, churn_user_;
  std::vector<PrincipalId> users_;
  NodeId svc_;
  std::vector<NodeId> nodes_;
};

TEST_F(MonitorConcurrencyTest, ConcurrentChecksAndMutationsAreRaceFreeAndSound) {
  std::atomic<uint64_t> reader_checks{0};
  std::vector<std::thread> threads;

  // Readers: cached checks plus the occasional full path resolution.
  for (size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject me = Low(users_[t]);
      for (int i = 0; i < kReaderIterations; ++i) {
        NodeId node = nodes_[(t * 7 + static_cast<size_t>(i)) % kNodes];
        (void)monitor_->Check(me, node, AccessMode::kRead);
        reader_checks.fetch_add(1, std::memory_order_relaxed);
        if (i % 16 == 0) {
          (void)monitor_->CheckPath(me, "/svc/n" + std::to_string(i % kNodes),
                                    AccessMode::kRead);
        }
      }
    });
  }

  // ACL mutator: rewrites per-node ACLs, alternately granting and revoking.
  threads.emplace_back([&] {
    Subject admin = Low(admin_);
    for (int i = 0; i < kMutatorIterations; ++i) {
      NodeId node = nodes_[static_cast<size_t>(i) % kNodes];
      Acl acl;
      if (i % 2 == 0) {
        acl.AddEntry({AclEntryType::kAllow, group_, AccessModeSet(AccessMode::kRead)});
      }
      ASSERT_TRUE(monitor_->SetNodeAcl(admin, node, std::move(acl)).ok());
      if (i % 8 == 0) {
        ASSERT_TRUE(monitor_
                        ->AddAclEntry(admin, node,
                                      {AclEntryType::kAllow, churn_user_,
                                       AccessModeSet(AccessMode::kRead)})
                        .ok());
        ASSERT_TRUE(monitor_->RemoveAclEntriesFor(admin, node, churn_user_).ok());
      }
    }
  });

  // Label mutator: the security officer floats node labels low <-> high.
  threads.emplace_back([&] {
    Subject officer = Low(officer_);
    SecurityClass low = labels_.Bottom();
    SecurityClass high(1, CategorySet(0));
    for (int i = 0; i < kMutatorIterations; ++i) {
      NodeId node = nodes_[static_cast<size_t>(i * 3) % kNodes];
      ASSERT_TRUE(
          monitor_->SetNodeLabel(officer, node, i % 2 == 0 ? high : low).ok());
    }
  });

  // Membership churn: a principal enters and leaves the reader group.
  threads.emplace_back([&] {
    for (int i = 0; i < kMutatorIterations; ++i) {
      ASSERT_TRUE(principals_.AddMember(group_, churn_user_).ok());
      Subject churn = Low(churn_user_);
      (void)monitor_->Check(churn, nodes_[static_cast<size_t>(i) % kNodes],
                            AccessMode::kRead);
      ASSERT_TRUE(principals_.RemoveMember(group_, churn_user_).ok());
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }

  // Counter invariants survive arbitrary interleavings.
  const DecisionCache& cache = monitor_->cache();
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  EXPECT_LE(cache.stale_hits(), cache.misses());
  EXPECT_GE(monitor_->audit().total_checks(), reader_checks.load());
  EXPECT_GE(monitor_->audit().total_checks(), monitor_->audit().total_denials());

  // Soundness at quiescence: every cached decision equals a fresh evaluation
  // by a cache-disabled monitor sharing the same stores.
  MonitorOptions fresh_options;
  fresh_options.cache_enabled = false;
  fresh_options.audit_policy = AuditPolicy::kOff;
  ReferenceMonitor fresh(&ns_, &acls_, &principals_, &labels_, fresh_options);
  for (size_t t = 0; t < kReaderThreads; ++t) {
    Subject me = Low(users_[t]);
    for (NodeId node : nodes_) {
      Decision cached = monitor_->Check(me, node, AccessMode::kRead);
      Decision ground_truth = fresh.Check(me, node, AccessMode::kRead);
      EXPECT_EQ(cached.allowed, ground_truth.allowed)
          << "node " << node.value << " user " << t;
      EXPECT_EQ(cached.reason, ground_truth.reason);
    }
  }
}

// The audit ring accepts concurrent producers without losing its bounded-size
// or monotonic-sequence guarantees.
TEST_F(MonitorConcurrencyTest, AuditRingUnderConcurrentDenials) {
  monitor_->set_audit_policy(AuditPolicy::kAll);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject me = Low(users_[t]);
      for (int i = 0; i < kReaderIterations / 4; ++i) {
        (void)monitor_->Check(me, nodes_[static_cast<size_t>(i) % kNodes],
                              AccessMode::kWrite);  // never granted -> denials
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<AuditRecord> records = monitor_->audit().records();
  EXPECT_LE(records.size(), 1024u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].sequence, records[i].sequence);
  }
  EXPECT_EQ(monitor_->audit().total_checks(),
            kReaderThreads * static_cast<uint64_t>(kReaderIterations / 4));
}

// Every per-check counter is striped per thread and summed on read; the
// sums must be exact once the checking threads have joined. More threads
// than private stripes run at once, so the shared overflow stripe (the
// fetch_add fallback) is exercised too. Every 4th check asks for write,
// which the group ACL never grants, so the denial counts are exact as well.
TEST_F(MonitorConcurrencyTest, CountersStayExactUnderConcurrentChecks) {
  constexpr size_t kThreads = kThreadStripes + 4;
  constexpr int kChecksPerThread = 400;
  constexpr uint64_t kTotal = kThreads * kChecksPerThread;
  constexpr uint64_t kDenials = kThreads * (kChecksPerThread / 4);
  ASSERT_TRUE(monitor_->RecompileNow().ok());

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Subject me = Low(users_[t % kReaderThreads]);
      start.arrive_and_wait();  // all alive at once: stripes run out
      for (int i = 0; i < kChecksPerThread; ++i) {
        AccessMode mode = i % 4 == 0 ? AccessMode::kWrite : AccessMode::kRead;
        (void)monitor_->Check(me, nodes_[(t + static_cast<size_t>(i)) % kNodes], mode);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // All nodes live in /svc's shard.
  EXPECT_EQ(monitor_->shard_checks(ns_.ShardOf(nodes_[0])), kTotal);
  uint64_t all_domains = monitor_->shard_checks(kAggregateShard);
  for (ShardId s = 0; s < kMonitorShardCount; ++s) {
    all_domains += monitor_->shard_checks(s);
  }
  EXPECT_EQ(all_domains, kTotal);
  EXPECT_EQ(monitor_->audit().total_checks(), kTotal);
  EXPECT_EQ(monitor_->audit().total_denials(), kDenials);
  const DecisionCache& cache = monitor_->cache();
  EXPECT_EQ(cache.hits() + cache.misses(), kTotal);
  // Every cache miss probes the compiled tier exactly once.
  ReferenceMonitor::CompiledCounters compiled = monitor_->compiled_counters();
  EXPECT_EQ(compiled.hits + compiled.fallbacks + compiled.stale, cache.misses());
  EXPECT_EQ(monitor_->stats().checks_total(), kTotal);
  EXPECT_EQ(monitor_->stats().denied_total(), kDenials);

  // Clear() zeroes the audit counters as seen by readers.
  monitor_->audit().Clear();
  EXPECT_EQ(monitor_->audit().total_checks(), 0u);
  (void)monitor_->Check(Low(users_[0]), nodes_[0], AccessMode::kWrite);
  EXPECT_EQ(monitor_->audit().total_checks(), 1u);
  EXPECT_EQ(monitor_->audit().total_denials(), 1u);
}

}  // namespace
}  // namespace xsec
