#include "src/base/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/core/secure_system.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {
namespace {

// Failpoints are process-global; every test disarms on the way out so a
// failing assertion cannot leak an armed fault into an unrelated suite.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

Status Hit(const char* name) {
  // One site per distinct name: the macro's function-local static caches the
  // registry lookup, so tests route through GetOrCreate + Evaluate directly
  // where they need per-name sites, and use the macro where the site under
  // test is the macro itself.
  Failpoint* point = FailpointRegistry::Instance().GetOrCreate(name);
  if (point->armed()) {
    return point->Evaluate();
  }
  return OkStatus();
}

TEST_F(FailpointTest, ParseGrammar) {
  auto error = FailpointSpec::Parse("error");
  ASSERT_TRUE(error.ok());
  EXPECT_TRUE(error->inject_error);
  EXPECT_EQ(error->code, StatusCode::kInternal);
  EXPECT_EQ(error->sleep_ns, 0u);
  EXPECT_EQ(error->skip, 0u);
  EXPECT_EQ(error->times, -1);

  auto coded = FailpointSpec::Parse("error=resource-exhausted");
  ASSERT_TRUE(coded.ok());
  EXPECT_EQ(coded->code, StatusCode::kResourceExhausted);

  auto sleep_ms = FailpointSpec::Parse("sleep=5ms");
  ASSERT_TRUE(sleep_ms.ok());
  EXPECT_EQ(sleep_ms->sleep_ns, 5'000'000u);
  EXPECT_FALSE(sleep_ms->inject_error);

  auto sleep_bare = FailpointSpec::Parse("sleep=3");  // bare numbers are ms
  ASSERT_TRUE(sleep_bare.ok());
  EXPECT_EQ(sleep_bare->sleep_ns, 3'000'000u);

  auto sleep_us = FailpointSpec::Parse("sleep=250us");
  ASSERT_TRUE(sleep_us.ok());
  EXPECT_EQ(sleep_us->sleep_ns, 250'000u);

  auto full = FailpointSpec::Parse("error=not-found,sleep=1us,nth=3,times=2");
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->inject_error);
  EXPECT_EQ(full->code, StatusCode::kNotFound);
  EXPECT_EQ(full->sleep_ns, 1'000u);
  EXPECT_EQ(full->skip, 2u);  // nth=3 → pass the first two hits
  EXPECT_EQ(full->times, 2);

  auto off = FailpointSpec::Parse("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->active());

  // Rejected: unknown clauses, bad codes, no-effect specs, nth=0.
  EXPECT_FALSE(FailpointSpec::Parse("").ok());
  EXPECT_FALSE(FailpointSpec::Parse("bogus").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error=no-such-code").ok());
  EXPECT_FALSE(FailpointSpec::Parse("nth=3").ok());  // gates nothing
  EXPECT_FALSE(FailpointSpec::Parse("error,nth=0").ok());
  EXPECT_FALSE(FailpointSpec::Parse("error,times=x").ok());
}

TEST_F(FailpointTest, SpecRoundTripsThroughToString) {
  for (const char* text :
       {"error=not-found,nth=3,times=2", "sleep=5ms", "error=internal"}) {
    auto spec = FailpointSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto again = FailpointSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok()) << spec->ToString();
    EXPECT_EQ(again->inject_error, spec->inject_error);
    EXPECT_EQ(again->code, spec->code);
    EXPECT_EQ(again->sleep_ns, spec->sleep_ns);
    EXPECT_EQ(again->skip, spec->skip);
    EXPECT_EQ(again->times, spec->times);
  }
}

TEST_F(FailpointTest, DisarmedSiteIsTransparent) {
  Failpoint* point = FailpointRegistry::Instance().GetOrCreate("test.fp.disarmed");
  EXPECT_FALSE(point->armed());
  uint64_t hits_before = point->hits();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(Hit("test.fp.disarmed").ok());
  }
  // The disarmed fast path never reaches Evaluate, so hits do not move.
  EXPECT_EQ(point->hits(), hits_before);
}

TEST_F(FailpointTest, NthGatingIsDeterministic) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.nth", "error,nth=3").ok());
  EXPECT_TRUE(Hit("test.fp.nth").ok());   // hit 1
  EXPECT_TRUE(Hit("test.fp.nth").ok());   // hit 2
  for (int i = 0; i < 5; ++i) {           // hits 3.. all fire
    Status status = Hit("test.fp.nth");
    EXPECT_EQ(status.code(), StatusCode::kInternal) << i;
  }
  // Re-arming resets the gate: the skip window applies afresh.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.nth", "error,nth=2").ok());
  EXPECT_TRUE(Hit("test.fp.nth").ok());
  EXPECT_FALSE(Hit("test.fp.nth").ok());
}

TEST_F(FailpointTest, TimesBoundsFiresThenAutoDisarms) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.times", "error,times=2").ok());
  Failpoint* point = FailpointRegistry::Instance().Find("test.fp.times");
  ASSERT_NE(point, nullptr);
  EXPECT_FALSE(Hit("test.fp.times").ok());
  EXPECT_FALSE(Hit("test.fp.times").ok());
  // Budget exhausted: passes through and disarms so later hits take the
  // one-atomic fast path again.
  EXPECT_TRUE(Hit("test.fp.times").ok());
  EXPECT_FALSE(point->armed());
  EXPECT_EQ(point->fires(), 2u);
}

TEST_F(FailpointTest, InjectedErrorCarriesTheRequestedCode) {
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("test.fp.code", "error=permission-denied")
                  .ok());
  Status status = Hit("test.fp.code");
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(status.message().find("test.fp.code"), std::string::npos)
      << "the injected error names its failpoint: " << status.message();
}

TEST_F(FailpointTest, SleepInjectsLatency) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.sleep", "sleep=2ms").ok());
  uint64_t start = MonotonicNowNs();
  EXPECT_TRUE(Hit("test.fp.sleep").ok());  // sleep-only specs still return OK
  EXPECT_GE(MonotonicNowNs() - start, 2'000'000u);
}

TEST_F(FailpointTest, MacroReturnsInjectedStatusFromEnclosingFunction) {
  auto site = []() -> Status {
    XSEC_FAILPOINT("test.fp.macro");
    return OkStatus();
  };
  EXPECT_TRUE(site().ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.macro", "error=cancelled").ok());
  EXPECT_EQ(site().code(), StatusCode::kCancelled);
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.macro", "off").ok());
  EXPECT_TRUE(site().ok());
  EXPECT_FALSE(XSEC_FAILPOINT_FIRED("test.fp.macro"));
}

TEST_F(FailpointTest, RegistryFindAndNames) {
  EXPECT_EQ(FailpointRegistry::Instance().Find("test.fp.never-created"), nullptr);
  FailpointRegistry::Instance().GetOrCreate("test.fp.named");
  EXPECT_NE(FailpointRegistry::Instance().Find("test.fp.named"), nullptr);
  std::vector<std::string> names = FailpointRegistry::Instance().Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.fp.named"), names.end());
  EXPECT_FALSE(FailpointRegistry::Instance().Arm("test.fp.named", "garbage").ok());
}

// Arm/disarm racing free-running evaluation: every observed outcome must be
// either OK or the injected error, never a crash or a torn spec. Run under
// TSan via ci/run_checks.sh --quick / --faults.
TEST_F(FailpointTest, ArmDisarmRaceUnderEvaluation) {
  constexpr int kHitters = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oks{0};
  std::atomic<uint64_t> errors{0};
  // Counted down once by each hitter after its first evaluation. Under load
  // the threads may start late, so the arm/disarm loop keeps racing until
  // every hitter has evaluated at least once.
  std::latch started(kHitters);
  std::vector<std::thread> hitters;
  for (int t = 0; t < kHitters; ++t) {
    hitters.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        Status status = Hit("test.fp.race");
        if (first) {
          started.count_down();
          first = false;
        }
        if (status.ok()) {
          oks.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(status.code(), StatusCode::kInternal);
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 200 || !started.try_wait(); ++i) {
    ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.race", "error").ok());
    std::this_thread::yield();
    ASSERT_TRUE(FailpointRegistry::Instance().Arm("test.fp.race", "off").ok());
  }
  stop.store(true);
  for (auto& thread : hitters) {
    thread.join();
  }
  EXPECT_GT(oks.load() + errors.load(), 0u);
}

// Randomized sweep: a seeded scenario arms random specs on a pool of sites
// while worker threads hammer them, asserting only invariants (injected
// codes come from the armed set; counters are monotone). XSEC_FAULT_SEED
// in the environment varies the schedule — ci/run_checks.sh --faults runs
// this under ASan+TSan with a random seed and prints it for replay.
TEST_F(FailpointTest, RandomizedSweepHoldsInvariants) {
  uint64_t seed = 0xfau;
  if (const char* env = std::getenv("XSEC_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  const char* sites[] = {"test.fp.sweep.a", "test.fp.sweep.b", "test.fp.sweep.c"};
  const char* specs[] = {"error",
                         "error=not-found,nth=2",
                         "error=resource-exhausted,times=3",
                         "sleep=1us",
                         "error,sleep=1us,times=5",
                         "off"};
  std::atomic<bool> stop{false};
  std::vector<std::thread> hitters;
  for (const char* site : sites) {
    hitters.emplace_back([&, site] {
      while (!stop.load(std::memory_order_relaxed)) {
        Status status = Hit(site);
        if (!status.ok()) {
          StatusCode code = status.code();
          ASSERT_TRUE(code == StatusCode::kInternal || code == StatusCode::kNotFound ||
                      code == StatusCode::kResourceExhausted)
              << status.ToString();
        }
      }
    });
  }
  Rng rng(seed);
  for (int round = 0; round < 300; ++round) {
    const char* site = sites[rng.NextBelow(3)];
    const char* spec = specs[rng.NextBelow(6)];
    ASSERT_TRUE(FailpointRegistry::Instance().Arm(site, spec).ok()) << spec;
  }
  stop.store(true);
  for (auto& thread : hitters) {
    thread.join();
  }
  for (const char* site : sites) {
    Failpoint* point = FailpointRegistry::Instance().Find(site);
    ASSERT_NE(point, nullptr);
    EXPECT_GE(point->hits(), point->fires());
  }
}

// -- The mediated control plane (FaultService) --------------------------------

class FaultServiceTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(FaultServiceTest, SystemArmsReadsAndDisarms) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  auto armed = sys.faults().Arm(system, "test.svc.point", "error,nth=2");
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_NE(armed->find("error"), std::string::npos);

  Failpoint* point = FailpointRegistry::Instance().Find("test.svc.point");
  ASSERT_NE(point, nullptr);
  EXPECT_TRUE(point->armed());

  auto state = sys.faults().ReadFault(system, "test.svc.point");
  ASSERT_TRUE(state.ok());
  EXPECT_NE(state->find("nth=2"), std::string::npos);

  auto listing = sys.faults().List(system);
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("test.svc.point"), std::string::npos);

  ASSERT_TRUE(sys.faults().Arm(system, "test.svc.point", "off").ok());
  EXPECT_FALSE(point->armed());
}

TEST_F(FaultServiceTest, ArmingIsFailClosedForOrdinaryUsers) {
  SecureSystem sys;
  auto mallory = sys.CreateUser("mallory");
  ASSERT_TRUE(mallory.ok());
  Subject mallory_s = sys.Login(*mallory, sys.labels().Bottom());
  auto armed = sys.faults().Arm(mallory_s, "test.svc.denied", "error");
  EXPECT_EQ(armed.status().code(), StatusCode::kPermissionDenied);
  // The denial never reached the registry: the failpoint stays disarmed.
  Failpoint* point = FailpointRegistry::Instance().Find("test.svc.denied");
  EXPECT_TRUE(point == nullptr || !point->armed());
  // Reads and listings are fail-closed too.
  EXPECT_EQ(sys.faults().ReadFault(mallory_s, "test.svc.denied").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(sys.faults().List(mallory_s).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(FaultServiceTest, ArmingIsAudited) {
  SecureSystem sys;
  sys.monitor().audit().set_policy(AuditPolicy::kAll);
  Subject system = sys.SystemSubject();
  ASSERT_TRUE(sys.faults().Arm(system, "test.svc.audited", "sleep=1us").ok());
  auto records = sys.monitor().audit().Query([](const AuditRecord& record) {
    return record.path == "/sys/faults/test.svc.audited" &&
           record.modes.Contains(AccessMode::kAdministrate);
  });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].allowed);
}

TEST_F(FaultServiceTest, RejectsInvalidNames) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  EXPECT_EQ(sys.faults().Arm(system, "bad name", "error").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys.faults().Arm(system, "", "error").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys.faults().Arm(system, "a/b", "error").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FaultServiceTest, BadSpecIsRejectedAfterTheCheck) {
  SecureSystem sys;
  Subject system = sys.SystemSubject();
  auto armed = sys.faults().Arm(system, "test.svc.badspec", "gibberish");
  EXPECT_EQ(armed.status().code(), StatusCode::kInvalidArgument);
  Failpoint* point = FailpointRegistry::Instance().Find("test.svc.badspec");
  EXPECT_TRUE(point == nullptr || !point->armed());
}

}  // namespace
}  // namespace xsec
