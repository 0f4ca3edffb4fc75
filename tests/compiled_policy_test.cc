// Compiled-policy unit tests: deterministic equivalence against the
// interpreted path, epoch/staleness behavior, fallback coverage, the
// policy-reload invalidation regression, and DominanceMatrix properties.
// The randomized end-to-end oracle lives in tests/diff_fuzz_test.cc.

#include "src/monitor/compiled_policy.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/base/failpoint.h"
#include "src/base/rng.h"
#include "src/extsys/kernel.h"
#include "src/monitor/reference_monitor.h"
#include "src/policy/policy_io.h"

namespace xsec {
namespace {

class CompiledPolicyTest : public ::testing::Test {
 protected:
  CompiledPolicyTest() { Boot(MonitorOptions{}); }

  void Boot(MonitorOptions options) {
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);
    if (!booted_) {
      alice_ = *principals_.CreateUser("alice");
      bob_ = *principals_.CreateUser("bob");
      staff_ = *principals_.CreateGroup("staff");
      (void)principals_.AddMember(staff_, alice_);
      (void)labels_.DefineLevels({"low", "high"});
      (void)labels_.DefineCategory("a");
      (void)labels_.DefineCategory("b");
      dir_ = *ns_.BindPath("/d", NodeKind::kDirectory, alice_);
      sub_ = *ns_.BindPath("/d/sub", NodeKind::kDirectory, alice_);
      obj_ = *ns_.BindPath("/d/sub/obj", NodeKind::kFile, alice_);
      Acl acl;
      acl.AddEntry({AclEntryType::kAllow, staff_, AccessMode::kRead | AccessMode::kList});
      acl.AddEntry({AclEntryType::kAllow, bob_, AccessModeSet(AccessMode::kRead)});
      acl.AddEntry({AclEntryType::kDeny, bob_, AccessModeSet(AccessMode::kWrite)});
      (void)ns_.SetAclRef(dir_, acls_.Create(std::move(acl)));
      high_ = *labels_.MakeClass("high", {"a"});
      (void)ns_.SetLabelRef(sub_, labels_.StoreLabel(high_));
      booted_ = true;
    }
  }

  SecurityClass Cls(TrustLevel level, std::initializer_list<size_t> cats = {}) {
    CategorySet set(2);
    for (size_t c : cats) {
      set.Set(c);
    }
    return SecurityClass(level, std::move(set));
  }

  // Asserts the compiled tables cover (subject, node, modes) and decide
  // exactly — allowed, reason, AND detail — what the interpreter decides.
  void ExpectCompiledEquals(const Subject& subject, NodeId node, AccessModeSet modes) {
    Decision interpreted = monitor_->CheckInterpreted(subject, node, modes);
    Decision compiled;
    ASSERT_TRUE(monitor_->TryCompiledCheck(subject, node, modes, &compiled))
        << "compiled tables did not cover the input";
    EXPECT_EQ(compiled.allowed, interpreted.allowed);
    EXPECT_EQ(compiled.reason, interpreted.reason);
    EXPECT_EQ(compiled.detail, interpreted.detail);
  }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  bool booted_ = false;
  PrincipalId alice_, bob_, staff_;
  NodeId dir_, sub_, obj_;
  SecurityClass high_;
};

TEST_F(CompiledPolicyTest, CompiledMatchesInterpretedAcrossFixture) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  const SecurityClass classes[] = {Cls(0), Cls(1, {0}), Cls(1, {0, 1}), high_};
  const AccessModeSet mode_sets[] = {
      AccessModeSet(AccessMode::kRead),
      AccessMode::kRead | AccessMode::kWrite,
      AccessModeSet(AccessMode::kAdministrate),
      AccessMode::kList | AccessMode::kExecute,
      AccessModeSet(AccessMode::kWriteAppend),
      AccessMode::kRead | AccessMode::kWrite | AccessMode::kDelete,
      AccessModeSet(),
  };
  for (PrincipalId p : {alice_, bob_, staff_}) {
    for (const SecurityClass& cls : classes) {
      for (NodeId node : {dir_, sub_, obj_}) {
        for (AccessModeSet modes : mode_sets) {
          SCOPED_TRACE(testing::Message() << "p=" << p.value << " node=" << node.value
                                          << " modes=" << modes.ToString());
          ExpectCompiledEquals(Subject{p, cls, 1}, node, modes);
        }
      }
    }
  }
}

TEST_F(CompiledPolicyTest, OwnerAdministrateCarveOutMatches) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  // alice owns obj_, which has no matching administrate grant: the owner
  // carve-out must allow her and deny bob, identically on both paths.
  ExpectCompiledEquals(Subject{alice_, Cls(1, {0}), 1}, obj_,
                       AccessModeSet(AccessMode::kAdministrate));
  ExpectCompiledEquals(Subject{bob_, Cls(1, {0}), 1}, obj_,
                       AccessModeSet(AccessMode::kAdministrate));
}

TEST_F(CompiledPolicyTest, UnknownNodeDecidedNotFound) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  for (NodeId node : {NodeId{9999}, NodeId{}}) {
    Decision compiled;
    ASSERT_TRUE(monitor_->TryCompiledCheck(Subject{bob_, Cls(0), 1}, node,
                                           AccessModeSet(AccessMode::kRead), &compiled));
    EXPECT_FALSE(compiled.allowed);
    EXPECT_EQ(compiled.reason, DenyReason::kNotFound);
    EXPECT_EQ(compiled.detail, "node does not exist");
  }
}

TEST_F(CompiledPolicyTest, MutationStalenessFallsBackThenRecovers) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  Decision decision;
  ASSERT_TRUE(monitor_->TryCompiledCheck(Subject{bob_, Cls(0), 1}, obj_,
                                         AccessModeSet(AccessMode::kRead), &decision));

  // Any policy mutation makes the tables stale at the next probe.
  (void)acls_.AddEntry(0, {AclEntryType::kDeny, bob_, AccessModeSet(AccessMode::kRead)});
  uint64_t stale_before = monitor_->compiled_counters().stale;
  EXPECT_FALSE(monitor_->TryCompiledCheck(Subject{bob_, Cls(0), 1}, obj_,
                                          AccessModeSet(AccessMode::kRead), &decision));
  EXPECT_GT(monitor_->compiled_counters().stale, stale_before);

  // Check() stays correct throughout (interpreted fallback)...
  EXPECT_FALSE(monitor_->Check(Subject{bob_, Cls(0), 1}, obj_,
                               AccessModeSet(AccessMode::kRead)).allowed);
  // ...and a recompile restores coverage with the new policy baked in.
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  ExpectCompiledEquals(Subject{bob_, Cls(0), 1}, obj_, AccessModeSet(AccessMode::kRead));
}

TEST_F(CompiledPolicyTest, NewPrincipalFallsBackUntilRecompile) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  // CreateUser bumps no stamp, so the tables remain "fresh" but must refuse
  // to decide for the new id rather than guess.
  PrincipalId carol = *principals_.CreateUser("carol");
  Decision decision;
  uint64_t fallbacks_before = monitor_->compiled_counters().fallbacks;
  EXPECT_FALSE(monitor_->TryCompiledCheck(Subject{carol, Cls(0), 1}, obj_,
                                          AccessModeSet(AccessMode::kRead), &decision));
  EXPECT_GT(monitor_->compiled_counters().fallbacks, fallbacks_before);
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  ExpectCompiledEquals(Subject{carol, Cls(0), 1}, obj_, AccessModeSet(AccessMode::kRead));
}

TEST_F(CompiledPolicyTest, UninternedSubjectClassConvergesAfterRecompile) {
  Boot(MonitorOptions{});  // fresh monitor, fresh uncovered-class queue
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  // A class no label or clearance mentions: first probe falls back (and
  // queues the class); the next compile interns it.
  CategorySet odd(7);
  odd.Set(1);
  SecurityClass fresh(0, std::move(odd));
  Decision decision;
  EXPECT_FALSE(monitor_->TryCompiledCheck(Subject{bob_, fresh, 1}, obj_,
                                          AccessModeSet(AccessMode::kRead), &decision));
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  ExpectCompiledEquals(Subject{bob_, fresh, 1}, obj_, AccessModeSet(AccessMode::kRead));
}

TEST_F(CompiledPolicyTest, CompiledDisabledNeverCovers) {
  MonitorOptions options;
  options.compiled_enabled = false;
  Boot(options);
  ASSERT_TRUE(monitor_->RecompileNow().ok());  // builds and installs...
  Decision decision;
  // ...but the check path never consults it.
  EXPECT_FALSE(monitor_->TryCompiledCheck(Subject{bob_, Cls(0), 1}, obj_,
                                          AccessModeSet(AccessMode::kRead), &decision));
  EXPECT_FALSE(monitor_->Check(Subject{bob_, Cls(0), 1}, obj_,
                               AccessModeSet(AccessMode::kWrite)).allowed);
}

TEST_F(CompiledPolicyTest, DacCellCapFailsBuildAndStaysInterpreted) {
  MonitorOptions options;
  options.compiled_max_dac_cells = 1;  // any real store exceeds this
  Boot(options);
  Status status = monitor_->RecompileNow();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status.ToString();
  EXPECT_GT(monitor_->compiled_counters().failed_recompiles, 0u);
  EXPECT_EQ(monitor_->compiled_snapshot(), nullptr);
  // Checks are unaffected: interpreted path serves everything.
  EXPECT_FALSE(monitor_->Check(Subject{bob_, Cls(0), 1}, obj_,
                               AccessModeSet(AccessMode::kWrite)).allowed);
}

TEST_F(CompiledPolicyTest, RecompileFailpointDegradesToInterpreted) {
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("monitor.recompile", "error=resource-exhausted").ok());
  Status status = monitor_->RecompileNow();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(monitor_->compiled_snapshot(), nullptr);
  EXPECT_TRUE(monitor_->Check(Subject{bob_, Cls(0), 1}, dir_,
                              AccessModeSet(AccessMode::kRead)).allowed);
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  EXPECT_NE(monitor_->compiled_snapshot(), nullptr);
}

TEST_F(CompiledPolicyTest, CheckUsesCompiledTablesOnMiss) {
  MonitorOptions options;
  options.cache_enabled = false;  // every Check is a miss
  Boot(options);
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  uint64_t hits_before = monitor_->compiled_counters().hits;
  Decision via_check = monitor_->Check(Subject{bob_, Cls(0), 1}, dir_,
                                       AccessModeSet(AccessMode::kRead));
  Decision interpreted = monitor_->CheckInterpreted(Subject{bob_, Cls(0), 1}, dir_,
                                                    AccessModeSet(AccessMode::kRead));
  EXPECT_GT(monitor_->compiled_counters().hits, hits_before);
  EXPECT_EQ(via_check.allowed, interpreted.allowed);
  EXPECT_EQ(via_check.reason, interpreted.reason);
}

TEST_F(CompiledPolicyTest, AsyncRecompileEventuallyInstalls) {
  // A miss with no tables requests an async build; poll for the install.
  (void)monitor_->Check(Subject{bob_, Cls(0), 1}, dir_, AccessModeSet(AccessMode::kRead));
  for (int i = 0; i < 500 && monitor_->compiled_snapshot() == nullptr; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_NE(monitor_->compiled_snapshot(), nullptr);
  ExpectCompiledEquals(Subject{bob_, Cls(0), 1}, dir_, AccessModeSet(AccessMode::kRead));
}

TEST_F(CompiledPolicyTest, AsyncRecompileSkipsCurrentTablesButServesStaleOnes) {
  ASSERT_TRUE(monitor_->RecompileNow().ok());
  const std::shared_ptr<const CompiledPolicy> installed = monitor_->compiled_snapshot();
  // The tables already match every stamp: the background build is skipped,
  // so no second copy of the tables is built and nothing is reinstalled.
  monitor_->RequestRecompile();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(monitor_->compiled_snapshot(), installed);
  EXPECT_EQ(monitor_->compiled_counters().recompiles, 1u);

  // After a mutation the same request rebuilds.
  (void)acls_.AddEntry(0, {AclEntryType::kDeny, bob_, AccessModeSet(AccessMode::kRead)});
  monitor_->RequestRecompile();
  for (int i = 0; i < 500 && monitor_->compiled_snapshot() == installed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_NE(monitor_->compiled_snapshot(), installed);
  ExpectCompiledEquals(Subject{bob_, Cls(0), 1}, obj_, AccessModeSet(AccessMode::kRead));
}

// -- Satellite regression: policy reload must invalidate cached decisions ----

TEST(CompiledPolicyReloadTest, ReloadInvalidatesCachedAllowsAndCompiledTables) {
  Kernel kernel;
  constexpr std::string_view kAllow =
      "xsec-policy v1\n"
      "user alice\n"
      "user bob\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kAllow, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  PrincipalId bob = *kernel.principals().FindByName("bob");
  Subject subject{bob, SecurityClass(), 1};

  ASSERT_TRUE(kernel.monitor().RecompileNow().ok());
  // Prime both the decision cache and the compiled tables with the allow.
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);

  uint64_t epoch_before = kernel.monitor().policy_epoch();
  constexpr std::string_view kRevoke =
      "xsec-policy v1\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc none\n";
  ASSERT_TRUE(LoadPolicy(kRevoke, &kernel).ok());
  EXPECT_GT(kernel.monitor().policy_epoch(), epoch_before);

  // The cached allow must not survive the reload.
  Decision after = kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, DenyReason::kDacNoGrant);
}

TEST(CompiledPolicyReloadTest, ReloadWithNoStoreMutationStillInvalidates) {
  // An officer-only reload bumps no store generation — only the policy epoch
  // protects the cache here. The regression this pins: such a reload must
  // still force re-evaluation (observable as a cache miss, not a hit).
  Kernel kernel;
  constexpr std::string_view kBase =
      "xsec-policy v1\n"
      "user alice\n"
      "user bob\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kBase, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  PrincipalId bob = *kernel.principals().FindByName("bob");
  Subject subject{bob, SecurityClass(), 1};
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);

  constexpr std::string_view kOfficerOnly =
      "xsec-policy v1\n"
      "officer alice\n";
  ASSERT_TRUE(LoadPolicy(kOfficerOnly, &kernel).ok());

  uint64_t misses_before = kernel.monitor().cache().misses();
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);
  EXPECT_GT(kernel.monitor().cache().misses(), misses_before)
      << "reload did not invalidate the cached decision";
}

TEST(CompiledPolicyReloadTest, LoadPolicyFileInvalidatesToo) {
  // Same regression through the durable-file path: an allow cached before
  // LoadPolicyFile must not survive a file whose policy revokes it.
  std::string path = testing::TempDir() + "/xsec_reload_policy.txt";
  {
    Kernel revoked;
    constexpr std::string_view kRevoke =
        "xsec-policy v1\n"
        "user alice\n"
        "user bob\n"
        "node /fs/doc file alice\n"
        "acl /fs/doc deny bob read\n";
    ASSERT_TRUE(LoadPolicy(kRevoke, &revoked).ok());
    ASSERT_TRUE(SavePolicyFile(revoked, path).ok());
  }
  Kernel kernel;
  constexpr std::string_view kAllow =
      "xsec-policy v1\n"
      "user alice\n"
      "user bob\n"
      "node /fs/doc file alice\n"
      "acl /fs/doc allow bob read\n";
  ASSERT_TRUE(LoadPolicy(kAllow, &kernel).ok());
  NodeId doc = *kernel.name_space().Lookup("/fs/doc");
  PrincipalId bob = *kernel.principals().FindByName("bob");
  Subject subject{bob, SecurityClass(), 1};
  ASSERT_TRUE(kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead)).allowed);

  ASSERT_TRUE(LoadPolicyFile(path, &kernel, nullptr).ok());
  Decision after = kernel.monitor().Check(subject, doc, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(after.allowed);
  EXPECT_EQ(after.reason, DenyReason::kDacExplicitDeny);
}

// -- DominanceMatrix properties ----------------------------------------------

SecurityClass RandomClass(Rng& rng, size_t levels, size_t categories) {
  // Random capacity at or above the category count: equal classes with
  // different bitset capacities must intern to one id.
  CategorySet set(categories + rng.NextBelow(3));
  for (size_t c = 0; c < categories; ++c) {
    if (rng.NextBool(1, 2)) {
      set.Set(c);
    }
  }
  return SecurityClass(static_cast<TrustLevel>(rng.NextBelow(levels)), std::move(set));
}

TEST(CompiledPolicyDominance, MatrixBitsMatchSecurityClassDominates) {
  Rng rng(0xd0d0);
  std::vector<SecurityClass> classes;
  for (int i = 0; i < 40; ++i) {
    classes.push_back(RandomClass(rng, 4, 6));
  }
  DominanceMatrix matrix(classes);
  const auto& interned = matrix.classes();
  for (uint32_t i = 0; i < interned.size(); ++i) {
    for (uint32_t j = 0; j < interned.size(); ++j) {
      EXPECT_EQ(matrix.Dominates(i, j), interned[i].Dominates(interned[j]))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(CompiledPolicyDominance, EqualClassesWithDifferentCapacityShareOneId) {
  CategorySet narrow(2);
  narrow.Set(1);
  CategorySet wide(9);
  wide.Set(1);
  SecurityClass a(1, std::move(narrow));
  SecurityClass b(1, std::move(wide));
  ASSERT_EQ(a, b);
  DominanceMatrix matrix({a, b});
  EXPECT_EQ(matrix.size(), 1u);
  EXPECT_EQ(matrix.IdOf(a), matrix.IdOf(b));
  // Empty-category classes at one level likewise collapse.
  DominanceMatrix empties({SecurityClass(0, CategorySet(0)), SecurityClass(0, CategorySet(5))});
  EXPECT_EQ(empties.size(), 1u);
}

TEST(CompiledPolicyDominance, MutualDominanceIsIdEquality) {
  // Antisymmetry on the interned set: the dedup guarantees mutual dominance
  // can only hold on the diagonal (the S = O cells the flow truth table
  // keys administrate and strict-write decisions off).
  Rng rng(0xfade);
  std::vector<SecurityClass> classes;
  for (int i = 0; i < 60; ++i) {
    classes.push_back(RandomClass(rng, 3, 5));
  }
  DominanceMatrix matrix(classes);
  for (uint32_t i = 0; i < matrix.size(); ++i) {
    for (uint32_t j = 0; j < matrix.size(); ++j) {
      if (matrix.Dominates(i, j) && matrix.Dominates(j, i)) {
        EXPECT_EQ(i, j);
        EXPECT_FALSE(matrix.classes()[i].StrictlyDominates(matrix.classes()[j]));
        EXPECT_FALSE(matrix.classes()[i].IncomparableWith(matrix.classes()[j]));
      }
    }
  }
}

TEST(CompiledPolicyDominance, FlowMaskAgreesWithInterpretedModeAllowed) {
  Rng rng(0xf10b);
  for (bool strict : {true, false}) {
    FlowPolicyOptions options;
    options.write_up_requires_append = strict;
    FlowPolicy flow(options);
    for (int trial = 0; trial < 200; ++trial) {
      SecurityClass s = RandomClass(rng, 3, 4);
      SecurityClass o = RandomClass(rng, 3, 4);
      AccessModeSet mask = FlowAllowedMask(s.Dominates(o), o.Dominates(s), options);
      for (size_t bit = 0; bit < kAccessModeCount; ++bit) {
        AccessMode mode = static_cast<AccessMode>(uint32_t{1} << bit);
        EXPECT_EQ(mask.Contains(mode), flow.ModeAllowed(s, o, mode))
            << "strict=" << strict << " mode bit " << bit;
      }
    }
  }
}

TEST(CompiledPolicyDominance, CompileDominanceInternsLabelsClearancesExtremaAndJoins) {
  LabelAuthority labels;
  ASSERT_TRUE(labels.DefineLevels({"l0", "l1", "l2"}).ok());
  (void)labels.DefineCategory("a");
  (void)labels.DefineCategory("b");
  SecurityClass la = *labels.MakeClass("l1", {"a"});
  SecurityClass lb = *labels.MakeClass("l0", {"b"});
  (void)labels.StoreLabel(la);
  (void)labels.StoreLabel(lb);
  labels.SetClearance(7, *labels.MakeClass("l2", {"a"}));

  auto matrix = labels.CompileDominance(64);
  ASSERT_NE(matrix, nullptr);
  EXPECT_GE(matrix->IdOf(labels.Bottom()), 0);
  EXPECT_GE(matrix->IdOf(labels.Top()), 0);
  EXPECT_GE(matrix->IdOf(la), 0);
  EXPECT_GE(matrix->IdOf(lb), 0);
  EXPECT_GE(matrix->IdOf(*labels.MakeClass("l2", {"a"})), 0);
  // Joins of interned classes are interned (floating-subject coverage).
  EXPECT_GE(matrix->IdOf(la.Join(lb)), 0);
  // Over-cap compiles refuse rather than truncate the base set.
  EXPECT_EQ(labels.CompileDominance(1), nullptr);
}

}  // namespace
}  // namespace xsec
