// Differential fuzzing of the compiled decision tables against the
// interpreted reference-monitor path (the oracle).
//
// Each round builds or mutates a random world (principals, groups, a random
// tree, random ACLs, labels, clearances), usually recompiles, then fires
// hundreds of random checks. For every check:
//
//   - TryCompiledCheck, when it covers the input, must return bit-for-bit
//     the interpreted Decision — allowed, deny reason, AND detail string;
//   - the full Check() pipeline (cache + compiled + interpreted) must agree
//     with the oracle on allowed and reason regardless of which layer
//     decided.
//
// The fault-sweep variant arms random failpoints (policy I/O, the recompile
// path, stats fan-out) while reloading policy files mid-fuzz: injected
// failures may cost coverage, never divergence.
//
// Seeding follows the repo convention: XSEC_FAULT_SEED in the environment
// overrides the default, and the seed is printed via SCOPED_TRACE on every
// failure so any CI hit replays locally:
//
//   XSEC_FAULT_SEED=<seed> ./xsec_diff_fuzz_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/rng.h"
#include "src/extsys/kernel.h"
#include "src/monitor/reference_monitor.h"
#include "src/policy/policy_io.h"

namespace xsec {
namespace {

uint64_t SeedFromEnv(uint64_t fallback) {
  if (const char* env = std::getenv("XSEC_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

// A randomly generated policy world plus the bookkeeping the fuzzer needs to
// keep aiming mutations and checks at things that exist.
class RandomWorld {
 public:
  RandomWorld(Rng& rng, MonitorOptions options)
      : rng_(rng), level_count_(1 + rng.NextBelow(3)), category_count_(rng.NextBelow(6)) {
    monitor_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);

    std::vector<std::string> levels;
    for (size_t i = 0; i < level_count_; ++i) {
      levels.push_back("level" + std::to_string(i));
    }
    if (level_count_ > 1) {
      (void)labels_.DefineLevels(levels);
    }
    for (size_t i = 0; i < category_count_; ++i) {
      (void)labels_.DefineCategory("cat" + std::to_string(i));
    }

    const size_t users = 3 + rng.NextBelow(4);
    for (size_t i = 0; i < users; ++i) {
      principals_pool_.push_back(*principals_.CreateUser("user" + std::to_string(i)));
    }
    const size_t groups = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < groups; ++i) {
      PrincipalId group = *principals_.CreateGroup("group" + std::to_string(i));
      principals_pool_.push_back(group);
      for (PrincipalId user : principals_pool_) {
        if (rng.NextBool(1, 3)) {
          (void)principals_.AddMember(group, user);
        }
      }
    }

    nodes_.push_back(ns_.root());
    containers_.push_back(ns_.root());
    const size_t node_count = 20 + rng.NextBelow(31);
    for (size_t i = 0; i < node_count; ++i) {
      NodeId parent = containers_[rng.NextBelow(containers_.size())];
      NodeKind kind = static_cast<NodeKind>(rng.NextBelow(6));
      auto id = ns_.Bind(parent, "n" + std::to_string(i), kind, RandomPrincipal());
      if (!id.ok()) {
        continue;
      }
      nodes_.push_back(*id);
      if (KindAllowsChildren(kind)) {
        containers_.push_back(*id);
      }
      if (rng.NextBool(2, 5)) {
        (void)ns_.SetLabelRef(*id, labels_.StoreLabel(RandomClass()));
      }
      if (rng.NextBool(1, 2)) {
        (void)ns_.SetAclRef(*id, acls_.Create(RandomAcl()));
      }
    }
    for (PrincipalId p : principals_pool_) {
      if (rng.NextBool(1, 4)) {
        labels_.SetClearance(p.value, RandomClass());
      }
    }
  }

  SecurityClass RandomClass() {
    // Capacity jitters above the defined category count so equal classes
    // with different bitset widths flow through the interning path.
    CategorySet set(category_count_ + rng_.NextBelow(3));
    for (size_t c = 0; c < category_count_; ++c) {
      if (rng_.NextBool(1, 2)) {
        set.Set(c);
      }
    }
    return SecurityClass(static_cast<TrustLevel>(rng_.NextBelow(level_count_)), std::move(set));
  }

  Acl RandomAcl() {
    Acl acl;
    if (rng_.NextBool(1, 10)) {
      return acl;  // explicit empty ACL ("acl <path> none")
    }
    const size_t entries = 1 + rng_.NextBelow(4);
    for (size_t i = 0; i < entries; ++i) {
      acl.AddEntry({rng_.NextBool(1, 4) ? AclEntryType::kDeny : AclEntryType::kAllow,
                    RandomPrincipal(),
                    AccessModeSet(static_cast<uint32_t>(1 + rng_.NextBelow(255)))});
    }
    return acl;
  }

  PrincipalId RandomPrincipal() {
    return principals_pool_[rng_.NextBelow(principals_pool_.size())];
  }

  NodeId RandomNode() {
    // Mostly live nodes; occasionally an id that was never bound.
    if (rng_.NextBool(1, 20)) {
      return NodeId{static_cast<uint32_t>(rng_.NextBelow(10000))};
    }
    return nodes_[rng_.NextBelow(nodes_.size())];
  }

  Subject RandomSubject() {
    SecurityClass cls;
    if (!interned_pool_.empty() && rng_.NextBool(7, 10)) {
      cls = interned_pool_[rng_.NextBelow(interned_pool_.size())];
    } else {
      cls = RandomClass();
      interned_pool_.push_back(cls);
      if (interned_pool_.size() > 24) {
        interned_pool_.erase(interned_pool_.begin());
      }
    }
    return Subject{RandomPrincipal(), std::move(cls), 1};
  }

  AccessModeSet RandomModes() {
    if (rng_.NextBool(1, 30)) {
      return AccessModeSet();
    }
    AccessModeSet modes;
    const size_t bits = 1 + rng_.NextBelow(3);
    for (size_t i = 0; i < bits; ++i) {
      modes |= AccessModeSet(static_cast<uint32_t>(1u << rng_.NextBelow(kAccessModeCount)));
    }
    return modes;
  }

  // One random policy mutation; every branch leaves the world consistent.
  void Mutate() {
    switch (rng_.NextBelow(8)) {
      case 0: {  // swap a random node's ACL
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetAclRef(node, acls_.Create(RandomAcl()));
        break;
      }
      case 1: {  // edit an existing stored ACL in place
        if (acls_.size() > 0) {
          (void)acls_.AddEntry(static_cast<AclStore::AclRef>(rng_.NextBelow(acls_.size())),
                               {rng_.NextBool(1, 3) ? AclEntryType::kDeny : AclEntryType::kAllow,
                                RandomPrincipal(),
                                AccessModeSet(static_cast<uint32_t>(1 + rng_.NextBelow(255)))});
        }
        break;
      }
      case 2: {  // relabel a node
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetLabelRef(node, labels_.StoreLabel(RandomClass()));
        break;
      }
      case 3: {  // membership change
        PrincipalId a = RandomPrincipal();
        PrincipalId b = RandomPrincipal();
        if (rng_.NextBool(1, 2)) {
          (void)principals_.AddMember(a, b);
        } else {
          (void)principals_.RemoveMember(a, b);
        }
        break;
      }
      case 4: {  // grow the tree
        NodeId parent = containers_[rng_.NextBelow(containers_.size())];
        auto id = ns_.Bind(parent, "m" + std::to_string(mutation_serial_++),
                           NodeKind::kFile, RandomPrincipal());
        if (id.ok()) {
          nodes_.push_back(*id);
        }
        break;
      }
      case 5: {  // new principal: the one mutation that bumps NO stamp
        auto id = principals_.CreateUser("late" + std::to_string(mutation_serial_++));
        if (id.ok()) {
          principals_pool_.push_back(*id);
        }
        break;
      }
      case 6: {  // clearance change
        labels_.SetClearance(RandomPrincipal().value, RandomClass());
        break;
      }
      case 7: {  // ownership change
        NodeId node = nodes_[rng_.NextBelow(nodes_.size())];
        (void)ns_.SetOwner(node, RandomPrincipal());
        break;
      }
    }
  }

  ReferenceMonitor& monitor() { return *monitor_; }
  Rng& rng() { return rng_; }

  // A second monitor over the SAME stores, for configuration-equivalence
  // sweeps (e.g. sharded vs. aggregate stamp domains): both monitors see
  // every mutation; only their caching/validity machinery differs.
  ReferenceMonitor& ShadowMonitor(MonitorOptions options) {
    shadow_ = std::make_unique<ReferenceMonitor>(&ns_, &acls_, &principals_, &labels_, options);
    return *shadow_;
  }

 private:
  Rng& rng_;
  size_t level_count_;
  size_t category_count_;
  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  std::unique_ptr<ReferenceMonitor> shadow_;
  std::vector<PrincipalId> principals_pool_;
  std::vector<NodeId> nodes_;
  std::vector<NodeId> containers_;
  std::vector<SecurityClass> interned_pool_;
  size_t mutation_serial_ = 0;
};

MonitorOptions RandomOptions(Rng& rng) {
  MonitorOptions options;
  options.dac_enabled = rng.NextBool(4, 5);
  options.mac_enabled = rng.NextBool(4, 5);
  options.cache_enabled = rng.NextBool(1, 2);
  options.stats_enabled = rng.NextBool(1, 2);
  options.flow.write_up_requires_append = rng.NextBool(1, 2);
  // Sweep both validity-domain configurations (per-shard stamps vs. the
  // legacy aggregate domain) so every fuzz run cross-checks the sharding.
  options.shard_stamps = rng.NextBool(1, 2);
  return options;
}

struct FuzzTally {
  uint64_t checks = 0;
  uint64_t covered = 0;
};

// Runs `checks` random checks on the world, asserting compiled/interpreted
// agreement on every one the tables cover, and full-pipeline agreement on
// allowed+reason always.
void FuzzChecks(RandomWorld& world, size_t checks, FuzzTally* tally) {
  for (size_t i = 0; i < checks; ++i) {
    Subject subject = world.RandomSubject();
    NodeId node = world.RandomNode();
    AccessModeSet modes = world.RandomModes();
    Decision oracle = world.monitor().CheckInterpreted(subject, node, modes);

    Decision compiled;
    if (world.monitor().TryCompiledCheck(subject, node, modes, &compiled)) {
      ++tally->covered;
      ASSERT_EQ(compiled.allowed, oracle.allowed)
          << "compiled/interpreted ALLOW divergence: node=" << node.value
          << " principal=" << subject.principal.value << " modes=" << modes.ToString();
      ASSERT_EQ(compiled.reason, oracle.reason)
          << "compiled/interpreted REASON divergence: node=" << node.value
          << " modes=" << modes.ToString() << " detail=" << compiled.detail << " vs "
          << oracle.detail;
      ASSERT_EQ(compiled.detail, oracle.detail) << "compiled/interpreted DETAIL divergence";
    }

    // The full pipeline — whatever layer decides — agrees with the oracle.
    Decision full = world.monitor().Check(subject, node, modes);
    ASSERT_EQ(full.allowed, oracle.allowed)
        << "pipeline/interpreted divergence: node=" << node.value
        << " principal=" << subject.principal.value << " modes=" << modes.ToString();
    ASSERT_EQ(full.reason, oracle.reason);
    ++tally->checks;
  }
}

TEST(DiffFuzz, CompiledNeverDivergesFromInterpreted) {
  const uint64_t seed = SeedFromEnv(0xd1ffu);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  FuzzTally tally;
  uint64_t compiled_hits = 0;

  const size_t rounds = 16;
  const size_t worlds = 4;
  for (size_t w = 0; w < worlds; ++w) {
    RandomWorld world(rng, RandomOptions(rng));
    for (size_t round = 0; round < rounds; ++round) {
      const size_t mutations = rng.NextBelow(4);
      for (size_t m = 0; m < mutations; ++m) {
        world.Mutate();
      }
      if (rng.NextBool(4, 5)) {
        // Builds can legitimately fail (caps); staying interpreted is fine.
        (void)world.monitor().RecompileNow();
      }
      ASSERT_NO_FATAL_FAILURE(FuzzChecks(world, 256, &tally));
    }
    compiled_hits += world.monitor().compiled_counters().hits;
  }

  // ISSUE acceptance: >= 10k randomized checks per sweep, with real compiled
  // coverage (the comparison must not be vacuous).
  EXPECT_GE(tally.checks, 10000u);
  EXPECT_GT(tally.covered, tally.checks / 10)
      << "compiled tables covered too few checks to be a meaningful oracle";
  EXPECT_GT(compiled_hits, 0u);
}

// Equivalence oracle for the sharded validity domains (docs/MODEL.md §15):
// two monitors over the SAME stores — one with per-shard stamps, one on the
// legacy aggregate domain — must render identical decisions through their
// full pipelines (cache + compiled + interpreted) after every mutation.
// Sharding changes only *when* cached state is invalidated; any
// allowed/reason divergence means a shard kept a decision it should have
// dropped (or dropped one it could have kept AND re-derived it wrong).
void CheckShardedAgainstAggregate(uint64_t seed) {
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  FuzzTally tally;

  const size_t worlds = 3;
  const size_t rounds = 12;
  for (size_t w = 0; w < worlds; ++w) {
    MonitorOptions sharded = RandomOptions(rng);
    sharded.shard_stamps = true;
    sharded.cache_enabled = true;  // the cache is where stale state would hide
    RandomWorld world(rng, sharded);

    MonitorOptions aggregate = sharded;
    aggregate.shard_stamps = false;
    ReferenceMonitor& shadow = world.ShadowMonitor(aggregate);

    auto check_both = [&](const Subject& subject, NodeId node, AccessModeSet modes) {
      Decision oracle = world.monitor().CheckInterpreted(subject, node, modes);
      Decision with_shards = world.monitor().Check(subject, node, modes);
      Decision without = shadow.Check(subject, node, modes);
      ASSERT_EQ(with_shards.allowed, without.allowed)
          << "sharded/aggregate divergence: node=" << node.value
          << " principal=" << subject.principal.value << " modes=" << modes.ToString();
      ASSERT_EQ(with_shards.reason, without.reason)
          << "sharded/aggregate reason divergence: node=" << node.value
          << " modes=" << modes.ToString();
      ASSERT_EQ(with_shards.allowed, oracle.allowed) << "sharded monitor diverged from oracle";
      ASSERT_EQ(with_shards.reason, oracle.reason);
      ++tally.checks;
    };

    for (size_t round = 0; round < rounds; ++round) {
      const size_t mutations = rng.NextBelow(4);
      for (size_t m = 0; m < mutations; ++m) {
        world.Mutate();
      }
      if (rng.NextBool(1, 2)) {
        (void)world.monitor().RecompileNow();
      }
      if (rng.NextBool(1, 2)) {
        (void)shadow.RecompileNow();
      }
      Subject subject;
      NodeId node;
      AccessModeSet modes;
      for (size_t i = 0; i < 256; ++i) {
        subject = world.RandomSubject();
        node = world.RandomNode();
        modes = world.RandomModes();
        ASSERT_NO_FATAL_FAILURE(check_both(subject, node, modes));
      }
      // Random tuples alone need not recur before the next mutation: in a
      // world with many principals, classes and nodes a round can hold 256
      // distinct tuples. So re-probe the round's last tuple with no mutation
      // in between; the sharded monitor must answer it from its cache, or a
      // stamp moved without a policy change.
      const uint64_t hits_before = world.monitor().cache().hits();
      ASSERT_NO_FATAL_FAILURE(check_both(subject, node, modes));
      EXPECT_EQ(world.monitor().cache().hits(), hits_before + 1)
          << "an unchanged policy missed the cache: node=" << node.value
          << " modes=" << modes.ToString();
    }
    // The sharded monitor must actually have reused cached decisions —
    // otherwise the equivalence says nothing about shard-stamp validity.
    EXPECT_GT(world.monitor().cache().hits(), 0u);
  }
  EXPECT_GE(tally.checks, 9000u);
}

TEST(DiffFuzz, ShardedAndUnshardedMonitorsAgree) {
  CheckShardedAgainstAggregate(SeedFromEnv(0x5a4dedu));
}

// Fixed regression seed: the random probes of one of its worlds never hit
// the cache, so that world's hits come only from the re-probes above.
TEST(DiffFuzz, ShardedAndUnshardedMonitorsAgreeAtSeed780) {
  CheckShardedAgainstAggregate(780);
}

TEST(DiffFuzz, MutationWithoutRecompileIsNeverServedStale) {
  const uint64_t seed = SeedFromEnv(0x57a1eu);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);
  MonitorOptions options = RandomOptions(rng);
  options.cache_enabled = false;
  RandomWorld world(rng, options);
  ASSERT_TRUE(world.monitor().RecompileNow().ok());

  // Right after a mutation the tables must either refuse to answer (stale
  // stamps) or — if the background recompiler happened to catch up between
  // the mutation and the probe — answer exactly what the oracle answers.
  // What they must never do is serve the pre-mutation decision function.
  for (int i = 0; i < 200; ++i) {
    world.Mutate();
    Subject subject = world.RandomSubject();
    NodeId node = world.RandomNode();
    AccessModeSet modes = world.RandomModes();
    Decision compiled;
    if (world.monitor().TryCompiledCheck(subject, node, modes, &compiled)) {
      Decision oracle = world.monitor().CheckInterpreted(subject, node, modes);
      ASSERT_EQ(compiled.allowed, oracle.allowed) << "stale compiled decision served";
      ASSERT_EQ(compiled.reason, oracle.reason) << "stale compiled decision served";
      ASSERT_EQ(compiled.detail, oracle.detail) << "stale compiled decision served";
    }
  }
  // The sweep must actually have exercised the staleness diversion.
  EXPECT_GT(world.monitor().compiled_counters().stale, 0u);
}

// Fault sweep: injected policy-I/O, recompile, and stats failures must never
// produce compiled/interpreted divergence — only reduced coverage.
class DiffFuzzFaults : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(DiffFuzzFaults, InjectedFaultsNeverCauseDivergence) {
  const uint64_t seed = SeedFromEnv(0xfa017u);
  SCOPED_TRACE("XSEC_FAULT_SEED=" + std::to_string(seed));
  Rng rng(seed);

  const char* sites[] = {"monitor.recompile", "policy.io.open",  "policy.io.read",
                         "policy.io.write",   "policy.io.commit", "stats.fanout.push",
                         "stats.poll.wakeup"};
  const char* specs[] = {"error", "error=resource-exhausted,nth=2", "error=internal,times=3",
                         "sleep=1us", "off"};

  const std::string path = testing::TempDir() + "/xsec_diff_fuzz_policy.txt";
  FuzzTally tally;
  const size_t rounds = 24;
  for (size_t round = 0; round < rounds; ++round) {
    // Fresh kernel-backed world each few rounds, so policy file round-trips
    // exercise the reload/invalidation path under faults.
    Kernel kernel;
    constexpr std::string_view kBase =
        "xsec-policy v1\n"
        "user alice\n"
        "user bob\n"
        "group staff\n"
        "member staff alice\n"
        "node /fs/a file alice\n"
        "node /fs/b file bob\n"
        "acl /fs/a allow staff read|write\n"
        "acl /fs/b deny bob read\n";
    ASSERT_TRUE(LoadPolicy(kBase, &kernel).ok());
    PrincipalId alice = *kernel.principals().FindByName("alice");
    PrincipalId bob = *kernel.principals().FindByName("bob");
    NodeId a = *kernel.name_space().Lookup("/fs/a");
    NodeId b = *kernel.name_space().Lookup("/fs/b");

    // Arm a random subset of sites with random specs.
    for (const char* site : sites) {
      if (rng.NextBool(1, 2)) {
        (void)FailpointRegistry::Instance().Arm(site, specs[rng.NextBelow(5)]);
      }
    }

    // Policy file round trip under injected I/O faults; failures are fine,
    // the kernel keeps its in-memory policy either way.
    (void)SavePolicyFile(kernel, path);
    (void)LoadPolicyFile(path, &kernel, nullptr);
    (void)kernel.monitor().RecompileNow();

    for (size_t i = 0; i < 160; ++i) {
      Subject subject{rng.NextBool(1, 2) ? alice : bob, SecurityClass(), 1};
      NodeId node = rng.NextBool(1, 2) ? a : b;
      AccessModeSet modes(static_cast<uint32_t>(1 + rng.NextBelow(255)));
      Decision oracle = kernel.monitor().CheckInterpreted(subject, node, modes);
      Decision compiled;
      if (kernel.monitor().TryCompiledCheck(subject, node, modes, &compiled)) {
        ++tally.covered;
        ASSERT_EQ(compiled.allowed, oracle.allowed) << "divergence under faults";
        ASSERT_EQ(compiled.reason, oracle.reason) << "divergence under faults";
        ASSERT_EQ(compiled.detail, oracle.detail) << "divergence under faults";
      }
      Decision full = kernel.monitor().Check(subject, node, modes);
      ASSERT_EQ(full.allowed, oracle.allowed) << "pipeline divergence under faults";
      ++tally.checks;
    }
    FailpointRegistry::Instance().DisarmAll();
  }
  EXPECT_GE(tally.checks, 3000u);
  // Faults may suppress recompiles but the sweep as a whole must still
  // exercise the compiled path (DisarmAll between rounds guarantees some
  // clean builds).
  EXPECT_GT(tally.covered, 0u);
}

}  // namespace
}  // namespace xsec
