#include "src/monitor/reference_monitor.h"

#include <gtest/gtest.h>

#include <vector>

namespace xsec {
namespace {

class ReferenceMonitorTest : public ::testing::Test {
 protected:
  ReferenceMonitorTest() { Boot(MonitorOptions{}); }

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

  Subject SubjectFor(PrincipalId p, SecurityClass cls) { return Subject{p, cls, 1}; }
  Subject Bottom(PrincipalId p) { return SubjectFor(p, Cls(0)); }

  void GrantOn(NodeId node, PrincipalId who, AccessModeSet modes) {
    Acl acl;
    if (const Acl* existing = monitor_->EffectiveAcl(node); existing != nullptr &&
        ns_.Get(node)->acl_ref != kNoRef) {
      acl = *existing;
    }
    acl.AddEntry({AclEntryType::kAllow, who, modes});
    (void)ns_.SetAclRef(node, acls_.Create(std::move(acl)));
  }

  NameSpace ns_;
  AclStore acls_;
  PrincipalRegistry principals_;
  LabelAuthority labels_;
  std::unique_ptr<ReferenceMonitor> monitor_;
  bool booted_ = false;
  PrincipalId alice_, bob_, staff_;
  NodeId dir_, sub_, obj_;
};

TEST_F(ReferenceMonitorTest, NoAclAnywhereDeniesEverything) {
  Decision d = monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kDacNoGrant);
}

TEST_F(ReferenceMonitorTest, DirectGrantAllows) {
  GrantOn(obj_, bob_, AccessMode::kRead | AccessMode::kWrite);
  Decision d = monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead);
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kNone);
}

TEST_F(ReferenceMonitorTest, AclInheritsFromNearestAncestor) {
  GrantOn(dir_, bob_, AccessModeSet(AccessMode::kRead));
  // obj has no own ACL; /d's applies.
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  // A closer ACL on /d/sub overrides /d entirely.
  GrantOn(sub_, alice_, AccessModeSet(AccessMode::kRead));
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  EXPECT_TRUE(monitor_->Check(Bottom(alice_), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, GroupGrantReachesMembers) {
  GrantOn(obj_, staff_, AccessModeSet(AccessMode::kRead));
  EXPECT_TRUE(monitor_->Check(Bottom(alice_), obj_, AccessMode::kRead).allowed);
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  // Membership changes take effect immediately.
  ASSERT_TRUE(principals_.AddMember(staff_, bob_).ok());
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  ASSERT_TRUE(principals_.RemoveMember(staff_, bob_).ok());
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, ExplicitDenyWinsAndIsReported) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, staff_, AccessModeSet(AccessMode::kRead)});
  acl.AddEntry({AclEntryType::kDeny, alice_, AccessModeSet(AccessMode::kRead)});
  (void)ns_.SetAclRef(obj_, acls_.Create(std::move(acl)));
  Decision d = monitor_->Check(Bottom(alice_), obj_, AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kDacExplicitDeny);
}

TEST_F(ReferenceMonitorTest, MacDeniesReadUpEvenWithDacGrant) {
  GrantOn(obj_, bob_, AccessModeSet::All());
  (void)ns_.SetLabelRef(obj_, labels_.StoreLabel(Cls(1, {0})));
  Decision d = monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kMacFlow);
  // A subject that dominates the label reads fine.
  EXPECT_TRUE(monitor_->Check(SubjectFor(bob_, Cls(1, {0})), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, MacLabelInheritsFromAncestor) {
  GrantOn(obj_, bob_, AccessModeSet::All());
  (void)ns_.SetLabelRef(dir_, labels_.StoreLabel(Cls(1, {1})));
  // obj and sub have no label; they inherit /d's (1,{b}).
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  EXPECT_TRUE(monitor_->Check(SubjectFor(bob_, Cls(1, {1})), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, MacStarPropertyOnWrites) {
  GrantOn(obj_, bob_, AccessModeSet::All());
  (void)ns_.SetLabelRef(obj_, labels_.StoreLabel(Cls(1, {0})));
  Subject low = Bottom(bob_);
  // Append up: allowed. Overwrite up: denied (strict default). Read up: denied.
  EXPECT_TRUE(monitor_->Check(low, obj_, AccessMode::kWriteAppend).allowed);
  EXPECT_FALSE(monitor_->Check(low, obj_, AccessMode::kWrite).allowed);
  Subject equal = SubjectFor(bob_, Cls(1, {0}));
  EXPECT_TRUE(monitor_->Check(equal, obj_, AccessMode::kWrite).allowed);
  // Write down: denied.
  Subject high = SubjectFor(bob_, Cls(1, {0, 1}));
  EXPECT_FALSE(monitor_->Check(high, obj_, AccessMode::kWrite).allowed);
}

TEST_F(ReferenceMonitorTest, DacDisabledSkipsAclChecks) {
  Boot(MonitorOptions{.dac_enabled = false});
  // No ACL grants anything, but DAC is off and labels are ⊥.
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, MacDisabledSkipsFlowChecks) {
  Boot(MonitorOptions{.mac_enabled = false});
  GrantOn(obj_, bob_, AccessModeSet::All());
  (void)ns_.SetLabelRef(obj_, labels_.StoreLabel(Cls(1, {0})));
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, CheckPathEnforcesTraversal) {
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kRead));
  // bob has read on obj but no list on the ancestors.
  Decision d = monitor_->CheckPath(Bottom(bob_), "/d/sub/obj", AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kTraversal);
  // Granting list along the chain fixes it.
  GrantOn(ns_.root(), bob_, AccessModeSet(AccessMode::kList));
  GrantOn(dir_, bob_, AccessMode::kList | AccessMode::kRead);
  GrantOn(sub_, bob_, AccessMode::kList | AccessMode::kRead);
  NodeId resolved;
  d = monitor_->CheckPath(Bottom(bob_), "/d/sub/obj", AccessMode::kRead, &resolved);
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(resolved, obj_);
}

TEST_F(ReferenceMonitorTest, CheckPathWithoutTraversalChecks) {
  Boot(MonitorOptions{.check_traversal = false});
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kRead));
  EXPECT_TRUE(monitor_->CheckPath(Bottom(bob_), "/d/sub/obj", AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, CheckPathNotFound) {
  Boot(MonitorOptions{.check_traversal = false});
  Decision d = monitor_->CheckPath(Bottom(bob_), "/d/missing", AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kNotFound);
  EXPECT_EQ(d.ToStatus().code(), StatusCode::kNotFound);
  d = monitor_->CheckPath(Bottom(bob_), "not-a-path", AccessMode::kRead);
  EXPECT_EQ(d.reason, DenyReason::kNotFound);
}

TEST_F(ReferenceMonitorTest, DecisionToStatus) {
  Decision allowed{true, DenyReason::kNone, ""};
  EXPECT_TRUE(allowed.ToStatus().ok());
  Decision denied{false, DenyReason::kMacFlow, "nope"};
  EXPECT_EQ(denied.ToStatus().code(), StatusCode::kPermissionDenied);
}

TEST_F(ReferenceMonitorTest, OwnerAlwaysHoldsAdministrate) {
  // alice owns obj and has no ACL grant at all.
  EXPECT_TRUE(monitor_->HasAdministrate(Bottom(alice_), obj_));
  EXPECT_FALSE(monitor_->HasAdministrate(Bottom(bob_), obj_));
}

TEST_F(ReferenceMonitorTest, SetNodeAclRequiresAdministrate) {
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, bob_, AccessModeSet(AccessMode::kRead)});
  EXPECT_EQ(monitor_->SetNodeAcl(Bottom(bob_), obj_, acl).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(monitor_->SetNodeAcl(Bottom(alice_), obj_, acl).ok());
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, NonOwnerWithAclAdministrateCanAdminister) {
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kAdministrate));
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, bob_,
                AccessMode::kRead | AccessMode::kAdministrate});
  EXPECT_TRUE(monitor_->SetNodeAcl(Bottom(bob_), obj_, acl).ok());
}

TEST_F(ReferenceMonitorTest, AddAclEntryCopiesInheritedAclDown) {
  GrantOn(dir_, staff_, AccessModeSet(AccessMode::kRead));
  // obj inherits /d's ACL; adding an entry must preserve the inherited grant.
  ASSERT_TRUE(monitor_->AddAclEntry(Bottom(alice_), obj_,
                                    {AclEntryType::kAllow, bob_,
                                     AccessModeSet(AccessMode::kWrite)})
                  .ok());
  EXPECT_TRUE(monitor_->Check(Bottom(alice_), obj_, AccessMode::kRead).allowed);
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kWrite).allowed);
  // The parent's own ACL is untouched.
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), dir_, AccessMode::kWrite).allowed);
}

TEST_F(ReferenceMonitorTest, SetNodeLabelRules) {
  SecurityClass high = Cls(1, {0});
  // Non-owner: denied outright.
  EXPECT_EQ(monitor_->SetNodeLabel(Bottom(bob_), obj_, high).code(),
            StatusCode::kPermissionDenied);
  // A subject classifies at exactly its own class: a ⊥ owner cannot assign
  // a high label…
  EXPECT_EQ(monitor_->SetNodeLabel(Bottom(alice_), obj_, high).code(),
            StatusCode::kPermissionDenied);
  // …but an owner logged in at `high` upgrades the ⊥ object to high.
  ASSERT_TRUE(monitor_->SetNodeLabel(SubjectFor(alice_, high), obj_, high).ok());
  // Once high, a ⊥ owner no longer even sees the label it would replace.
  EXPECT_EQ(monitor_->SetNodeLabel(Bottom(alice_), obj_, Cls(0)).code(),
            StatusCode::kPermissionDenied);
  // Downgrading below one's own class is declassification: denied even for
  // the owner at `high`.
  EXPECT_EQ(monitor_->SetNodeLabel(SubjectFor(alice_, high), obj_, Cls(0)).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ReferenceMonitorTest, RemoveAclEntriesFor) {
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kRead));
  EXPECT_TRUE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  // A stranger may not edit.
  EXPECT_EQ(monitor_->RemoveAclEntriesFor(Bottom(bob_), obj_, bob_).code(),
            StatusCode::kPermissionDenied);
  // The owner removes bob's entries; access reverts to denied.
  ASSERT_TRUE(monitor_->RemoveAclEntriesFor(Bottom(alice_), obj_, bob_).ok());
  EXPECT_FALSE(monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead).allowed);
  // Removing from a node that only inherits is a harmless no-op.
  ASSERT_TRUE(monitor_->RemoveAclEntriesFor(Bottom(alice_), sub_, bob_).ok());
}

TEST_F(ReferenceMonitorTest, SecurityOfficerBypassesLabelRules) {
  monitor_->set_security_officer(bob_);
  EXPECT_TRUE(monitor_->SetNodeLabel(Bottom(bob_), obj_, Cls(1, {0, 1})).ok());
  const SecurityClass& label = monitor_->EffectiveLabel(obj_);
  EXPECT_EQ(label.level(), 1);
}

TEST_F(ReferenceMonitorTest, SetOwner) {
  EXPECT_EQ(monitor_->SetOwner(Bottom(bob_), obj_, bob_).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(monitor_->SetOwner(Bottom(alice_), obj_, bob_).ok());
  EXPECT_EQ(ns_.Get(obj_)->owner, bob_);
  EXPECT_TRUE(monitor_->HasAdministrate(Bottom(bob_), obj_));
  EXPECT_EQ(monitor_->SetOwner(Bottom(bob_), obj_, PrincipalId{999}).code(),
            StatusCode::kNotFound);
}

TEST_F(ReferenceMonitorTest, EffectiveAclAndLabelResolution) {
  EXPECT_EQ(monitor_->EffectiveAcl(obj_), nullptr);
  GrantOn(dir_, bob_, AccessModeSet(AccessMode::kRead));
  AclStore::AclRef ref = kNoRef;
  const Acl* acl = monitor_->EffectiveAcl(obj_, &ref);
  ASSERT_NE(acl, nullptr);
  EXPECT_EQ(ref, ns_.Get(dir_)->acl_ref);
  // Root label is ⊥ by construction.
  EXPECT_TRUE(monitor_->EffectiveLabel(obj_) == labels_.Bottom());
}

TEST_F(ReferenceMonitorTest, AuditRecordsDenialsWithReason) {
  monitor_->set_audit_policy(AuditPolicy::kDenialsOnly);
  monitor_->audit().Clear();
  (void)monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead);
  ASSERT_EQ(monitor_->audit().records().size(), 1u);
  // records() returns a snapshot by value; copy the record out of it.
  const AuditRecord r = monitor_->audit().records().front();
  EXPECT_FALSE(r.allowed);
  EXPECT_EQ(r.reason, DenyReason::kDacNoGrant);
  EXPECT_EQ(r.path, "/d/sub/obj");
  EXPECT_EQ(r.principal, bob_);
}

TEST_F(ReferenceMonitorTest, AuditPolicyAllRecordsAllows) {
  monitor_->set_audit_policy(AuditPolicy::kAll);
  monitor_->audit().Clear();
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kRead));
  (void)monitor_->Check(Bottom(bob_), obj_, AccessMode::kRead);
  ASSERT_GE(monitor_->audit().records().size(), 1u);
  EXPECT_TRUE(monitor_->audit().records().back().allowed);
}

TEST_F(ReferenceMonitorTest, CacheSpeedsRepeatsAndStaysCorrect) {
  GrantOn(obj_, bob_, AccessModeSet(AccessMode::kRead));
  Subject bob = Bottom(bob_);
  uint64_t h0 = monitor_->cache().hits();
  EXPECT_TRUE(monitor_->Check(bob, obj_, AccessMode::kRead).allowed);
  EXPECT_TRUE(monitor_->Check(bob, obj_, AccessMode::kRead).allowed);
  EXPECT_GT(monitor_->cache().hits(), h0);
  // Policy change invalidates: revoke and observe the new decision.
  (void)acls_.Replace(ns_.Get(obj_)->acl_ref, Acl());
  EXPECT_FALSE(monitor_->Check(bob, obj_, AccessMode::kRead).allowed);
}

TEST_F(ReferenceMonitorTest, CachedAndUncachedAgree) {
  GrantOn(obj_, bob_, AccessMode::kRead | AccessMode::kWrite);
  (void)ns_.SetLabelRef(obj_, labels_.StoreLabel(Cls(1, {0})));
  MonitorOptions uncached;
  uncached.cache_enabled = false;
  ReferenceMonitor plain(&ns_, &acls_, &principals_, &labels_, uncached);
  std::vector<Subject> subjects = {Bottom(bob_), SubjectFor(bob_, Cls(1, {0})),
                                   Bottom(alice_), SubjectFor(alice_, Cls(1, {0, 1}))};
  for (Subject& s : subjects) {
    for (int m = 0; m < kAccessModeCount; ++m) {
      AccessModeSet modes(static_cast<AccessMode>(1u << m));
      // Run the cached monitor twice so the second answer comes from cache.
      Decision first = monitor_->Check(s, obj_, modes);
      Decision second = monitor_->Check(s, obj_, modes);
      Decision reference = plain.Check(s, obj_, modes);
      EXPECT_EQ(first.allowed, reference.allowed);
      EXPECT_EQ(second.allowed, reference.allowed);
      EXPECT_EQ(second.reason, reference.reason);
    }
  }
}

TEST_F(ReferenceMonitorTest, BatchSemanticsMatchPerCallAcrossOutcomes) {
  // Drive CheckBatch directly with a mix of allow / DAC-deny / MAC-deny /
  // not-found and hold it against Check on a twin monitor.
  GrantOn(dir_, alice_, AccessMode::kRead | AccessMode::kWrite | AccessMode::kExecute);
  ReferenceMonitor twin(&ns_, &acls_, &principals_, &labels_);
  Subject alice_low = Bottom(alice_);
  Subject bob_low = Bottom(bob_);
  Subject alice_high = SubjectFor(alice_, Cls(1));
  std::vector<ReferenceMonitor::BatchCheckRequest> requests = {
      {alice_low, obj_, AccessModeSet(AccessMode::kRead)},
      {bob_low, obj_, AccessModeSet(AccessMode::kRead)},
      {alice_high, obj_, AccessModeSet(AccessMode::kWrite)},  // write-down: MAC denies
      {alice_low, NodeId{999999}, AccessModeSet(AccessMode::kRead)},
      {alice_low, obj_, AccessModeSet(AccessMode::kRead)},  // cached by now
  };
  std::vector<Decision> batched(requests.size());
  monitor_->CheckBatch(requests.data(), requests.size(), batched.data());
  for (size_t i = 0; i < requests.size(); ++i) {
    Decision per_call = twin.Check(requests[i].subject, requests[i].node, requests[i].modes);
    EXPECT_EQ(batched[i].allowed, per_call.allowed) << "request " << i;
    EXPECT_EQ(batched[i].reason, per_call.reason) << "request " << i;
  }
  // The batch recorded exactly one decision per request in stats and audit.
  EXPECT_EQ(monitor_->stats().checks_total(), requests.size());
  EXPECT_EQ(monitor_->audit().total_checks(), requests.size());
  EXPECT_EQ(monitor_->audit().total_denials(), 3u);
}

TEST_F(ReferenceMonitorTest, ExplainNamesTheDecidingFactors) {
  GrantOn(dir_, staff_, AccessModeSet(AccessMode::kRead));
  (void)ns_.SetLabelRef(obj_, labels_.StoreLabel(Cls(1, {0})));

  // DAC grants alice (via staff) but MAC blocks the ⊥ subject.
  std::string text = monitor_->Explain(Bottom(alice_), obj_, AccessMode::kRead);
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("/d/sub/obj"), std::string::npos);
  EXPECT_NE(text.find("inherited"), std::string::npos);  // ACL came from /d
  EXPECT_NE(text.find("matches this subject"), std::string::npos);
  EXPECT_NE(text.find("-> granted"), std::string::npos);
  EXPECT_NE(text.find("violates flow"), std::string::npos);

  // Bob has no grant anywhere: effective modes empty.
  std::string bob_text = monitor_->Explain(Bottom(bob_), obj_, AccessMode::kRead);
  EXPECT_NE(bob_text.find("NOT granted"), std::string::npos);

  // An allowed case reports satisfied flow.
  std::string ok_text =
      monitor_->Explain(SubjectFor(alice_, Cls(1, {0})), obj_, AccessMode::kRead);
  EXPECT_NE(ok_text.find("flow rules satisfied"), std::string::npos);

  // Dead node.
  EXPECT_NE(monitor_->Explain(Bottom(alice_), NodeId{9999}, AccessMode::kRead)
                .find("does not exist"),
            std::string::npos);
}

TEST_F(ReferenceMonitorTest, DeadNodeIsNotFound) {
  NodeId ghost = *ns_.BindPath("/d/ghost", NodeKind::kFile, alice_);
  ASSERT_TRUE(ns_.Unbind(ghost).ok());
  Decision d = monitor_->Check(Bottom(alice_), ghost, AccessMode::kRead);
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.reason, DenyReason::kNotFound);
}

}  // namespace
}  // namespace xsec
