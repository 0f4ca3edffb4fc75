// Extension supervision (docs/MODEL.md §16): budgets, circuit breakers,
// audited quarantine, the mediated /svc/health control plane, the monitor
// health state machine, and nested-invoke deadline inheritance.

#include "src/extsys/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/base/failpoint.h"
#include "src/core/secure_system.h"

namespace xsec {
namespace {

// A budget that trips on the first breaker failure and half-opens fast, so
// tests heal circuits with one short sleep.
ExtensionBudget HairTrigger(uint64_t probe_after_ns = 2'000'000) {
  ExtensionBudget budget;
  budget.trip_after = 1;
  budget.probe_after_ns = probe_after_ns;
  return budget;
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() { Boot(SupervisorOptions{}); }

  void Boot(SupervisorOptions options) {
    sys_ = std::make_unique<SecureSystem>();
    auto supervisor = sys_->EnableSupervision(options);
    ASSERT_TRUE(supervisor.ok()) << supervisor.status().ToString();
    supervisor_ = *supervisor;
    dev_ = *sys_->CreateUser("dev");
    dev_s_ = sys_->Login(dev_, sys_->labels().Bottom());
    hook_ = *sys_->kernel().RegisterInterface("/svc/hook/point", sys_->system_principal());
    // The /svc default makes the interface callable; extending it is the
    // grant under test.
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, dev_,
                  AccessMode::kExtend | AccessMode::kExecute | AccessMode::kList});
    ASSERT_TRUE(
        sys_->name_space().SetAclRef(hook_, sys_->kernel().acls().Create(std::move(acl))).ok());
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  // A human operator: an ordinary user granted administrate on the health
  // mount, so the mediated /svc/health control plane is exercised end to end
  // through path traversal, execute, and the administrate check — no
  // system-subject shortcut.
  Subject Operator() {
    auto op = sys_->CreateUser("op");
    EXPECT_TRUE(op.ok());
    NodeId mount = *sys_->name_space().Lookup("/sys/monitor/health");
    EXPECT_TRUE(sys_->monitor()
                    .AddAclEntry(sys_->SystemSubject(), mount,
                                 {AclEntryType::kAllow, *op,
                                  AccessMode::kAdministrate | AccessMode::kRead |
                                      AccessMode::kList})
                    .ok());
    return sys_->Login(*op, sys_->labels().Bottom());
  }

  // Loads an extension exporting one handler on the hook interface.
  ExtensionId Load(const std::string& name, HandlerFn handler) {
    ExtensionManifest manifest;
    manifest.name = name;
    manifest.exports.push_back({"/svc/hook/point", std::move(handler)});
    auto id = sys_->LoadExtension(manifest, dev_s_);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : ExtensionId{};
  }

  StatusOr<Value> CallHook(const CallOptions& options = {}) {
    return sys_->Invoke(dev_s_, "/svc/hook/point", {}, options);
  }

  std::unique_ptr<SecureSystem> sys_;
  ExtensionSupervisor* supervisor_ = nullptr;
  PrincipalId dev_;
  Subject dev_s_;
  NodeId hook_;
};

TEST_F(SupervisorTest, LoadedExtensionsAutoRegister) {
  Load("auto-reg", [](CallContext&) -> StatusOr<Value> { return Value{true}; });
  EXPECT_TRUE(supervisor_->IsRegistered("auto-reg"));
  auto snap = supervisor_->Snapshot("auto-reg");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kHealthy);
  EXPECT_EQ(snap->invokes, 0u);
}

TEST_F(SupervisorTest, BudgetCapsTheHandlerDeadline) {
  Load("echo-deadline", [](CallContext& ctx) -> StatusOr<Value> {
    return Value{static_cast<int64_t>(ctx.deadline_ns)};
  });
  ExtensionBudget budget;
  budget.invoke_budget_ns = 50'000'000;  // 50 ms
  supervisor_->SetBudget("echo-deadline", budget);

  // An unbounded caller still gets a bounded handler.
  uint64_t before = MonotonicNowNs();
  auto unbounded = CallHook();
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  uint64_t seen = static_cast<uint64_t>(std::get<int64_t>(*unbounded));
  EXPECT_GT(seen, before);
  EXPECT_LE(seen, before + 1'000'000'000u);

  // A caller deadline tighter than the budget wins.
  CallOptions options;
  options.deadline_ns = MonotonicNowNs() + 10'000'000;  // 10 ms
  auto bounded = CallHook(options);
  ASSERT_TRUE(bounded.ok());
  EXPECT_LE(static_cast<uint64_t>(std::get<int64_t>(*bounded)), options.deadline_ns);
}

TEST_F(SupervisorTest, SleepOverrunningTheBudgetIsATimeoutAndTrips) {
  std::atomic<int> runs{0};
  Load("wedger", [&runs](CallContext&) -> StatusOr<Value> {
    ++runs;
    return Value{true};
  });
  ExtensionBudget budget = HairTrigger(/*probe_after_ns=*/1'000'000'000);
  budget.invoke_budget_ns = 5'000'000;  // 5 ms
  supervisor_->SetBudget("wedger", budget);
  // The stall is injected inside the supervised window, so the overrun is
  // recorded as the timeout it simulates — without the handler running.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("ext.invoke.wedger", "sleep=20ms").ok());

  auto result = CallHook();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(runs.load(), 0);

  auto snap = supervisor_->Snapshot("wedger");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kQuarantined);
  EXPECT_EQ(snap->timeouts, 1u);
  EXPECT_EQ(snap->trips, 1u);
}

TEST_F(SupervisorTest, MaxInflightFailsFastWithResourceExhausted) {
  NodeId node = *sys_->name_space().BindPath("/svc/hook/manual", NodeKind::kObject,
                                             sys_->system_principal());
  ExtensionBudget budget;
  budget.max_inflight = 1;
  supervisor_->Register("bounded", node, budget);

  auto first = supervisor_->Admit("bounded", 0);
  ASSERT_TRUE(first.ok());
  auto second = supervisor_->Admit("bounded", 0);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  first->Complete(OkStatus());
  auto third = supervisor_->Admit("bounded", 0);
  EXPECT_TRUE(third.ok());
  third->Complete(OkStatus());
}

TEST_F(SupervisorTest, CancelledCallsDoNotFeedTheBreaker) {
  NodeId node = *sys_->name_space().BindPath("/svc/hook/manual2", NodeKind::kObject,
                                             sys_->system_principal());
  supervisor_->Register("cancelly", node, HairTrigger());
  auto permit = supervisor_->Admit("cancelly", 0);
  ASSERT_TRUE(permit.ok());
  permit->Complete(CancelledError("caller gave up"));
  auto snap = supervisor_->Snapshot("cancelly");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kHealthy);
  EXPECT_EQ(snap->failures, 1u);
  EXPECT_EQ(snap->trips, 0u);
}

// -- Quarantine lifecycle -----------------------------------------------------

class QuarantineTest : public SupervisorTest {};

TEST_F(QuarantineTest, BreakerTripsAfterConsecutiveFailuresAndFailsFast) {
  std::atomic<int> runs{0};
  Load("flaky", [&runs](CallContext&) -> StatusOr<Value> {
    ++runs;
    return InternalError("extension crashed");
  });
  ExtensionBudget budget;
  budget.trip_after = 3;
  budget.probe_after_ns = 1'000'000'000;  // no probe during this test
  supervisor_->SetBudget("flaky", budget);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CallHook().status().code(), StatusCode::kInternal);
  }
  EXPECT_EQ(runs.load(), 3);

  // Tripped: the next call fails fast without running the handler. With no
  // healthy peer on the interface, selection itself answers kUnavailable.
  auto rejected = CallHook();
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(runs.load(), 3);

  auto snap = supervisor_->Snapshot("flaky");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kQuarantined);
  EXPECT_EQ(snap->trips, 1u);
  EXPECT_EQ(snap->failures, 3u);

  // The trip is in the audit trail as a kQuarantined denial on the health
  // leaf (default policy retains denials).
  auto trips = sys_->monitor().audit().Query([](const AuditRecord& r) {
    return !r.allowed && r.reason == DenyReason::kQuarantined &&
           r.path == "/sys/monitor/health/ext/flaky/state";
  });
  EXPECT_EQ(trips.size(), 1u);
}

TEST_F(QuarantineTest, HalfOpenProbeRecoversTheCircuit) {
  std::atomic<bool> failing{true};
  Load("healer", [&failing](CallContext&) -> StatusOr<Value> {
    if (failing.load()) {
      return InternalError("still sick");
    }
    return Value{true};
  });
  supervisor_->SetBudget("healer", HairTrigger(/*probe_after_ns=*/2'000'000));

  EXPECT_EQ(CallHook().status().code(), StatusCode::kInternal);
  EXPECT_EQ(CallHook().status().code(), StatusCode::kUnavailable);  // quarantined

  failing.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Dwell elapsed: this call is admitted as THE half-open probe and its
  // success releases the quarantine.
  auto probe = CallHook();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();

  auto snap = supervisor_->Snapshot("healer");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kHealthy);
  EXPECT_EQ(snap->releases, 1u);
  EXPECT_TRUE(CallHook().ok());
}

TEST_F(QuarantineTest, FailedProbeRequarantinesWithoutANewTrip) {
  Load("chronic", [](CallContext&) -> StatusOr<Value> {
    return InternalError("chronically sick");
  });
  supervisor_->SetBudget("chronic", HairTrigger(/*probe_after_ns=*/2'000'000));

  EXPECT_EQ(CallHook().status().code(), StatusCode::kInternal);  // trip
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(CallHook().status().code(), StatusCode::kInternal);  // failed probe

  auto snap = supervisor_->Snapshot("chronic");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, ExtHealth::kQuarantined);
  // Same quarantine episode: one trip, not two.
  EXPECT_EQ(snap->trips, 1u);
  EXPECT_EQ(snap->releases, 0u);
}

TEST_F(QuarantineTest, MediatedReleaseRestoresServiceAndIsAccessChecked) {
  Load("victim", [](CallContext&) -> StatusOr<Value> { return Value{true}; });
  ASSERT_TRUE(supervisor_->Quarantine("victim", "operator test").ok());
  EXPECT_EQ(CallHook().status().code(), StatusCode::kUnavailable);

  // An unprivileged caller cannot release: the administrate check on the
  // health leaf denies (and is itself a counted, audited decision).
  auto denied = sys_->Invoke(dev_s_, "/svc/health/release",
                             {Value{std::string("victim")}, Value{std::string("nice try")}});
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(supervisor_->Snapshot("victim")->state, ExtHealth::kQuarantined);

  // An authorized operator passes the same mediated path and service resumes.
  Subject root = Operator();
  auto released = sys_->Invoke(root, "/svc/health/release",
                               {Value{std::string("victim")}, Value{std::string("verified fix")}});
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(std::get<std::string>(*released), "healthy");
  EXPECT_TRUE(CallHook().ok());
  EXPECT_EQ(supervisor_->Snapshot("victim")->releases, 1u);
}

TEST_F(QuarantineTest, HealthTelemetryIsMountedAndMediated) {
  Load("seen", [](CallContext&) -> StatusOr<Value> { return Value{true}; });
  ASSERT_TRUE(supervisor_->Quarantine("seen", "test").ok());

  Subject root = Operator();
  auto state = sys_->stats().ReadStat(root, "/sys/monitor/health/ext/seen/state");
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, "quarantined");
  auto trips = sys_->stats().ReadStat(root, "/sys/monitor/health/ext/seen/trips");
  ASSERT_TRUE(trips.ok());
  EXPECT_EQ(*trips, "1");
  auto quarantined = sys_->stats().ReadStat(root, "/sys/monitor/health/quarantined");
  ASSERT_TRUE(quarantined.ok());
  EXPECT_EQ(*quarantined, "1");

  // The same leaves are fail-closed for an unprivileged reader.
  auto hidden = sys_->stats().ReadStat(dev_s_, "/sys/monitor/health/ext/seen/state");
  EXPECT_EQ(hidden.status().code(), StatusCode::kPermissionDenied);

  // The /svc/health summary and listing agree.
  auto summary = sys_->Invoke(root, "/svc/health/state", {});
  ASSERT_TRUE(summary.ok());
  EXPECT_NE(std::get<std::string>(*summary).find("quarantined 1"), std::string::npos);
  auto listing = sys_->Invoke(root, "/svc/health/list", {});
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(std::get<std::string>(*listing).find("seen quarantined"), std::string::npos);
}

TEST_F(QuarantineTest, DispatchSkipsQuarantinedHandlers) {
  std::atomic<int> a_runs{0}, b_runs{0};
  Load("ext-a", [&a_runs](CallContext&) -> StatusOr<Value> {
    ++a_runs;
    return Value{std::string("a")};
  });
  Load("ext-b", [&b_runs](CallContext&) -> StatusOr<Value> {
    ++b_runs;
    return Value{std::string("b")};
  });

  // Same class: registration order breaks the tie, so ext-a is selected.
  auto first = CallHook();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(std::get<std::string>(*first), "a");

  // Quarantining the selected handler makes selection fall through to the
  // next-best healthy peer instead of failing the caller.
  ASSERT_TRUE(supervisor_->Quarantine("ext-a", "test").ok());
  auto rerouted = CallHook();
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_EQ(std::get<std::string>(*rerouted), "b");
  EXPECT_EQ(a_runs.load(), 1);

  // Both quarantined: the caller is cleared but supervision refuses work —
  // kUnavailable, distinct from a permission denial.
  ASSERT_TRUE(supervisor_->Quarantine("ext-b", "test").ok());
  EXPECT_EQ(CallHook().status().code(), StatusCode::kUnavailable);
}

// -- Lockdown and the health state machine ------------------------------------

TEST_F(SupervisorTest, LockdownDeniesExtendWhileReadsAndCallsStayLive) {
  Load("pre-lockdown", [](CallContext&) -> StatusOr<Value> { return Value{true}; });

  Subject root = Operator();
  auto armed = sys_->Invoke(root, "/svc/health/lockdown",
                            {Value{std::string("on")}, Value{std::string("incident")}});
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_EQ(std::get<std::string>(*armed), "lockdown");
  EXPECT_TRUE(sys_->monitor().lockdown());

  // Extend-mode checks — new extension links — are refused as kUnavailable
  // (kQuarantined denials, never cached)...
  ExtensionManifest manifest;
  manifest.name = "too-late";
  manifest.exports.push_back(
      {"/svc/hook/point", [](CallContext&) -> StatusOr<Value> { return Value{true}; }});
  auto denied = sys_->LoadExtension(manifest, dev_s_);
  EXPECT_FALSE(denied.ok());

  // ...while non-extend modes keep serving: existing invocations succeed and
  // ordinary checks still answer from the live policy.
  EXPECT_TRUE(CallHook().ok());
  Decision listing = sys_->monitor().Check(dev_s_, hook_, AccessMode::kList);
  EXPECT_TRUE(listing.allowed);

  auto disarmed = sys_->Invoke(root, "/svc/health/lockdown",
                               {Value{std::string("off")}, Value{std::string("resolved")}});
  ASSERT_TRUE(disarmed.ok());
  EXPECT_FALSE(sys_->monitor().lockdown());
  EXPECT_TRUE(sys_->LoadExtension(manifest, dev_s_).ok());
}

TEST_F(SupervisorTest, QuarantineCascadeEntersLockdownAndReleaseRecovers) {
  SupervisorOptions options;
  options.degraded_after = 1;
  options.lockdown_after = 2;
  Boot(options);
  Load("c-one", [](CallContext&) -> StatusOr<Value> { return Value{true}; });
  Load("c-two", [](CallContext&) -> StatusOr<Value> { return Value{true}; });

  ASSERT_TRUE(supervisor_->Quarantine("c-one", "test").ok());
  EXPECT_EQ(supervisor_->system_health(), SystemHealth::kDegraded);
  EXPECT_FALSE(sys_->monitor().lockdown());

  ASSERT_TRUE(supervisor_->Quarantine("c-two", "test").ok());
  EXPECT_EQ(supervisor_->system_health(), SystemHealth::kLockdown);
  EXPECT_TRUE(sys_->monitor().lockdown());

  // The cascade and the recovery are both audited system transitions.
  auto transitions = sys_->monitor().audit().Query([](const AuditRecord& r) {
    return r.path == "/sys/monitor/health/state";
  });
  EXPECT_FALSE(transitions.empty());

  ASSERT_TRUE(supervisor_->Release("c-two", "fixed").ok());
  EXPECT_EQ(supervisor_->system_health(), SystemHealth::kDegraded);
  ASSERT_TRUE(supervisor_->Release("c-one", "fixed").ok());
  EXPECT_EQ(supervisor_->system_health(), SystemHealth::kHealthy);
  EXPECT_FALSE(sys_->monitor().lockdown());
}

// -- Nested-invoke deadline inheritance (the §16 regression) ------------------

TEST_F(SupervisorTest, NestedInvokeInheritsTheParentDeadline) {
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/inner", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        return Value{static_cast<int64_t>(ctx.deadline_ns)};
      });
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/outer", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        // No explicit options: the child must inherit the caller's bound.
        return ctx.kernel->Invoke(*ctx.subject, "/svc/nest/inner", {});
      });

  CallOptions options;
  options.deadline_ns = MonotonicNowNs() + 50'000'000;  // 50 ms
  auto inner_deadline = sys_->Invoke(dev_s_, "/svc/nest/outer", {}, options);
  ASSERT_TRUE(inner_deadline.ok()) << inner_deadline.status().ToString();
  EXPECT_EQ(static_cast<uint64_t>(std::get<int64_t>(*inner_deadline)), options.deadline_ns);

  // A child may tighten its own bound; inheritance never widens it.
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/tight", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        CallOptions tighter;
        tighter.deadline_ns = MonotonicNowNs() + 1'000'000;  // 1 ms
        return ctx.kernel->Invoke(*ctx.subject, "/svc/nest/inner", {}, tighter);
      });
  auto tightened = sys_->Invoke(dev_s_, "/svc/nest/tight", {}, options);
  ASSERT_TRUE(tightened.ok());
  EXPECT_LT(static_cast<uint64_t>(std::get<int64_t>(*tightened)), options.deadline_ns);
}

TEST_F(SupervisorTest, TwoDeepChainExpiresOnceAsDeadlineExceeded) {
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/spin", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        // A cooperative spinner: without inheritance its context is
        // unbounded and this would hang the chain forever (the pre-§16 bug).
        for (;;) {
          Status bound = ctx.CheckDeadline();
          if (!bound.ok()) {
            return bound;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/relay", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        return ctx.kernel->Invoke(*ctx.subject, "/svc/nest/spin", {});
      });

  CallOptions options;
  options.deadline_ns = MonotonicNowNs() + 20'000'000;  // 20 ms
  auto start = std::chrono::steady_clock::now();
  auto result = sys_->Invoke(dev_s_, "/svc/nest/relay", {}, options);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 5000);
}

TEST_F(SupervisorTest, NestedInvokeInheritsTheParentCancelFlag) {
  // The inner handler reports whether a cancel flag reached it at all; the
  // caller's flag stays unset so nothing short-circuits at the boundary.
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/inner-cancel", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        Status withdrawn = ctx.CheckDeadline();
        if (!withdrawn.ok()) {
          return withdrawn;
        }
        return Value{ctx.cancel != nullptr};
      });
  (void)*sys_->kernel().RegisterProcedure(
      "/svc/nest/outer-cancel", sys_->system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        return ctx.kernel->Invoke(*ctx.subject, "/svc/nest/inner-cancel", {});
      });
  std::atomic<bool> cancel{false};
  CallOptions options;
  options.cancel = &cancel;
  auto inherited = sys_->Invoke(dev_s_, "/svc/nest/outer-cancel", {}, options);
  ASSERT_TRUE(inherited.ok()) << inherited.status().ToString();
  EXPECT_TRUE(std::get<bool>(*inherited));

  // Without a caller flag the child sees none either.
  auto bare = sys_->Invoke(dev_s_, "/svc/nest/outer-cancel", {});
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(std::get<bool>(*bare));

  // And a set flag is honored: the chain answers kCancelled, not a hang.
  cancel.store(true);
  auto cancelled = sys_->Invoke(dev_s_, "/svc/nest/outer-cancel", {}, options);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace xsec
