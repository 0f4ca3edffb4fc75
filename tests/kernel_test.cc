#include "src/extsys/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace xsec {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(MonitorOptions{.check_traversal = false}) {
    alice_ = *kernel_.principals().CreateUser("alice");
    bob_ = *kernel_.principals().CreateUser("bob");
    (void)kernel_.labels().DefineLevels({"low", "mid", "high"});
    (void)kernel_.labels().DefineCategory("a");
    (void)kernel_.labels().DefineCategory("b");
  }

  SecurityClass Cls(TrustLevel level, std::initializer_list<size_t> cats = {}) {
    CategorySet set(2);
    for (size_t c : cats) {
      set.Set(c);
    }
    return SecurityClass(level, std::move(set));
  }

  void Grant(std::string_view path, PrincipalId who, AccessModeSet modes) {
    NodeId node = *kernel_.name_space().Lookup(path);
    Acl acl;
    if (kernel_.name_space().Get(node)->acl_ref != kNoRef) {
      acl = *kernel_.acls().Get(kernel_.name_space().Get(node)->acl_ref);
    }
    acl.AddEntry({AclEntryType::kAllow, who, modes});
    (void)kernel_.name_space().SetAclRef(node, kernel_.acls().Create(std::move(acl)));
  }

  void Label(std::string_view path, const SecurityClass& cls) {
    NodeId node = *kernel_.name_space().Lookup(path);
    (void)kernel_.name_space().SetLabelRef(node, kernel_.labels().StoreLabel(cls));
  }

  // A procedure returning the sum of two integer arguments.
  void InstallAdder() {
    (void)*kernel_.RegisterService("/svc/math", kernel_.system_principal());
    (void)*kernel_.RegisterProcedure("/svc/math/add", kernel_.system_principal(),
                                     [](CallContext& ctx) -> StatusOr<Value> {
                                       auto a = ArgInt(ctx.args, 0);
                                       auto b = ArgInt(ctx.args, 1);
                                       if (!a.ok()) {
                                         return a.status();
                                       }
                                       if (!b.ok()) {
                                         return b.status();
                                       }
                                       return Value{*a + *b};
                                     });
  }

  Kernel kernel_;
  PrincipalId alice_, bob_;
};

TEST_F(KernelTest, InvokeHappyPath) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  auto result = kernel_.Invoke(subject, "/svc/math/add",
                               {Value{int64_t{2}}, Value{int64_t{3}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(*result), 5);
}

TEST_F(KernelTest, InvokeWithoutExecuteIsDenied) {
  InstallAdder();
  Subject subject = kernel_.CreateSubject(bob_, Cls(0));
  auto result = kernel_.Invoke(subject, "/svc/math/add", {});
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(KernelTest, InvokeMissingProcedure) {
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  EXPECT_EQ(kernel_.Invoke(subject, "/svc/nothing", {}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(KernelTest, InvokePropagatesHandlerErrors) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  auto result = kernel_.Invoke(subject, "/svc/math/add", {Value{std::string("x")}});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(KernelTest, ExpiredDeadlineRejectsTheCallBeforeTheHandler) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  CallOptions options;
  options.deadline_ns = 1;  // the monotonic clock passed 1ns long ago
  auto result = kernel_.Invoke(subject, "/svc/math/add",
                               {Value{int64_t{2}}, Value{int64_t{3}}}, options);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(KernelTest, DeadlineReachesTheHandlerThroughCallContext) {
  (void)*kernel_.RegisterService("/svc/t", kernel_.system_principal());
  (void)*kernel_.RegisterProcedure("/svc/t/deadline", kernel_.system_principal(),
                                   [](CallContext& ctx) -> StatusOr<Value> {
                                     return Value{static_cast<int64_t>(ctx.deadline_ns)};
                                   });
  Grant("/svc/t/deadline", alice_, AccessModeSet(AccessMode::kExecute));
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  // Unbounded by default.
  auto unbounded = kernel_.Invoke(subject, "/svc/t/deadline", {});
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_EQ(std::get<int64_t>(*unbounded), 0);
  // A future deadline is forwarded verbatim for the handler to honor.
  CallOptions options;
  options.deadline_ns = MonotonicNowNs() + uint64_t{60} * 1'000'000'000;
  auto bounded = kernel_.Invoke(subject, "/svc/t/deadline", {}, options);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(static_cast<uint64_t>(std::get<int64_t>(*bounded)), options.deadline_ns);
}

TEST_F(KernelTest, SubjectThreadIdsAreUnique) {
  Subject a = kernel_.CreateSubject(alice_, Cls(0));
  Subject b = kernel_.CreateSubject(alice_, Cls(0));
  EXPECT_NE(a.thread_id, b.thread_id);
}

TEST_F(KernelTest, LoadExtensionLinksImportsAndExports) {
  InstallAdder();
  (void)*kernel_.RegisterInterface("/svc/math/twice", kernel_.system_principal());
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  Grant("/svc/math/twice", alice_, AccessMode::kExtend | AccessMode::kExecute);

  ExtensionManifest manifest;
  manifest.name = "doubler";
  manifest.imports = {"/svc/math/add"};
  manifest.exports.push_back(
      {"/svc/math/twice", [](CallContext& ctx) -> StatusOr<Value> {
         auto v = ArgInt(ctx.args, 0);
         if (!v.ok()) {
           return v.status();
         }
         return Value{*v * 2};
       }});

  Subject loader = kernel_.CreateSubject(alice_, Cls(0));
  auto id = kernel_.LoadExtension(manifest, loader);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(kernel_.loaded_extension_count(), 1u);

  const LinkedExtension* ext = kernel_.GetExtension(*id);
  ASSERT_NE(ext, nullptr);
  EXPECT_EQ(ext->name, "doubler");
  ASSERT_EQ(ext->imports.size(), 1u);
  // The extension node appears in the name space.
  EXPECT_TRUE(kernel_.name_space().Lookup("/ext/doubler").ok());

  // The exported specialization is dispatchable.
  auto result = kernel_.RaiseEvent(loader, "/svc/math/twice", {Value{int64_t{21}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(*result), 42);

  // The import capability works.
  auto sum = kernel_.CallCapability(loader, ext->imports[0],
                                    {Value{int64_t{1}}, Value{int64_t{2}}});
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(std::get<int64_t>(*sum), 3);
}

TEST_F(KernelTest, LinkFailsWithoutExecuteOnImport) {
  InstallAdder();
  ExtensionManifest manifest;
  manifest.name = "thief";
  manifest.imports = {"/svc/math/add"};  // no execute grant for bob
  Subject loader = kernel_.CreateSubject(bob_, Cls(0));
  auto id = kernel_.LoadExtension(manifest, loader);
  EXPECT_EQ(id.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(kernel_.loaded_extension_count(), 0u);
  // The rollback removed the /ext node, so the name is reusable.
  EXPECT_FALSE(kernel_.name_space().Lookup("/ext/thief").ok());
}

TEST_F(KernelTest, LinkFailsWithoutExtendOnExport) {
  (void)*kernel_.RegisterInterface("/svc/hook", kernel_.system_principal());
  ExtensionManifest manifest;
  manifest.name = "hijacker";
  manifest.exports.push_back(
      {"/svc/hook", [](CallContext&) -> StatusOr<Value> { return Value{}; }});
  Subject loader = kernel_.CreateSubject(bob_, Cls(0));
  EXPECT_EQ(kernel_.LoadExtension(manifest, loader).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(KernelTest, ExportTargetMustBeInterface) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessMode::kExecute | AccessMode::kExtend);
  ExtensionManifest manifest;
  manifest.name = "confused";
  manifest.exports.push_back(
      {"/svc/math/add", [](CallContext&) -> StatusOr<Value> { return Value{}; }});
  Subject loader = kernel_.CreateSubject(alice_, Cls(0));
  EXPECT_EQ(kernel_.LoadExtension(manifest, loader).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(KernelTest, StaticClassGovernsLinkChecks) {
  InstallAdder();
  Label("/svc/math/add", Cls(2));  // only high subjects may observe/call
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));

  ExtensionManifest manifest;
  manifest.name = "lowcode";
  manifest.imports = {"/svc/math/add"};
  manifest.static_class = Cls(0);  // statically pinned to the least level

  // Even loaded by a high subject, the static class cannot link read-up.
  Subject loader = kernel_.CreateSubject(alice_, Cls(2));
  EXPECT_EQ(kernel_.LoadExtension(manifest, loader).status().code(),
            StatusCode::kPermissionDenied);

  // Without the pin, the loader's class links fine.
  manifest.static_class.reset();
  manifest.name = "highcode";
  EXPECT_TRUE(kernel_.LoadExtension(manifest, loader).ok());
}

TEST_F(KernelTest, CapabilityCallsRecheck) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  ExtensionManifest manifest;
  manifest.name = "caller";
  manifest.imports = {"/svc/math/add"};
  Subject loader = kernel_.CreateSubject(alice_, Cls(0));
  auto id = kernel_.LoadExtension(manifest, loader);
  ASSERT_TRUE(id.ok());
  const LinkedExtension* ext = kernel_.GetExtension(*id);

  ASSERT_TRUE(kernel_
                  .CallCapability(loader, ext->imports[0],
                                  {Value{int64_t{1}}, Value{int64_t{1}}})
                  .ok());
  // Revoke: replace the procedure's ACL with an empty one.
  NodeId add = *kernel_.name_space().Lookup("/svc/math/add");
  (void)kernel_.acls().Replace(kernel_.name_space().Get(add)->acl_ref, Acl());
  EXPECT_EQ(kernel_
                .CallCapability(loader, ext->imports[0],
                                {Value{int64_t{1}}, Value{int64_t{1}}})
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(KernelTest, ClassSelectedDispatchOnInvoke) {
  (void)*kernel_.RegisterInterface("/svc/render", kernel_.system_principal());
  Grant("/svc/render", alice_, AccessMode::kExecute | AccessMode::kExtend);
  Grant("/svc/render", bob_, AccessModeSet(AccessMode::kExecute));

  // Two specializations at different classes.
  for (auto [level, tag] : {std::pair<TrustLevel, int64_t>{0, 100}, {2, 200}}) {
    ExtensionManifest manifest;
    manifest.name = std::string("render-l") + std::to_string(level);
    manifest.static_class = Cls(level);
    int64_t t = tag;
    manifest.exports.push_back(
        {"/svc/render", [t](CallContext&) -> StatusOr<Value> { return Value{t}; }});
    Subject loader = kernel_.CreateSubject(alice_, Cls(2));
    ASSERT_TRUE(kernel_.LoadExtension(manifest, loader).ok());
  }

  Subject low = kernel_.CreateSubject(bob_, Cls(0));
  Subject high = kernel_.CreateSubject(bob_, Cls(2));
  auto low_result = kernel_.Invoke(low, "/svc/render", {});
  ASSERT_TRUE(low_result.ok());
  EXPECT_EQ(std::get<int64_t>(*low_result), 100);
  auto high_result = kernel_.Invoke(high, "/svc/render", {});
  ASSERT_TRUE(high_result.ok());
  EXPECT_EQ(std::get<int64_t>(*high_result), 200);
}

TEST_F(KernelTest, BroadcastEventRunsAllEligible) {
  (void)*kernel_.RegisterInterface("/svc/notify", kernel_.system_principal());
  Grant("/svc/notify", alice_, AccessMode::kExecute | AccessMode::kExtend);
  int calls = 0;
  for (int i = 0; i < 3; ++i) {
    ExtensionManifest manifest;
    manifest.name = "observer" + std::to_string(i);
    manifest.static_class = Cls(0);
    manifest.exports.push_back({"/svc/notify", [&calls](CallContext&) -> StatusOr<Value> {
                                  ++calls;
                                  return Value{true};
                                }});
    Subject loader = kernel_.CreateSubject(alice_, Cls(0));
    ASSERT_TRUE(kernel_.LoadExtension(manifest, loader).ok());
  }
  Subject subject = kernel_.CreateSubject(alice_, Cls(1));
  ASSERT_TRUE(kernel_.RaiseEvent(subject, "/svc/notify", {}, DispatchMode::kBroadcast).ok());
  EXPECT_EQ(calls, 3);
}

TEST_F(KernelTest, ClassPropagatesThroughNestedCalls) {
  InstallAdder();
  Label("/svc/math/add", Cls(2));  // high-only procedure
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  // A relay procedure that calls add on behalf of its caller.
  (void)*kernel_.RegisterService("/svc/relay", kernel_.system_principal());
  (void)*kernel_.RegisterProcedure(
      "/svc/relay/go", kernel_.system_principal(),
      [](CallContext& ctx) -> StatusOr<Value> {
        return ctx.kernel->Invoke(*ctx.subject, "/svc/math/add",
                                  {Value{int64_t{1}}, Value{int64_t{2}}});
      });
  Grant("/svc/relay/go", alice_, AccessModeSet(AccessMode::kExecute));

  // The relay itself is reachable by everyone, but the caller's class rides
  // along: a low caller is denied at the inner call.
  Subject low = kernel_.CreateSubject(alice_, Cls(0));
  EXPECT_EQ(kernel_.Invoke(low, "/svc/relay/go", {}).status().code(),
            StatusCode::kPermissionDenied);
  Subject high = kernel_.CreateSubject(alice_, Cls(2));
  auto result = kernel_.Invoke(high, "/svc/relay/go", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(*result), 3);
}

TEST_F(KernelTest, UnloadExtensionRemovesHandlersAndNode) {
  (void)*kernel_.RegisterInterface("/svc/hook", kernel_.system_principal());
  Grant("/svc/hook", alice_, AccessMode::kExecute | AccessMode::kExtend);
  ExtensionManifest manifest;
  manifest.name = "temp";
  manifest.exports.push_back(
      {"/svc/hook", [](CallContext&) -> StatusOr<Value> { return Value{true}; }});
  Subject loader = kernel_.CreateSubject(alice_, Cls(0));
  auto id = kernel_.LoadExtension(manifest, loader);
  ASSERT_TRUE(id.ok());

  // A stranger may not unload it.
  Subject stranger = kernel_.CreateSubject(bob_, Cls(0));
  EXPECT_EQ(kernel_.UnloadExtension(stranger, *id).code(), StatusCode::kPermissionDenied);

  ASSERT_TRUE(kernel_.UnloadExtension(loader, *id).ok());
  EXPECT_EQ(kernel_.loaded_extension_count(), 0u);
  EXPECT_EQ(kernel_.GetExtension(*id), nullptr);
  EXPECT_FALSE(kernel_.name_space().Lookup("/ext/temp").ok());
  EXPECT_EQ(kernel_.RaiseEvent(loader, "/svc/hook", {}).status().code(),
            StatusCode::kNotFound);
  // Double unload reports not-found.
  EXPECT_EQ(kernel_.UnloadExtension(loader, *id).code(), StatusCode::kNotFound);
}

TEST_F(KernelTest, DuplicateExtensionNameRejected) {
  ExtensionManifest manifest;
  manifest.name = "dup";
  Subject loader = kernel_.CreateSubject(alice_, Cls(0));
  ASSERT_TRUE(kernel_.LoadExtension(manifest, loader).ok());
  EXPECT_EQ(kernel_.LoadExtension(manifest, loader).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(KernelTest, SetProcedureHandlerRebinds) {
  InstallAdder();
  Grant("/svc/math/add", alice_, AccessModeSet(AccessMode::kExecute));
  NodeId add = *kernel_.name_space().Lookup("/svc/math/add");
  ASSERT_TRUE(kernel_
                  .SetProcedureHandler(
                      add, [](CallContext&) -> StatusOr<Value> { return Value{int64_t{-1}}; })
                  .ok());
  Subject subject = kernel_.CreateSubject(alice_, Cls(0));
  auto result = kernel_.Invoke(subject, "/svc/math/add", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(*result), -1);
  EXPECT_EQ(kernel_.SetProcedureHandler(NodeId{9999}, nullptr).code(),
            StatusCode::kNotFound);
  // A live node of another kind, and an unbound procedure, are refused too.
  NodeId math = *kernel_.name_space().Lookup("/svc/math");
  EXPECT_EQ(kernel_.SetProcedureHandler(math, nullptr).code(), StatusCode::kNotFound);
  ASSERT_TRUE(kernel_.name_space().Unbind(add).ok());
  EXPECT_EQ(kernel_.SetProcedureHandler(add, nullptr).code(), StatusCode::kNotFound);
}

// InvokeNode reads the target's kind on every call. It used to fetch a
// borrowed Node* under the tree lock and dereference it after the lock was
// dropped, racing any Bind that grew the node store; it now reads the
// lock-free kind word. Callers hammer CallCapability while another thread
// binds thousands of unrelated nodes (growing the node store and the
// lock-free table across chunk boundaries) and unbinds some of them again.
// Run under ASan and TSan by ci/run_checks.sh --quick.
TEST(KernelConcurrencyTest, CapabilityCallsRaceBindsOfUnrelatedNodes) {
  constexpr int kProcedures = 4;
  constexpr int kCallers = 3;
  constexpr int kCallsPerCaller = 3000;
  constexpr int kBinds = 6000;

  Kernel kernel(MonitorOptions{.check_traversal = false});
  PrincipalId alice = *kernel.principals().CreateUser("alice");
  NodeId hot = *kernel.RegisterService("/svc/hot", kernel.system_principal());
  std::vector<Capability> caps;
  for (int i = 0; i < kProcedures; ++i) {
    std::string path = "/svc/hot/p" + std::to_string(i);
    NodeId node = *kernel.RegisterProcedure(
        path, kernel.system_principal(),
        [i](CallContext&) -> StatusOr<Value> { return Value{int64_t{i}}; });
    caps.push_back(Capability{node, path});
  }
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, alice, AccessModeSet(AccessMode::kExecute)});
  ASSERT_TRUE(kernel.name_space().SetAclRef(hot, kernel.acls().Create(std::move(acl))).ok());
  NodeId churn = *kernel.RegisterService("/churn", kernel.system_principal());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&kernel, &caps, &failures, alice, t] {
      Subject subject = kernel.CreateSubject(alice, SecurityClass());
      for (int n = 0; n < kCallsPerCaller; ++n) {
        int i = (n + t) % kProcedures;
        auto result = kernel.CallCapability(subject, caps[i], {});
        if (!result.ok() || std::get<int64_t>(*result) != i) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&kernel, churn] {
    for (int n = 0; n < kBinds; ++n) {
      auto node = kernel.name_space().Bind(churn, "n" + std::to_string(n), NodeKind::kFile,
                                           kernel.system_principal());
      if (node.ok() && n % 3 == 0) {
        (void)kernel.name_space().Unbind(*node);
      }
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(kernel.name_space().node_count(), size_t{kBinds});
}

}  // namespace
}  // namespace xsec
