// Fault sweeps for batched checks and the data paths behind mediation: the
// per-REQUEST fail-closed guarantee inside a CheckBatch (MODEL.md §12 +
// §14), and the memfs/netstack/vfs/NDJSON failure sites a mediated call
// traverses.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/failpoint.h"
#include "src/core/secure_system.h"

namespace xsec {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

AuditRecord DenialRecord() {
  AuditRecord r;
  r.principal = PrincipalId{1};
  r.node = NodeId{3};
  r.path = "/fs/secret";
  r.modes = AccessMode::kRead;
  r.allowed = false;
  r.reason = DenyReason::kDacNoGrant;
  return r;
}

// Trips on the very first failed write attempt; half-opens fast so tests
// can heal it with one short sleep.
ResilientSinkOptions HairTriggerSink() {
  ResilientSinkOptions options;
  options.max_attempts = 1;
  options.backoff_initial_ns = 1'000;
  options.backoff_max_ns = 4'000;
  options.trip_after = 1;
  options.reopen_after_ns = 2'000'000;  // 2 ms
  return options;
}

// -- Fail-closed audit inside one CheckBatch -----------------------------------

class RingFaultTest : public ::testing::Test {
 protected:
  RingFaultTest() {
    MonitorOptions options;
    options.audit_required = true;  // policy stays kDenialsOnly (the default)
    sys_ = std::make_unique<SecureSystem>(options);
    alice_ = *sys_->CreateUser("alice");
    bob_ = *sys_->CreateUser("bob");
    alice_s_ = sys_->Login(alice_, sys_->labels().Bottom());
    bob_s_ = sys_->Login(bob_, sys_->labels().Bottom());
    NodeId dir = *sys_->name_space().BindPath("/fs/ring", NodeKind::kDirectory,
                                              sys_->system_principal());
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, alice_, AccessMode::kRead | AccessMode::kWrite});
    (void)sys_->name_space().SetAclRef(dir, sys_->kernel().acls().Create(std::move(acl)));
    f1_ = *sys_->name_space().BindPath("/fs/ring/a", NodeKind::kFile,
                                       sys_->system_principal());
    f2_ = *sys_->name_space().BindPath("/fs/ring/b", NodeKind::kFile,
                                       sys_->system_principal());
    f3_ = *sys_->name_space().BindPath("/fs/ring/c", NodeKind::kFile,
                                       sys_->system_principal());
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  // A resilient sink whose inner write is controlled by the
  // audit.sink.write failpoint (healthy until armed).
  std::shared_ptr<ResilientSink> InstallSink() {
    auto sink = std::make_shared<ResilientSink>(
        [](const AuditRecord&) -> Status { return OkStatus(); }, HairTriggerSink());
    sys_->monitor().audit().InstallResilientSink(sink);
    return sink;
  }

  std::unique_ptr<SecureSystem> sys_;
  PrincipalId alice_, bob_;
  Subject alice_s_, bob_s_;
  NodeId f1_, f2_, f3_;
};

TEST_F(RingFaultTest, MidBatchSinkTripFailsClosedPerRequestNotPerBatch) {
  auto sink = InstallSink();
  AuditLog& audit = sys_->monitor().audit();
  ASSERT_TRUE(audit.required());
  ASSERT_FALSE(audit.SinkTripped());

  // The sink dies before the batch runs — but under the denials-only policy
  // nothing touches it until the first denial is flushed.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("audit.sink.write", "error").ok());

  ReferenceMonitor::BatchCheckRequest requests[4] = {
      {alice_s_, f1_, AccessModeSet(AccessMode::kRead)},  // allow (pre-trip)
      {bob_s_, f1_, AccessModeSet(AccessMode::kRead)},    // the tripping denial
      {alice_s_, f2_, AccessModeSet(AccessMode::kRead)},  // would-be allow
      {alice_s_, f3_, AccessModeSet(AccessMode::kRead)},  // would-be allow
  };
  Decision out[4];
  sys_->monitor().CheckBatch(requests, 4, out);

  // Request 0 decided while the circuit was still closed: it stays an
  // allow. Request 1 is a real denial — never an allow to withhold. The
  // denial's flush (before request 2's availability probe) trips the
  // circuit, so ONLY the subsequent would-be allows fail closed.
  EXPECT_TRUE(out[0].allowed);
  EXPECT_FALSE(out[1].allowed);
  EXPECT_EQ(out[1].reason, DenyReason::kDacNoGrant);
  EXPECT_FALSE(out[2].allowed);
  EXPECT_EQ(out[2].reason, DenyReason::kAuditUnavailable);
  EXPECT_FALSE(out[3].allowed);
  EXPECT_EQ(out[3].reason, DenyReason::kAuditUnavailable);
  EXPECT_TRUE(audit.SinkTripped());

  // Heal the sink, wait out the reopen window, and carry the half-open
  // probe on a retained record.
  FailpointRegistry::Instance().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  (void)sys_->monitor().Check(bob_s_, f1_, AccessMode::kRead);  // probe carrier
  ASSERT_FALSE(audit.SinkTripped());

  // The kAuditUnavailable denials were never cached: the same tuples allow
  // immediately once the circuit recloses.
  EXPECT_TRUE(sys_->monitor().Check(alice_s_, f2_, AccessMode::kRead).allowed);
  EXPECT_TRUE(sys_->monitor().Check(alice_s_, f3_, AccessMode::kRead).allowed);
}

TEST_F(RingFaultTest, AllAllowBatchUnderDenialsOnlyNeverTouchesTheSink) {
  auto sink = InstallSink();
  // Even with the inner sink dead, an all-allow batch under the
  // denials-only policy retains nothing, flushes nothing, and cannot trip
  // the circuit — the amortized path does zero sink work.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("audit.sink.write", "error").ok());
  std::vector<ReferenceMonitor::BatchCheckRequest> requests(
      8, ReferenceMonitor::BatchCheckRequest{alice_s_, f1_, AccessModeSet(AccessMode::kRead)});
  std::vector<Decision> out(requests.size());
  sys_->monitor().CheckBatch(requests.data(), requests.size(), out.data());
  for (const Decision& decision : out) {
    EXPECT_TRUE(decision.allowed);
  }
  EXPECT_FALSE(sys_->monitor().audit().SinkTripped());
  EXPECT_EQ(sink->written() + sink->retries() + sink->gave_up(), 0u);
}

// -- Failpoints in the I/O data paths (memfs, vfs, NDJSON export) -------------

class FailpointDataPathTest : public ::testing::Test {
 protected:
  FailpointDataPathTest() {
    alice_ = *sys_.CreateUser("alice");
    NodeId home = *sys_.name_space().BindPath("/fs/home", NodeKind::kDirectory, alice_);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, alice_, AccessModeSet::All()});
    (void)sys_.name_space().SetAclRef(home, sys_.kernel().acls().Create(std::move(acl)));
    alice_s_ = sys_.Login(alice_, sys_.labels().Bottom());
  }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  SecureSystem sys_;
  PrincipalId alice_;
  Subject alice_s_;
};

TEST_F(FailpointDataPathTest, MemfsInjectionsFailAfterMediationAndLeaveContentsIntact) {
  ASSERT_TRUE(sys_.fs().Create(alice_s_, "/fs/home/notes").ok());
  ASSERT_TRUE(sys_.fs().Write(alice_s_, "/fs/home/notes", Bytes("stable")).ok());

  auto& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.Arm("memfs.read", "error").ok());
  EXPECT_EQ(sys_.fs().Read(alice_s_, "/fs/home/notes").status().code(),
            StatusCode::kInternal);
  ASSERT_TRUE(registry.Arm("memfs.write", "error=resource-exhausted").ok());
  EXPECT_EQ(sys_.fs().Write(alice_s_, "/fs/home/notes", Bytes("clobber")).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(registry.Arm("memfs.append", "error=resource-exhausted").ok());
  EXPECT_EQ(sys_.fs().Append(alice_s_, "/fs/home/notes", Bytes("tail")).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(registry.Arm("memfs.list", "error").ok());
  EXPECT_EQ(sys_.fs().ListDir(alice_s_, "/fs/home").status().code(),
            StatusCode::kInternal);

  // Every injected failure fired after the mediated check and before any
  // mutation: the original contents are untouched.
  registry.DisarmAll();
  auto data = sys_.fs().Read(alice_s_, "/fs/home/notes");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("stable"));
}

TEST_F(FailpointDataPathTest, MemfsNthGatingSkipsLeadingHits) {
  ASSERT_TRUE(sys_.fs().Create(alice_s_, "/fs/home/log").ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memfs.append", "error,nth=2").ok());
  EXPECT_TRUE(sys_.fs().Append(alice_s_, "/fs/home/log", Bytes("a")).ok());
  EXPECT_EQ(sys_.fs().Append(alice_s_, "/fs/home/log", Bytes("b")).code(),
            StatusCode::kInternal);
  auto data = sys_.fs().Read(alice_s_, "/fs/home/log");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("a")) << "the failed append must not leave a torn suffix";
}

TEST_F(FailpointDataPathTest, NetstackSendInjectionFailsAfterMediationAndQueuesNothing) {
  ASSERT_TRUE(sys_.net().CreateDevice(alice_s_, "eth0").ok());
  ASSERT_TRUE(sys_.net().Send(alice_s_, "eth0", Bytes("out")).ok());
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Arm("netstack.send", "error=resource-exhausted")
                  .ok());
  // A full tx ring: mediation allowed the send, the device I/O failed.
  EXPECT_EQ(sys_.net().Send(alice_s_, "eth0", Bytes("lost")).code(),
            StatusCode::kResourceExhausted);
  FailpointRegistry::Instance().DisarmAll();
  auto queued = sys_.net().TxQueued(alice_s_, "eth0");
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(*queued, 1) << "the failed send must queue nothing";
}

TEST_F(FailpointDataPathTest, NetstackRecvInjectionPreemptsFiltersAndProtocols) {
  ASSERT_TRUE(sys_.net().CreateDevice(alice_s_, "eth0").ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("netstack.recv", "error").ok());
  EXPECT_EQ(sys_.net().Inject(alice_s_, "eth0", "upper", Bytes("pkt")).status().code(),
            StatusCode::kInternal);
  FailpointRegistry::Instance().DisarmAll();
  // Without the injection the same call fails later and differently (no such
  // protocol is registered): the failpoint fired after mediation but before
  // any filter or protocol dispatch, and nothing was delivered.
  EXPECT_EQ(sys_.net().Inject(alice_s_, "eth0", "upper", Bytes("pkt")).status().code(),
            StatusCode::kNotFound);
  auto delivered = sys_.net().Delivered(alice_s_, "eth0");
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 0);
}

TEST_F(FailpointDataPathTest, VfsForwardInjectionPreemptsDispatch) {
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("vfs.forward", "error=deadline-exceeded").ok());
  // Without the failpoint this is kNotFound (no such type registered); the
  // injection fires before dispatch ever looks the type up.
  EXPECT_EQ(sys_.vfs().Read(alice_s_, "toyfs", "/a").status().code(),
            StatusCode::kDeadlineExceeded);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(sys_.vfs().Read(alice_s_, "toyfs", "/a").status().code(),
            StatusCode::kNotFound);
}

class NdjsonDiskFullTest : public ::testing::Test {
 protected:
  NdjsonDiskFullTest() {
    path_ = ::testing::TempDir() + "/xsec_diskfull_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".ndjson";
    std::remove(path_.c_str());
  }
  ~NdjsonDiskFullTest() override { std::remove(path_.c_str()); }

  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  // All lines in the file, requiring each to be newline-terminated (the
  // NDJSON whole-line invariant).
  std::vector<std::string> WholeLines() {
    std::ifstream in(path_, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < all.size()) {
      size_t end = all.find('\n', start);
      EXPECT_NE(end, std::string::npos) << "file ends in a partial line";
      if (end == std::string::npos) {
        break;
      }
      lines.push_back(all.substr(start, end - start));
      start = end + 1;
    }
    return lines;
  }

  std::string path_;
};

TEST_F(NdjsonDiskFullTest, FullDiskDropsTheLineAndKeepsTheFileWhole) {
  NdjsonFileRotator rotator(path_, NdjsonRotationPolicy{});
  ASSERT_TRUE(rotator.Open().ok());
  rotator.Write(DenialRecord());
  rotator.Write(DenialRecord());

  // One simulated ENOSPC: the record is dropped, the partial line is
  // truncated back off, and the writer keeps going.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Arm("audit.ndjson.write", "error,times=1").ok());
  rotator.Write(DenialRecord());
  EXPECT_EQ(rotator.write_failures(), 1u);
  rotator.Write(DenialRecord());
  EXPECT_EQ(rotator.write_failures(), 1u);

  std::vector<std::string> lines = WholeLines();
  ASSERT_EQ(lines.size(), 3u);  // 4 writes, 1 dropped
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST_F(NdjsonDiskFullTest, FullDiskTripsTheResilientSinkFailClosed) {
  auto rotator = std::make_shared<NdjsonFileRotator>(path_, NdjsonRotationPolicy{});
  ASSERT_TRUE(rotator->Open().ok());

  AuditLog log;
  log.set_required(true);
  ResilientSinkOptions options;
  options.max_attempts = 1;
  options.backoff_initial_ns = 1'000;
  options.trip_after = 2;
  options.reopen_after_ns = 60'000'000'000;  // stays open for this test
  auto sink = std::make_shared<ResilientSink>(MakeRotatingNdjsonFallibleSink(rotator),
                                              options);
  log.InstallResilientSink(sink);

  log.Record(DenialRecord());
  EXPECT_EQ(sink->written(), 1u);
  ASSERT_FALSE(log.SinkTripped());

  // A persistently full disk: each dropped line is a failed attempt, and
  // the second one opens the circuit — the condition `audit_required`
  // monitors to start failing closed.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("audit.ndjson.write", "error").ok());
  log.Record(DenialRecord());
  log.Record(DenialRecord());
  EXPECT_TRUE(log.SinkTripped());
  EXPECT_EQ(log.sink_state(), "open");
  EXPECT_GE(rotator->write_failures(), 2u);
  // The ring still retains what the disk lost.
  EXPECT_EQ(log.retained(), 3u);
}

}  // namespace
}  // namespace xsec
