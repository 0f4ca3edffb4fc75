#include "src/services/memfs.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/secure_system.h"

namespace xsec {
namespace {

std::vector<uint8_t> Bytes(std::string_view text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

class MemFsTest : public ::testing::Test {
 protected:
  MemFsTest() {
    alice_ = *sys_.CreateUser("alice");
    bob_ = *sys_.CreateUser("bob");
    // A home directory alice fully controls.
    NodeId home = *sys_.name_space().BindPath("/fs/home", NodeKind::kDirectory, alice_);
    Acl acl;
    acl.AddEntry({AclEntryType::kAllow, alice_, AccessModeSet::All()});
    (void)sys_.name_space().SetAclRef(home, sys_.kernel().acls().Create(std::move(acl)));
    alice_subject_ = sys_.Login(alice_, sys_.labels().Bottom());
    bob_subject_ = sys_.Login(bob_, sys_.labels().Bottom());
  }

  SecureSystem sys_;
  PrincipalId alice_, bob_;
  Subject alice_subject_, bob_subject_;
};

TEST_F(MemFsTest, CreateWriteReadRoundTrip) {
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/notes").ok());
  ASSERT_TRUE(sys_.fs().Write(alice_subject_, "/fs/home/notes", Bytes("hello")).ok());
  auto data = sys_.fs().Read(alice_subject_, "/fs/home/notes");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("hello"));
  auto size = sys_.fs().Stat(alice_subject_, "/fs/home/notes");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 5);
}

TEST_F(MemFsTest, CreateRequiresWriteOnParent) {
  EXPECT_EQ(sys_.fs().Create(bob_subject_, "/fs/home/intruder").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(sys_.fs().Create(alice_subject_, "/fs/stranger/notes").status().code(),
            StatusCode::kNotFound);
}

TEST_F(MemFsTest, ReadRequiresReadAccess) {
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/secret").ok());
  EXPECT_EQ(sys_.fs().Read(bob_subject_, "/fs/home/secret").status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(MemFsTest, AppendConcatenates) {
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/log").ok());
  ASSERT_TRUE(sys_.fs().Append(alice_subject_, "/fs/home/log", Bytes("a")).ok());
  ASSERT_TRUE(sys_.fs().Append(alice_subject_, "/fs/home/log", Bytes("b")).ok());
  EXPECT_EQ(*sys_.fs().Read(alice_subject_, "/fs/home/log"), Bytes("ab"));
}

TEST_F(MemFsTest, AppendOnlyGrantAllowsAppendButNotOverwrite) {
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/dropbox").ok());
  NodeId node = *sys_.name_space().Lookup("/fs/home/dropbox");
  Acl acl;
  acl.AddEntry({AclEntryType::kAllow, alice_, AccessModeSet::All()});
  acl.AddEntry({AclEntryType::kAllow, bob_, AccessModeSet(AccessMode::kWriteAppend)});
  (void)sys_.name_space().SetAclRef(node, sys_.kernel().acls().Create(std::move(acl)));
  // bob needs list on /fs/home to resolve the path at all; grant it.
  NodeId home = *sys_.name_space().Lookup("/fs/home");
  (void)sys_.monitor().AddAclEntry(alice_subject_, home,
                                   {AclEntryType::kAllow, bob_,
                                    AccessModeSet(AccessMode::kList)});

  EXPECT_TRUE(sys_.fs().Append(bob_subject_, "/fs/home/dropbox", Bytes("x")).ok());
  EXPECT_EQ(sys_.fs().Write(bob_subject_, "/fs/home/dropbox", Bytes("y")).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(sys_.fs().Read(bob_subject_, "/fs/home/dropbox").status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(MemFsTest, RemoveRequiresDeleteAndParentWrite) {
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/junk").ok());
  EXPECT_EQ(sys_.fs().Remove(bob_subject_, "/fs/home/junk").code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(sys_.fs().Remove(alice_subject_, "/fs/home/junk").ok());
  EXPECT_EQ(sys_.fs().Read(alice_subject_, "/fs/home/junk").status().code(),
            StatusCode::kNotFound);
}

TEST_F(MemFsTest, MkDirAndList) {
  ASSERT_TRUE(sys_.fs().MkDir(alice_subject_, "/fs/home/sub").ok());
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/sub/f1").ok());
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/sub/f2").ok());
  auto names = sys_.fs().ListDir(alice_subject_, "/fs/home/sub");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"f1", "f2"}));
}

// ListDir copies the child names under one tree-lock hold, so a child
// unbound mid-listing is either listed or not, never a dangling id. Only the
// mutating thread touches file contents (that map is single-threaded).
TEST_F(MemFsTest, ListDirRacesCreateAndRemove) {
  constexpr int kRounds = 2000;
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/keep").ok());
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    Subject alice = alice_subject_;
    for (int i = 0; i < kRounds; ++i) {
      Status created = sys_.fs().Create(alice, "/fs/home/churn").status();
      Status removed = sys_.fs().Remove(alice, "/fs/home/churn");
      if (!created.ok() || !removed.ok()) {
        ADD_FAILURE() << created << " / " << removed;
        break;
      }
    }
    done.store(true);
  });
  Subject alice = alice_subject_;
  int listings = 0;
  while (!done.load() || listings == 0) {
    auto names = sys_.fs().ListDir(alice, "/fs/home");
    if (!names.ok()) {
      ADD_FAILURE() << names.status();
      break;
    }
    EXPECT_TRUE(names->size() == 1 || names->size() == 2) << names->size();
    EXPECT_NE(std::find(names->begin(), names->end(), "keep"), names->end());
    ++listings;
  }
  mutator.join();
}

TEST_F(MemFsTest, OperationsOutsideMountRejected) {
  EXPECT_EQ(sys_.fs().Read(alice_subject_, "/obj/syslog").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sys_.fs().Create(alice_subject_, "/etc/passwd").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MemFsTest, KindMismatchIsReported) {
  ASSERT_TRUE(sys_.fs().MkDir(alice_subject_, "/fs/home/dir").ok());
  EXPECT_EQ(sys_.fs().Read(alice_subject_, "/fs/home/dir").status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sys_.fs().Create(alice_subject_, "/fs/home/file").ok());
  EXPECT_EQ(sys_.fs().ListDir(alice_subject_, "/fs/home/file").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MemFsTest, MacLabelOnDirectoryConfinesFiles) {
  (void)sys_.labels().DefineLevels({"low", "high"});
  NodeId home = *sys_.name_space().Lookup("/fs/home");
  SecurityClass high = *sys_.labels().MakeClass("high", {});
  (void)sys_.name_space().SetLabelRef(home, sys_.labels().StoreLabel(high));
  Subject alice_low = sys_.Login(alice_, sys_.labels().Bottom());
  Subject alice_high = sys_.Login(alice_, high);
  // Low subject cannot even create (write on parent is a flow violation).
  EXPECT_EQ(sys_.fs().Create(alice_low, "/fs/home/low-file").status().code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(sys_.fs().Create(alice_high, "/fs/home/high-file").ok());
  ASSERT_TRUE(sys_.fs().Write(alice_high, "/fs/home/high-file", Bytes("top")).ok());
  // The file inherits the directory's label: low reads are denied.
  EXPECT_EQ(sys_.fs().Read(alice_low, "/fs/home/high-file").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(*sys_.fs().Read(alice_high, "/fs/home/high-file"), Bytes("top"));
}

TEST_F(MemFsTest, ProceduresExposeSameSemantics) {
  // Drive the same behaviour through /svc/fs/* procedure calls.
  auto created = sys_.Invoke(alice_subject_, "/svc/fs/create",
                             {Value{std::string("/fs/home/via-proc")}});
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(sys_.Invoke(alice_subject_, "/svc/fs/write",
                          {Value{std::string("/fs/home/via-proc")}, Value{Bytes("data")}})
                  .ok());
  auto read = sys_.Invoke(alice_subject_, "/svc/fs/read",
                          {Value{std::string("/fs/home/via-proc")}});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::get<std::vector<uint8_t>>(*read), Bytes("data"));
  auto size = sys_.Invoke(alice_subject_, "/svc/fs/stat",
                          {Value{std::string("/fs/home/via-proc")}});
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(std::get<int64_t>(*size), 4);
  // And denial propagates as a status.
  EXPECT_EQ(sys_.Invoke(bob_subject_, "/svc/fs/read",
                        {Value{std::string("/fs/home/via-proc")}})
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(MemFsTest, CreateFileAsSystemBypassesChecksForSetup) {
  auto node = sys_.fs().CreateFileAsSystem("/fs/seed/data", Bytes("seed"));
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(sys_.fs().file_count(), 1u);
  EXPECT_FALSE(sys_.fs().CreateFileAsSystem("/outside/x", {}).ok());
}

}  // namespace
}  // namespace xsec
