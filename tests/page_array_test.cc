#include "src/base/page_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <utility>

namespace xsec {
namespace {

// Resident set size of this process in bytes, from /proc/self/statm.
size_t ResidentBytes() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
    resident = 0;
  }
  std::fclose(f);
  return static_cast<size_t>(resident) * 4096;
}

TEST(PageArrayTest, EmptyHasNoStorage) {
  PageArray<uint16_t> empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  PageArray<uint16_t> zero_length(0);
  EXPECT_EQ(zero_length.size(), 0u);
  EXPECT_EQ(zero_length.data(), nullptr);
}

TEST(PageArrayTest, StartsZeroedAndHoldsWrites) {
  PageArray<uint16_t> a(10000);
  ASSERT_EQ(a.size(), 10000u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], 0u) << i;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint16_t>(i * 7);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], static_cast<uint16_t>(i * 7)) << i;
  }
}

TEST(PageArrayTest, MoveTransfersOwnership) {
  PageArray<uint16_t> a(100);
  a[99] = 42;
  const uint16_t* storage = a.data();
  PageArray<uint16_t> b(std::move(a));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b[99], 42u);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);

  PageArray<uint16_t> c(5);
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c[99], 42u);
}

// The reason the type exists: a dropped array's pages leave the process at
// once, whichever thread built it, instead of staying in a malloc arena.
TEST(PageArrayTest, DestructionReturnsPagesToTheSystem) {
  constexpr size_t kBytes = size_t{32} << 20;
  std::optional<PageArray<uint8_t>> a(std::in_place, kBytes);
  for (size_t i = 0; i < kBytes; i += 4096) {
    (*a)[i] = 1;  // touch every page
  }
  const size_t with_array = ResidentBytes();
  a.reset();
  const size_t without_array = ResidentBytes();
  ASSERT_GT(with_array, 0u);
  EXPECT_GE(with_array - std::min(with_array, without_array), kBytes * 3 / 4);
}

}  // namespace
}  // namespace xsec
