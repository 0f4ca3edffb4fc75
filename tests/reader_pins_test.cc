// ReaderPins: the grace-period wait returns only after every reader pinned
// before it has unpinned, on a private stripe and on the shared overflow
// slot, and it stays bounded while new readers keep pinning.

#include "src/base/reader_pins.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/thread_stripe.h"

namespace xsec {
namespace {

using std::chrono::milliseconds;

// Holds enough threads alive that every private stripe is taken, so threads
// started while it lives land on kOverflowStripe. The calling thread keeps
// whatever stripe it already has.
class StripeHogs {
 public:
  StripeHogs() : ready_(kThreadStripes) {
    for (size_t i = 0; i < kThreadStripes; ++i) {
      threads_.emplace_back([this] {
        (void)ThreadStripe();
        ready_.count_down();
        release_.wait();
      });
    }
    ready_.wait();
  }
  ~StripeHogs() {
    release_.count_down();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

 private:
  std::latch ready_;
  std::latch release_{1};
  std::vector<std::thread> threads_;
};

// Runs one reader thread that pins, reports its stripe, and unpins when
// told to.
class PinnedReader {
 public:
  explicit PinnedReader(ReaderPins& pins) {
    thread_ = std::thread([this, &pins] {
      ReaderPins::Pin pin(pins);
      stripe_ = ThreadStripe();
      pinned_.count_down();
      unpin_.wait();
    });
    pinned_.wait();
  }
  ~PinnedReader() {
    Unpin();
    thread_.join();
  }
  void Unpin() {
    if (!unpinned_) {
      unpinned_ = true;
      unpin_.count_down();
    }
  }
  size_t stripe() const { return stripe_; }

 private:
  std::latch pinned_{1};
  std::latch unpin_{1};
  bool unpinned_ = false;
  size_t stripe_ = 0;
  std::thread thread_;
};

// Starts WaitForReaders on its own thread and reports whether it returned.
class Waiter {
 public:
  explicit Waiter(ReaderPins& pins) : thread_([this, &pins] {
    pins.WaitForReaders();
    done_.store(true);
  }) {}
  ~Waiter() { thread_.join(); }
  bool done() const { return done_.load(); }
  // Waits up to `limit` for the grace period to end.
  bool DoneWithin(milliseconds limit) const {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return done();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

void ExpectWaitBlocksUntilUnpin(ReaderPins& pins, PinnedReader& reader) {
  Waiter waiter(pins);
  // A correct wait can never return here; the sleep only gives a wrong one
  // the chance to.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(waiter.done()) << "grace period ended with a reader pinned";
  reader.Unpin();
  EXPECT_TRUE(waiter.DoneWithin(milliseconds(10000)));
}

TEST(ReaderPinsTest, WaitWithNoReadersReturns) {
  ReaderPins pins;
  pins.WaitForReaders();
  {
    ReaderPins::Pin pin(pins);
  }
  pins.WaitForReaders();
}

TEST(ReaderPinsTest, WaitBlocksWhileAPrivateStripeReaderIsPinned) {
  ReaderPins pins;
  PinnedReader reader(pins);
  ASSERT_NE(reader.stripe(), kOverflowStripe);
  ExpectWaitBlocksUntilUnpin(pins, reader);
}

TEST(ReaderPinsTest, WaitBlocksWhileAnOverflowReaderIsPinned) {
  ReaderPins pins;
  StripeHogs hogs;
  PinnedReader reader(pins);
  ASSERT_EQ(reader.stripe(), kOverflowStripe);
  ExpectWaitBlocksUntilUnpin(pins, reader);
}

// Waits queue behind one another (they are serialized); each of them
// blocks on the one pinned reader. Pins taken after they have returned
// block the next wait again.
TEST(ReaderPinsTest, QueuedWaitsAllBlockUntilTheReaderUnpins) {
  ReaderPins pins;
  PinnedReader reader(pins);
  {
    Waiter first(pins);
    Waiter second(pins);
    std::this_thread::sleep_for(milliseconds(50));
    EXPECT_FALSE(first.done());
    EXPECT_FALSE(second.done());
    reader.Unpin();
    EXPECT_TRUE(first.DoneWithin(milliseconds(10000)));
    EXPECT_TRUE(second.DoneWithin(milliseconds(10000)));
  }
  PinnedReader later(pins);
  ExpectWaitBlocksUntilUnpin(pins, later);
}

// Readers on the shared overflow slot pin and unpin back to back, so some
// of them are nearly always pinned; the grace period must still end.
TEST(ReaderPinsTest, WaitEndsUnderSteadyOverflowReaders) {
  constexpr int kReaders = 3;
  ReaderPins pins;
  StripeHogs hogs;
  std::atomic<bool> stop{false};
  std::atomic<int> on_overflow{0};
  std::latch started(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      if (ThreadStripe() == kOverflowStripe) {
        on_overflow.fetch_add(1);
      }
      started.count_down();
      while (!stop.load(std::memory_order_relaxed)) {
        ReaderPins::Pin pin(pins);
        std::this_thread::yield();
      }
    });
  }
  started.wait();
  EXPECT_EQ(on_overflow.load(), kReaders);
  for (int i = 0; i < 20; ++i) {
    Waiter waiter(pins);
    const bool ended = waiter.DoneWithin(milliseconds(10000));
    EXPECT_TRUE(ended) << "grace period " << i << " starved by new readers";
    if (!ended) {
      stop.store(true);  // lets the starved wait finish before ~Waiter joins
      break;
    }
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
}

}  // namespace
}  // namespace xsec
