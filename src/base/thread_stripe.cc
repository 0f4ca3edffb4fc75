#include "src/base/thread_stripe.h"

#include <mutex>
#include <vector>

namespace xsec {
namespace stripe_internal {
namespace {

// Free stripe indices. Leaked on purpose: threads (the main thread included)
// may release their index during static destruction.
struct StripePool {
  std::mutex mu;
  std::vector<uint32_t> free;
  uint32_t next = 0;
};

StripePool& Pool() {
  static StripePool* pool = new StripePool;
  return *pool;
}

// Returns the thread's index to the pool when the thread exits. Bumps made
// by later thread-exit destructors go to the shared overflow stripe.
struct StripeReleaser {
  ~StripeReleaser() {
    uint32_t s = t_stripe;
    t_stripe = static_cast<uint32_t>(kOverflowStripe);
    if (s >= kThreadStripes) {
      return;
    }
    StripePool& pool = Pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.free.push_back(s);
  }
};

}  // namespace

size_t ClaimThreadStripe() {
  uint32_t s = static_cast<uint32_t>(kOverflowStripe);
  {
    StripePool& pool = Pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.free.empty()) {
      s = pool.free.back();
      pool.free.pop_back();
    } else if (pool.next < kThreadStripes) {
      s = pool.next++;
    }
  }
  t_stripe = s;
  // Constructed on the first claim only; its destructor runs at thread exit.
  thread_local StripeReleaser releaser;
  return s;
}

}  // namespace stripe_internal
}  // namespace xsec
