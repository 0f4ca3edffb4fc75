#include "src/base/reader_pins.h"

#include <chrono>
#include <thread>

namespace xsec {

void ReaderPins::WaitForReaders() {
  std::lock_guard<std::mutex> lock(wait_mu_);
  // Two flips, so both parities are drained: a reader that read the phase
  // just before one flip and counted itself after it sits in the parity the
  // flip moved away from, and the second half waits for it.
  for (int half = 0; half < 2; ++half) {
    const uint32_t old_parity = phase_.load(std::memory_order_relaxed);
    phase_.store(old_parity ^ 1u, std::memory_order_seq_cst);
    WaitForParity(old_parity);
  }
}

void ReaderPins::WaitForParity(uint32_t parity) const {
  // A read section is a few hundred nanoseconds, so yielding usually ends
  // the wait; a reader preempted while pinned can take a scheduler slice,
  // so after a while the waiter sleeps instead of competing for its CPU.
  constexpr int kYieldsBeforeSleep = 64;
  for (const Slot& slot : slots_) {
    for (int tries = 0; slot.count[parity].load(std::memory_order_seq_cst) != 0; ++tries) {
      if (tries < kYieldsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

}  // namespace xsec
