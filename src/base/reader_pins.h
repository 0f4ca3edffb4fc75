// Per-thread reader pins and a bounded grace-period wait.
//
// The scheme for publishing an immutable object that readers use without a
// lock or a reference count, and that its installer frees as soon as no
// reader can still hold it:
//
//   reader:     ReaderPins::Pin pin(pins);          // one RMW, own stripe
//               const T* p = current.load();        // use p ...
//               // ~Pin                             // one release store
//   installer:  old = current.exchange(fresh);      // publish
//               pins.WaitForReaders();              // grace period
//               delete old;                         // nobody holds it
//
// Pins are counted on the thread-stripe slots of src/base/thread_stripe.h, so
// a pin touches one cache line that no other thread writes (threads beyond
// kThreadStripes share the overflow slot and use fetch_add/fetch_sub there).
// Every step that orders a pin against a publication is a seq_cst atomic
// operation (the pin's fetch_add, the reader's load of the published pointer,
// the installer's store of it and its loads of the pin counts), never a
// standalone fence, so ThreadSanitizer models it exactly. Soundness: a reader
// whose pin is not seen by WaitForReaders' scan pinned after the scan in the
// seq_cst order, hence after the publication, so its load returns the new
// object; a reader whose pin is seen is waited for.
//
// Each slot holds two counters, one per phase parity, as in userspace RCU.
// A reader counts itself in the parity of the current phase; the wait flips
// the phase and waits for the old parity to drain, then flips back and waits
// for the other one. New readers always enter the parity not being waited
// on, so a steady stream of readers on the shared overflow slot cannot keep
// its count above zero and starve the installer: the wait lasts as long as
// the longest read section that was already running, plus at most one late
// entry per thread that read the phase just before a flip.
//
// Only installers wait; readers never block. A thread must not call
// WaitForReaders while it holds a Pin of the same object (it would wait on
// itself), nor while holding a lock that a pinned reader may take.

#ifndef XSEC_SRC_BASE_READER_PINS_H_
#define XSEC_SRC_BASE_READER_PINS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/base/thread_stripe.h"

namespace xsec {

class ReaderPins {
 public:
  ReaderPins() = default;
  ReaderPins(const ReaderPins&) = delete;
  ReaderPins& operator=(const ReaderPins&) = delete;

  // Marks the calling thread as reading for the Pin's lifetime. Load the
  // published pointer only after constructing the Pin, with a seq_cst load.
  class Pin {
   public:
    explicit Pin(ReaderPins& pins) {
      const size_t stripe = ThreadStripe();
      const uint32_t parity = pins.phase_.load(std::memory_order_seq_cst);
      counter_ = &pins.slots_[stripe].count[parity];
      shared_ = stripe == kOverflowStripe;
      counter_->fetch_add(1, std::memory_order_seq_cst);
    }
    // Release: the read section happens-before the installer's load that
    // sees the count drop, hence before the free.
    ~Pin() {
      if (shared_) {
        counter_->fetch_sub(1, std::memory_order_release);
      } else {
        // Single writer: a plain decrement.
        counter_->store(counter_->load(std::memory_order_relaxed) - 1,
                        std::memory_order_release);
      }
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    std::atomic<uint64_t>* counter_;
    bool shared_;
  };

  // Returns once every Pin constructed before the call has been destroyed.
  // Call it after publishing a replacement; the replaced object may then be
  // freed. Concurrent calls are serialized.
  void WaitForReaders();

 private:
  // Spins (yielding) until no slot counts a reader in `parity`.
  void WaitForParity(uint32_t parity) const;

  struct alignas(64) Slot {
    std::atomic<uint64_t> count[2] = {};
  };
  Slot slots_[kThreadStripes + 1];
  // Read by every Pin, written twice per grace period.
  alignas(64) std::atomic<uint32_t> phase_{0};
  std::mutex wait_mu_;
};

}  // namespace xsec

#endif  // XSEC_SRC_BASE_READER_PINS_H_
