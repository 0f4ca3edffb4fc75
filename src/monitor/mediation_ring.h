// Shared-ring batched mediation transport (MODEL.md §14, DESIGN.md
// "Mediation transport").
//
// Every boundary crossing in the paper's model is a mediated check, so the
// per-call cost of ReferenceMonitor::Check is the system's tax rate. This
// module amortizes it the way exception-less syscall designs (XSC/FlexSC)
// amortize the kernel boundary: instead of calling the monitor, callers
// enqueue requests into a per-shard bounded submission ring, dedicated
// worker threads drain the rings in batches and decide each batch with ONE
// ReferenceMonitor::CheckBatch pass (one stamp read, one stats flush, one
// audit stamping section per batch), and results post to a per-caller
// completion queue supporting blocking wait with CallOptions deadlines and
// cooperative cancellation.
//
// Flow control is credit-based at both ends, and both ends FAIL FAST:
//   - submission: each shard's CreditRing bounds in-flight work; a stalled
//     worker exhausts the shard's credits and further submissions return
//     kResourceExhausted immediately (never block) — other shards are
//     unaffected;
//   - completion: each Client reserves a completion credit at submit time,
//     so the worker can always post without blocking; a caller that stops
//     draining its completions exhausts only its own credits and gets
//     kResourceExhausted on its next submit.
// Back-pressure is therefore always an error the caller sees at submit, and
// the worker can never be wedged by a full queue anywhere.
//
// Async invoke rides on the same transport: SubmitInvoke carries a
// type-erased continuation the worker runs only when the batched execute
// decision allows — the monitor layer stays below the extension system, so
// the kernel's Value/Args never appear here.
//
// Ordering semantics (MODEL.md §14 is normative): requests on one shard are
// decided in submission order; requests on different shards, or admitted to
// one shard by racing threads, have no order. Audit sequence numbers are
// assigned in decision order and sink emission is exactly seq-ordered
// (AuditLog's guarantee); the fail-closed audit_required transition is
// applied per request, never per batch.
//
// Thread safety: MediationRing and Client methods may be called from any
// thread; a Client's completions may be awaited by multiple threads. A
// Client must not be destroyed while submissions race its destructor (the
// destructor drains in-flight completions, then detaches).

#ifndef XSEC_SRC_MONITOR_MEDIATION_RING_H_
#define XSEC_SRC_MONITOR_MEDIATION_RING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/call_options.h"
#include "src/base/credit_ring.h"
#include "src/base/status.h"
#include "src/monitor/reference_monitor.h"
#include "src/monitor/shard_grant.h"

namespace xsec {

class Failpoint;

struct MediationRingOptions {
  // Independent submission rings, each with its own worker thread. Clients
  // are assigned round-robin at NewClient; a stalled shard never blocks
  // another's submissions or completions.
  size_t shards = 1;
  // Per-shard submission-ring capacity == in-flight credit pool.
  size_t ring_capacity = 256;
  // Most requests a worker decides per CheckBatch pass.
  size_t batch_max = 32;
  // Per-client completion credits: submissions a client may have
  // outstanding (queued, deciding, or completed-but-unawaited).
  size_t completion_capacity = 64;
  // A completion waiter carrying a cancel flag re-examines it at least this
  // often (the CallContext cancellation-granularity contract).
  uint64_t cancel_poll_interval_ns = 5'000'000;  // 5 ms
  // Route each submission onto the ring shard of the target node's monitor
  // shard (node shard mod `shards`) instead of the client's home shard, so a
  // worker's CheckBatch sees requests from one validity domain and reads one
  // shard-local stamp set per batch (docs/MODEL.md §15). Off by default:
  // routing by node trades MODEL.md §14's per-client submission-order
  // guarantee for the stamp-locality win, so callers opt in.
  bool route_by_monitor_shard = false;
  // When set, cross-shard submissions — subject homed (ShardOfPrincipal) in
  // a different monitor shard than the target node — must hold a grant in
  // the node's shard or they fail at submit with kPermissionDenied, before
  // any batch work. Admission-only: admitted requests still run the full
  // DAC/MAC check. Must outlive the ring.
  ShardGrantTable* grants = nullptr;
  // When set, every submission consults this gate FIRST — before the grant
  // check and before any credit is reserved — and a non-OK status is
  // returned to the submitter verbatim. The extension supervisor installs a
  // gate answering kUnavailable for quarantined targets, which is what makes
  // quarantine fail-fast: a tripped extension's requests never consume ring
  // or completion credits, so it cannot starve healthy tenants of the
  // transport. Type-erased (the monitor layer sits below the extension
  // system). Must be thread-safe and must outlive the ring.
  std::function<Status(const Subject& subject, NodeId node)> admission_gate;
};

class MediationRing {
 public:
  // Continuation for SubmitInvoke: runs on the worker, only when the
  // execute-mode decision allowed. Type-erased so invocable payloads from
  // any layer (kernel procedures included) ride the ring without this
  // module depending on them.
  using InvokeFn = std::function<Status()>;

  struct Completion {
    uint64_t ticket = 0;
    Decision decision;
    // OK for pure checks and allowed invokes whose continuation succeeded;
    // the decision's ToStatus for denied invokes; the continuation's error
    // otherwise.
    Status invoke_status;
  };

  // A caller's endpoint: a ticket source, a completion-credit pool, and the
  // completion queue. Obtained from NewClient; pinned to one shard.
  class Client {
   public:
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    size_t shard() const { return shard_; }
    // Submissions rejected at this client's completion-credit gate.
    uint64_t credit_rejections() const {
      return credit_rejections_.load(std::memory_order_relaxed);
    }

   private:
    friend class MediationRing;
    Client(MediationRing* ring, size_t shard, size_t credits)
        : ring_(ring), shard_(shard), credits_(static_cast<int64_t>(credits)) {}

    MediationRing* ring_;
    const size_t shard_;
    std::atomic<int64_t> credits_;
    std::atomic<uint64_t> next_ticket_{1};
    std::atomic<uint64_t> credit_rejections_{0};
    // submitted_ counts admissions to the shard ring; posted_ counts
    // completions posted. The destructor waits for posted_ == submitted_
    // under mu_ — the worker's post (under mu_) is its last touch of this
    // client, so after the wait the client is safe to tear down.
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> posted_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Completion> ready_;  // guarded by mu_
  };

  // The monitor must outlive the ring. Workers start immediately.
  MediationRing(ReferenceMonitor* monitor, MediationRingOptions options = {});

  // Stops admissions, drains everything already queued (stop is
  // drain-then-exit), posts the remaining completions, and joins the
  // workers. Outstanding Clients must be destroyed first.
  ~MediationRing();

  MediationRing(const MediationRing&) = delete;
  MediationRing& operator=(const MediationRing&) = delete;

  // A new endpoint, assigned to the next shard round-robin.
  std::unique_ptr<Client> NewClient();

  // Enqueues one Check. Returns the completion ticket to Wait on,
  // kResourceExhausted when the client is out of completion credits (it
  // stopped draining) or the shard ring is out of submission credits (the
  // worker is backlogged/stalled), or kPermissionDenied when a configured
  // grant table rejects a cross-shard submission. Never blocks. The
  // `ring.submit` failpoint can inject an admission error for fault sweeps.
  StatusOr<uint64_t> SubmitCheck(Client& client, const Subject& subject, NodeId node,
                                 AccessModeSet modes);

  // Enqueues an execute-mode check that, when allowed, runs `fn` on the
  // worker before posting the completion. Denied submissions never run fn.
  StatusOr<uint64_t> SubmitInvoke(Client& client, const Subject& subject, NodeId node,
                                  InvokeFn fn);

  // Blocks until `ticket`'s completion arrives, the deadline passes, or the
  // cancel flag is set (CallContext contract: cancellation wins when both
  // trip). A completion consumed here returns its credit to the client.
  // Waiting on a ticket that was never admitted blocks until
  // deadline/cancel; pass a deadline.
  StatusOr<Completion> Wait(Client& client, uint64_t ticket,
                            const CallOptions& options = {});

  // -- Telemetry (/sys/monitor/ring/*) ----------------------------------------

  size_t shard_count() const { return shards_.size(); }
  // Requests queued across all shards right now.
  size_t depth() const;
  // Batches drained across all shards.
  uint64_t batches() const;
  uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  // Cross-shard submissions rejected by the grant table at the submit gate.
  uint64_t grant_rejections() const {
    return grant_rejections_.load(std::memory_order_relaxed);
  }
  // Submissions refused by the supervision admission gate (pre-credit).
  uint64_t gate_rejections() const {
    return gate_rejections_.load(std::memory_order_relaxed);
  }

  // One shard's worker-liveness view, for the supervisor's watchdog. The
  // heartbeat is stamped at BATCH boundaries (just after a batch is drained
  // and again when its results are ready, just before they are posted to
  // waiters), and `busy` is true only between those stamps — so a waiter
  // that has its completion never sees that batch in flight, and "busy for
  // longer than the watchdog's
  // stuck_after bound" means one batch has been in flight that long, not
  // that the shard is merely loaded. A legitimately slow batch keeps its
  // heartbeat fresh at every boundary; only a wedge inside ONE batch (a
  // stalled CheckBatch, a stuck invoked continuation, an armed
  // ring.worker.<shard>.batch sleep) lets the age grow unboundedly. The
  // watchdog's stuck_after must therefore exceed the worst legitimate
  // single-batch time — that is the pinned contract
  // (WatchdogTest.SlowButProgressingBatchIsNotStuck).
  struct ShardHealth {
    bool busy = false;           // a drained batch is currently in flight
    uint64_t heartbeat_ns = 0;   // MonotonicNowNs at the last batch boundary
    uint64_t batches = 0;        // batches fully processed so far
  };
  ShardHealth shard_health(size_t shard) const;
  // Admissions rejected for want of a credit, both gates combined: the
  // transport's visible back-pressure events.
  uint64_t stalls() const;

 private:
  struct Request {
    Client* client = nullptr;
    uint64_t ticket = 0;
    Subject subject;
    NodeId node;
    AccessModeSet modes;
    InvokeFn invoke;  // null for plain checks
  };

  struct Shard {
    explicit Shard(size_t capacity) : ring(capacity) {}
    CreditRing<Request> ring;
    std::thread worker;
    std::atomic<uint64_t> batches{0};
    // Watchdog view: stamped by the worker at batch boundaries (see
    // ShardHealth). busy is set after a batch is drained and cleared just
    // before its completions are posted.
    std::atomic<uint64_t> heartbeat_ns{0};
    std::atomic<bool> busy{false};
    // Per-shard stall-injection site ("ring.worker.<shard>.batch"),
    // resolved once at construction — the XSEC_FAILPOINT macros cache by
    // call site and cannot carry a per-shard name.
    Failpoint* stall_point = nullptr;
  };

  StatusOr<uint64_t> Submit(Client& client, const Subject& subject, NodeId node,
                            AccessModeSet modes, InvokeFn fn);
  void WorkerLoop(Shard* shard);
  static void Post(Client* client, Completion completion);

  ReferenceMonitor* monitor_;
  MediationRingOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> next_shard_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> completion_stalls_{0};
  std::atomic<uint64_t> grant_rejections_{0};
  std::atomic<uint64_t> gate_rejections_{0};
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_MEDIATION_RING_H_
