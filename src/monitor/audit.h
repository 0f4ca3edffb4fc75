// The audit log. The paper lists "auditing of security relevant system
// events" among the concerns a complete security model must address (§1);
// here every access decision can be recorded, under a configurable policy.
// Experiment F7 measures the cost of each policy.
//
// Thread safety: Record()/Count() may be called from any number of checking
// threads. The check/denial counters are striped per thread
// (src/base/thread_stripe.h), so the hot allow path (under the default
// denials-only policy) takes no lock and writes no shared cache line;
// records that the policy retains go into a bounded ring — many producers
// serialize briefly on the ring mutex, the (single) consumer drains via
// records()/Query(), and the oldest record is overwritten once the ring is
// full.
//
// Sink I/O never runs under the ring mutex. Without a drain, the recording
// thread invokes the sink on a copy of the record after releasing the ring
// lock; the sink mutex is acquired BEFORE the sequence is stamped, so the
// stamp and the sink call form one serialized critical section and sync-mode
// output is in exact sequence order (sinks still need no internal locking).
// With StartDrain(), Record only enqueues into a bounded drain queue and a
// background drainer invokes the sink — file writes and NDJSON rotation
// renames happen on the drainer, never on a mediated check, and enqueueing
// inside the stamping critical section keeps drained output exactly
// sequence-ordered too. See docs/MODEL.md §11 for the ordering/durability
// semantics.

#ifndef XSEC_SRC_MONITOR_AUDIT_H_
#define XSEC_SRC_MONITOR_AUDIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/thread_stripe.h"
#include "src/dac/access_mode.h"
#include "src/naming/namespace.h"
#include "src/principal/principal.h"

namespace xsec {

enum class AuditPolicy : uint8_t {
  kOff = 0,
  kDenialsOnly,
  kAll,
};

enum class DenyReason : uint8_t {
  kNone = 0,          // allowed
  kNotFound,          // target (or an ancestor) does not exist
  kTraversal,         // denied while resolving an ancestor
  kDacExplicitDeny,   // a negative ACL entry matched
  kDacNoGrant,        // no positive ACL entry covered the request
  kMacFlow,           // the lattice flow rules forbid the access
  kNotAuthorized,     // administrative operation without administrate rights
  kAuditUnavailable,  // fail-closed: the required audit sink is down
  kQuarantined,       // supervision: extension quarantined or monitor lockdown
};

// Number of DenyReason values, kNone included (per-reason counter arrays).
inline constexpr size_t kDenyReasonCount = 9;

std::string_view DenyReasonName(DenyReason reason);

struct AuditRecord {
  uint64_t sequence = 0;
  PrincipalId principal;
  uint64_t thread_id = 0;
  NodeId node;
  std::string path;          // resolved path, or the requested one on kNotFound
  AccessModeSet modes;
  bool allowed = false;
  DenyReason reason = DenyReason::kNone;
  std::string detail;        // human-readable explanation

  std::string ToString() const;

  // One-line JSON object (no trailing newline) with the full record; the
  // NDJSON streaming schema is documented in docs/MODEL.md §11.
  std::string ToJson() const;
};

// A sink for AuditLog::set_sink that writes each retained record as one
// NDJSON line to `out`. The stream must outlive the log; the log serializes
// sink invocations (sink mutex, or the single drainer thread), so the sink
// needs no locking of its own. A slow target stalls recorders unless the
// log's async drain is running (AuditLog::StartDrain).
std::function<void(const AuditRecord&)> MakeNdjsonSink(std::ostream* out);

// Rotation policy for an NDJSON audit file: the current file is rotated when
// appending the next record would push it past max_bytes, or when it has
// been open longer than max_age_ns (0 disables that limit). On rotation the
// files shift path -> path.1 -> ... -> path.max_keep and the oldest is
// deleted; max_keep == 0 truncates in place instead of keeping history.
struct NdjsonRotationPolicy {
  uint64_t max_bytes = 0;
  uint64_t max_age_ns = 0;
  size_t max_keep = 3;
};

// A size/age-rotating NDJSON audit file writer (tools/xsec_stats wires one
// behind --ndjson). Not internally synchronized: the AuditLog serializes its
// sink invocations (never under the ring mutex). Under the async drain both
// the fwrite and the rotation renames run on the drainer thread, off the
// mediated check path entirely.
class NdjsonFileRotator {
 public:
  NdjsonFileRotator(std::string path, NdjsonRotationPolicy policy);
  ~NdjsonFileRotator();
  NdjsonFileRotator(const NdjsonFileRotator&) = delete;
  NdjsonFileRotator& operator=(const NdjsonFileRotator&) = delete;

  // Opens (truncating) the base file. Must succeed before Write is used.
  Status Open();

  void Write(const AuditRecord& record);

  uint64_t rotations() const { return rotations_; }
  // Rotations whose history shift was skipped because the rename failed
  // (real or injected via the `audit.rotate.rename` failpoint); the file is
  // truncated in place instead, so writing always continues.
  uint64_t rename_failures() const { return rename_failures_; }
  // Lines that did not land in full — a short fwrite (disk full, I/O error,
  // or the `audit.ndjson.write` failpoint). The partial line is truncated
  // back off the file so the NDJSON whole-line invariant holds; the record
  // is dropped from export (the in-memory ring still retains it).
  uint64_t write_failures() const { return write_failures_; }
  const std::string& path() const { return path_; }

 private:
  void RotateIfNeeded(size_t next_line_bytes);

  std::string path_;
  NdjsonRotationPolicy policy_;
  std::FILE* out_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t opened_at_ns_ = 0;
  uint64_t rotations_ = 0;
  uint64_t rename_failures_ = 0;
  uint64_t write_failures_ = 0;
};

// Adapts a rotator into an AuditLog sink; the shared_ptr keeps it alive for
// as long as the log holds the sink.
std::function<void(const AuditRecord&)> MakeRotatingNdjsonSink(
    std::shared_ptr<NdjsonFileRotator> rotator);

// Fallible adapter for wrapping a rotator in a ResilientSink: a write the
// rotator had to drop (disk full — see write_failures()) reports
// kResourceExhausted, so the circuit breaker retries it and ultimately
// trips, which is what lets `audit_required` fail closed on a full disk.
std::function<Status(const AuditRecord&)> MakeRotatingNdjsonFallibleSink(
    std::shared_ptr<NdjsonFileRotator> rotator);

// A bounded in-memory audit sink: retains the most recent `capacity` records
// handed to it (a recent-window retention ring of its own, independent of
// the log's). Register one as a fan-out lane (MakeMemoryRingSink) to keep a
// cheap queryable tail per export plane. Accessors are thread-safe.
class AuditMemoryRing {
 public:
  explicit AuditMemoryRing(size_t capacity = 1024);

  void Write(const AuditRecord& record);

  // Retained records, oldest first.
  std::vector<AuditRecord> records() const;
  // Records ever written (retained or since evicted).
  uint64_t total() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<AuditRecord> ring_;
  uint64_t total_ = 0;
};

// Adapts a memory ring into an audit sink; the shared_ptr keeps it alive for
// as long as the log holds the sink.
std::function<void(const AuditRecord&)> MakeMemoryRingSink(
    std::shared_ptr<AuditMemoryRing> ring);

// -- Self-healing sink --------------------------------------------------------

// Tuning for ResilientSink (MODEL.md §12). Defaults: up to 4 attempts per
// record with 1ms→50ms capped exponential backoff ±50% jitter; 8 consecutive
// failed attempts trip the circuit open; after 200ms an open circuit lets one
// half-open probe through.
struct ResilientSinkOptions {
  int max_attempts = 4;                     // per record, first try included
  uint64_t backoff_initial_ns = 1'000'000;  // 1 ms before the first retry
  uint64_t backoff_max_ns = 50'000'000;     // backoff doubles up to this cap
  uint32_t jitter_pct = 50;                 // backoff is jittered ± this %
  uint32_t trip_after = 8;                  // consecutive failed attempts → open
  uint64_t reopen_after_ns = 200'000'000;   // open → half-open probe interval
  uint64_t rng_seed = 0x5eed;               // jitter rng (deterministic)
};

// A circuit-breaking retry wrapper around a fallible sink. Closed: every
// record is attempted up to max_attempts times with capped exponential
// backoff + jitter. Open (tripped after trip_after consecutive failed
// attempts): records are dropped immediately (counted in gave_up()) so a
// dead sink cannot stall the audit pipeline; the ring still retains them.
// Half-open: after reopen_after_ns one probe record is tried once — success
// recloses the circuit, failure reopens it.
//
// Write() must be externally serialized, which AuditLog::InstallResilientSink
// guarantees (sink invocations run under the log's sink mutex or on its
// single drainer thread). The state/counter accessors are safe from any
// thread — they back the /sys/monitor/audit/{sink_state,retries,gave_up}
// leaves and the monitor's fail-closed check.
class ResilientSink {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };

  // The wrapped sink reports failure via Status so retries are possible
  // (the plain void AuditLog::Sink cannot).
  using FallibleSink = std::function<Status(const AuditRecord&)>;

  explicit ResilientSink(FallibleSink inner, ResilientSinkOptions options = {});

  // Delivers one record per the policy above. The `audit.sink.write`
  // failpoint is evaluated on every attempt, before the inner sink.
  void Write(const AuditRecord& record);

  State state() const { return state_.load(std::memory_order_relaxed); }
  bool healthy() const { return state() != State::kOpen; }

  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t gave_up() const { return gave_up_.load(std::memory_order_relaxed); }

  static std::string_view StateName(State state);

 private:
  Status TryOnce(const AuditRecord& record);

  FallibleSink inner_;
  ResilientSinkOptions options_;
  Rng rng_;
  std::atomic<State> state_{State::kClosed};
  std::atomic<uint64_t> written_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> gave_up_{0};
  // Touched only inside Write (externally serialized).
  uint32_t consecutive_failures_ = 0;
  uint64_t opened_at_ns_ = 0;
};

// Configuration for the async audit drain (AuditLog::StartDrain). The drain
// queue is bounded: when a slow sink lets it fill, newly retained records
// skip the sink (counted in sink_dropped()) rather than blocking recorders —
// the ring still retains them, so nothing is lost from records()/Query().
struct AuditDrainOptions {
  size_t queue_capacity = 4096;
};

// Configuration for the sharded multi-sink fan-out (AuditLog::StartFanOut).
struct AuditFanOutOptions {
  // Shard queues per lane; a record lands in shard (sequence % shards).
  size_t shards = 4;
  // Per-shard queue bound. A full shard drops the record for THAT lane only
  // (counted in the lane's dropped gauge); other lanes and the retained
  // ring are unaffected, so one wedged sink cannot starve the rest.
  size_t shard_queue_capacity = 1024;
};

// Per-lane telemetry snapshot (AuditLog::FanOutStats).
struct AuditSinkLaneStats {
  uint64_t id = 0;
  std::string name;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t stitch_violations = 0;
};

class AuditLog {
 public:
  using Sink = std::function<void(const AuditRecord&)>;

  explicit AuditLog(size_t capacity = 4096) : capacity_(capacity) {}
  ~AuditLog() {
    StopDrain();
    StopFanOut();
  }

  void set_policy(AuditPolicy policy) { policy_.store(policy, std::memory_order_relaxed); }
  AuditPolicy policy() const { return policy_.load(std::memory_order_relaxed); }

  // Records a decision if the policy asks for it. Counters are maintained
  // regardless of policy.
  void Record(AuditRecord record);

  // True iff the current policy would retain a record with this outcome.
  // Callers use this to skip building record text (path strings) that would
  // be thrown away; if it returns false they call Count() instead.
  bool WouldRetain(bool allowed) const {
    AuditPolicy p = policy();
    return p == AuditPolicy::kAll || (p == AuditPolicy::kDenialsOnly && !allowed);
  }

  // Records a whole batch of decisions in one stamping critical section
  // (ReferenceMonitor::CheckBatch): every record is counted, then those
  // the current policy retains are sequence-stamped contiguously, handed to
  // the sink/drain, and ring-inserted under ONE acquisition of the ring
  // mutex. Ordering semantics are identical to N Record() calls performed
  // back-to-back by one thread. Consumes `records`.
  void RecordBatch(std::vector<AuditRecord> records);

  // Maintains counters without retaining a record. Lock-free, and writes
  // only the calling thread's counter stripe.
  void Count(bool allowed) {
    counters_.Add(kChecks);
    if (!allowed) {
      counters_.Add(kDenials);
    }
  }

  // Batched Count: `checks` decisions of which `denials` denied, in two
  // stripe bumps total. For batch paths whose records the policy discards.
  void CountBatch(uint64_t checks, uint64_t denials) {
    if (checks != 0) {
      counters_.Add(kChecks, checks);
    }
    if (denials != 0) {
      counters_.Add(kDenials, denials);
    }
  }

  // Optional sink invoked for every retained record (e.g. a test collector
  // or an NDJSON writer). Invocations are serialized, in exact sequence
  // order, and never run under the ring mutex; without a drain the
  // recording thread calls the sink itself (and blocks on its I/O), with
  // one the drainer does. Install at setup time, before concurrent checking
  // starts.
  void set_sink(Sink sink);

  // Installs `sink` (may be null to remove) as THE sink, wrapped so every
  // retained record goes through its retry/circuit-breaker policy, and
  // registers it as the log's health source: SinkTripped(), sink_state()
  // and the retry counters reflect this sink from here on. Install at setup
  // time, like set_sink.
  void InstallResilientSink(std::shared_ptr<ResilientSink> sink);

  // -- Fail-closed contract (MODEL.md §12) ------------------------------------

  // When required is set and the resilient sink's circuit is open, the
  // reference monitor turns would-be allows into kAuditUnavailable denials
  // instead of letting actions proceed unaudited. Without required mode the
  // monitor lets them pass and counts them in unaudited_allows().
  void set_required(bool required) { required_.store(required, std::memory_order_relaxed); }
  bool required() const { return required_.load(std::memory_order_relaxed); }

  // True when a resilient sink is installed and its circuit is open. Hot
  // path: one pointer load (the common no-resilient-sink case stops at the
  // null check).
  bool SinkTripped() const {
    const ResilientSink* sink = resilient_raw_.load(std::memory_order_acquire);
    return sink != nullptr && sink->state() == ResilientSink::State::kOpen;
  }

  void CountUnauditedAllow() { unaudited_allows_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t unaudited_allows() const {
    return unaudited_allows_.load(std::memory_order_relaxed);
  }

  // Health of the installed resilient sink: "none" when there isn't one,
  // else "closed" / "open" / "half-open". Backs /sys/monitor/audit/sink_state.
  std::string sink_state() const;
  uint64_t sink_retries() const;
  uint64_t sink_gave_up() const;

  // -- Async drain ------------------------------------------------------------

  // Starts the background drainer: from here on Record() only enqueues (a
  // bounded copy queue) and the drainer invokes the sink in sequence order.
  // Idempotent while running. Thread-compatible with concurrent Record().
  void StartDrain(AuditDrainOptions options = {});

  // Drains whatever is queued, then stops and joins the drainer. Queued
  // records are flushed to the sink before this returns (clean-shutdown
  // durability); records that were dropped on a full queue are gone — see
  // sink_dropped(). No-op if the drain is not running.
  void StopDrain();

  // Blocks until every record enqueued before this call has been handed to
  // the sink (and any in-flight synchronous sink call has returned). With no
  // drain running this only waits out the in-flight call.
  void Flush();

  // Retained records that skipped the sink because the drain queue was full.
  uint64_t sink_dropped() const { return sink_dropped_.load(std::memory_order_relaxed); }

  // -- Multi-sink sharded fan-out ---------------------------------------------
  //
  // A second export plane, independent of the single set_sink pipeline:
  // AddSink registers any number of named sinks (an NDJSON file, an
  // in-memory ring, a future network exporter — the registry IS the hook
  // for new sink kinds), each backed by its own *lane* of `shards`
  // sequence-keyed queues and its own drainer thread. Lanes drain in
  // parallel, so a slow sink throttles only itself. Every retained record
  // is enqueued to every running lane inside the stamping critical section
  // — pushes therefore arrive in strictly increasing global sequence order
  // across all of a lane's shards — and each lane's stitcher (a
  // min-sequence merge over its shard heads) provably hands records to the
  // sink boundary in exact global sequence order. The proof is monitored,
  // not assumed: any out-of-order emission bumps the lane's
  // stitch_violations counter (0 in a correct run; tests and the F12 CI
  // gate pin it there). Backpressure drops leave gaps, never reorderings.

  // Registers a sink as a new lane; returns its id. Callable before or
  // after StartFanOut (a lane added while running starts draining at once).
  // The sink is invoked only from that lane's drainer thread.
  uint64_t AddSink(std::string name, Sink sink);

  // Stops the lane's drainer (flushing queued records first) and removes it.
  bool RemoveSink(uint64_t id);

  // Starts the fan-out: sizes every lane's shard queues and spawns one
  // drainer per lane. Records retained before this call are not fanned out.
  // Idempotent while running.
  void StartFanOut(AuditFanOutOptions options = {});

  // Flush-then-join of every lane drainer; lanes stay registered, so a
  // later StartFanOut resumes them. No-op when not running.
  void StopFanOut();

  // Aggregate fan-out gauges (backing /sys/monitor/audit/fanout/*).
  size_t fanout_sinks() const;
  uint64_t fanout_delivered() const;
  uint64_t fanout_dropped() const;
  uint64_t fanout_stitch_violations() const;
  // Per-lane breakdown for tools and tests.
  std::vector<AuditSinkLaneStats> FanOutStats() const;

  // Snapshot of the retained records, oldest first.
  std::vector<AuditRecord> records() const;

  // Number of currently retained records, without copying them (the cheap
  // gauge behind /sys/monitor/audit/retained).
  size_t retained() const;

  // Retained records matching a predicate, oldest first.
  std::vector<AuditRecord> Query(const std::function<bool(const AuditRecord&)>& pred) const;

  uint64_t total_checks() const { return counters_.Sum(kChecks); }
  uint64_t total_denials() const { return counters_.Sum(kDenials); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Discards the retained ring and zeroes the counters. Sequence numbers are
  // NOT reset: records emitted after a Clear continue the sequence, so ids
  // already exported (e.g. to rotated NDJSON files) are never reused and
  // cross-rotation dedup/ordering by `seq` stays sound.
  void Clear();

 private:
  // Recomputes sync_sink_active_ from sink_/drain_running_. Caller holds mu_.
  void UpdateSyncModeLocked() {
    sync_sink_active_.store(sink_ != nullptr && !drain_running_,
                            std::memory_order_release);
  }

  // Appends `visit(record)` for each retained record, oldest first, with
  // mu_ held.
  template <typename Visit>
  void ForEachLocked(Visit visit) const;

  // One registered fan-out sink: N sharded queues plus a drainer that
  // stitches them back into global sequence order. Defined in audit.cc.
  struct SinkLane;

  // Pushes `record` onto every running lane's shard queue. Caller holds mu_
  // (the stamping critical section), which is what makes cross-shard pushes
  // globally sequence-ordered.
  void EnqueueFanOutLocked(const AuditRecord& record);

  // Sizes a lane's shards per fanout_options_ and spawns its drainer.
  // Caller holds mu_ and fanout_running_ is true.
  void StartLaneLocked(const std::shared_ptr<SinkLane>& lane);

  // A lane drainer's main loop (min-sequence stitcher).
  void LaneLoop(SinkLane* lane);

  // Inserts into the bounded ring. Caller holds mu_.
  void RingInsertLocked(AuditRecord record);

  // The drainer thread's main loop.
  void DrainLoop();

  size_t capacity_;
  std::atomic<AuditPolicy> policy_{AuditPolicy::kDenialsOnly};
  enum Counter : size_t { kChecks, kDenials, kCounterCount };
  StripedCounters<kCounterCount> counters_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> sink_dropped_{0};

  // Ring of retained records: grows to capacity_, then head_ marks the
  // oldest record and new ones overwrite it. mu_ also orders sequence
  // stamping and drain-queue admission, which is what makes drained sink
  // output exactly sequence-ordered.
  mutable std::mutex mu_;
  std::vector<AuditRecord> ring_;
  size_t head_ = 0;
  // Shared so a recorder can invoke the current sink after dropping mu_
  // while set_sink concurrently swaps in a new one.
  std::shared_ptr<const Sink> sink_;
  uint64_t next_sequence_ = 0;

  // Resilient-sink health plumbing. resilient_ (guarded by mu_) owns the
  // sink; resilient_raw_ mirrors it so the monitor's per-check SinkTripped
  // probe is one lock-free load.
  std::shared_ptr<ResilientSink> resilient_;
  std::atomic<const ResilientSink*> resilient_raw_{nullptr};
  std::atomic<bool> required_{false};
  std::atomic<uint64_t> unaudited_allows_{0};

  // Serializes sink invocations (sync recorders and the drainer), so sinks
  // never need internal locking. Lock order: sync-mode recorders acquire
  // sink_mu_ BEFORE mu_ (stamping and sink emission become one critical
  // section, which is what makes sync-mode output exactly sequence-ordered);
  // no path ever acquires sink_mu_ while holding mu_.
  std::mutex sink_mu_;

  // True iff a sink is installed and no drain is running, i.e. recorders
  // will invoke the sink themselves. Maintained under mu_
  // (UpdateSyncModeLocked); read lock-free by recorders to decide whether
  // to pre-acquire sink_mu_. Sinks are installed at setup time, so the
  // pre-check and the under-mu_ state only diverge in tests that hot-swap
  // sinks — and then the recorder falls back to acquiring sink_mu_ late
  // (serialized, possibly unordered for that one racing record).
  std::atomic<bool> sync_sink_active_{false};

  // Async drain state, guarded by mu_ (the queue is touched only on actual
  // retention, never on the counting fast path).
  std::deque<AuditRecord> drain_queue_;
  AuditDrainOptions drain_options_;
  bool drain_running_ = false;
  bool drain_stop_ = false;
  bool drain_busy_ = false;  // the drainer is mid-batch outside mu_
  std::condition_variable drain_cv_;       // wakes the drainer
  std::condition_variable drain_idle_cv_;  // wakes Flush waiters
  std::thread drainer_;

  // Fan-out lane registry, guarded by mu_. Lanes are shared_ptrs so
  // StopFanOut/RemoveSink can join a drainer after dropping mu_ while a
  // racing accessor still holds a reference.
  std::vector<std::shared_ptr<SinkLane>> lanes_;
  AuditFanOutOptions fanout_options_;
  bool fanout_running_ = false;
  uint64_t next_lane_id_ = 1;
};

}  // namespace xsec

#endif  // XSEC_SRC_MONITOR_AUDIT_H_
