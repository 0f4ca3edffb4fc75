// Monitor observability through the namespace itself.
//
// The paper's third pillar is a single hierarchical name space in which
// every protected thing is a named, mediated object (§2.3). The reference
// monitor's own operational state is no exception: this service mounts the
// MonitorStats counters, the DecisionCache totals, and the AuditLog gauges
// as read-only file nodes under /sys/monitor/..., and every read of one goes
// back through ReferenceMonitor::Check on the leaf node (the same node-level
// mediation the other services use). Visibility of security telemetry is
// therefore governed by ACLs and labels like everything else — and a denied
// stats read shows up in the very denial counters it was trying to read (the
// model eating its own dogfood).
//
// Default policy: /sys/monitor carries an own ACL granting read|list to the
// system principal only, so telemetry is fail-closed; administrators widen
// it per node with ordinary AddAclEntry calls.
//
// Stats tree layout (docs/MODEL.md §11 is normative):
//
//   /sys/monitor/snapshot                one consistent multi-line rendering
//   /sys/monitor/version                 published snapshot version (counter)
//   /sys/monitor/checks/total            decisions recorded, all outcomes
//   /sys/monitor/checks/allowed          ... that allowed
//   /sys/monitor/checks/denied           ... that denied
//   /sys/monitor/checks/by-mode/<mode>   one per access mode (read, write, ...)
//   /sys/monitor/denials/by-reason/<r>   one per DenyReason (not-found, ...)
//   /sys/monitor/cache/hits|misses|stale|hit_rate
//   /sys/monitor/latency/p50|p90|p99|samples   sampled check latency, ns
//   /sys/monitor/audit/retained|dropped|sink_dropped
//   /sys/monitor/audit/fanout/sinks|delivered|dropped|stitch_violations
//                                        multi-sink fan-out plane (AuditLog)
//   /sys/monitor/rate/checks_per_sec     windowed rate over published epochs
//   /sys/monitor/rate/denials_per_sec
//   /sys/monitor/subscribers/active      live subscription channels
//   /sys/monitor/subscribers/dropped     epochs dropped across all channels ever
//   /sys/monitor/subscribers/<id>/queued|delivered|dropped   per channel
//
// Publication (RCU rule, MODEL.md §11): every Tick builds one immutable
// PublishedEpoch — snapshot, gauges, windowed rates, and the full rendered
// text — and swaps it into an atomic shared_ptr. Readers (the snapshot /
// version / rate leaves, watch fast paths, version()) load that pointer
// lock-free and never contend with the publisher; pub_mu_ is writer-side
// only (it serializes concurrent Ticks). The version leaf and the snapshot
// leaf read the *same* pointer, so a reader can never observe a version
// older than a snapshot it already rendered.
//
// Subscription channels: Subscribe() performs ONE admission check (read on
// the snapshot leaf) and returns a numeric capability handle backed by a
// bounded per-subscriber queue of published-epoch pointers. Tick() fans each
// newly published epoch out to every channel as a shared_ptr — a queue slot
// costs one pointer, not one rendered snapshot, so bounded queues hold deep
// history. Poll renders a *delta* against the last epoch that channel
// delivered (only the counters that changed, cumulative so drops in between
// are harmless); the first delivery after a catch-up seed renders the full
// snapshot. A full queue applies the channel's backpressure policy —
// kDropOldest evicts the oldest queued epoch (counted in the channel's
// `dropped` leaf), kBlockPublisher makes the publisher wait for space, but
// only up to publisher_block_cap_ns before dropping the new epoch — so a
// subscriber that never drains can never wedge Tick. The handle is
// owner-bound: poll/unsubscribe verify the calling principal, no further
// monitor checks are made (admission-once-then-act, like an open file).
//
// Durable subscriptions: ExportSubscription serializes a channel's identity
// (principal, last delivered version, backpressure policy) into a one-line
// token; ResumeSubscription re-admits it — the monitor Check runs again, so
// a revoked principal cannot smuggle a stale capability across a restart.

#ifndef XSEC_SRC_SERVICES_STATS_SERVICE_H_
#define XSEC_SRC_SERVICES_STATS_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "src/extsys/kernel.h"
#include "src/monitor/monitor_stats.h"

namespace xsec {

// What Tick() does when a subscriber's queue is full.
enum class SubscriberBackpressure : uint8_t {
  // Evict the oldest queued epoch to make room (the subscriber sees a gap;
  // the channel's `dropped` counter says how wide). The publisher never
  // waits. This is the default.
  kDropOldest = 0,
  // The publisher waits for the subscriber to drain — but only up to
  // StatsServiceOptions::publisher_block_cap_ns, after which the *new* epoch
  // is dropped instead. Bounded losslessness: a briefly slow subscriber
  // loses nothing, a stuck one costs Tick at most the cap.
  kBlockPublisher,
};

struct StatsServiceOptions {
  std::string mount_path = "/sys/monitor";
  std::string service_path = "/svc/stats";
  // Publication epoch: the snapshot/rate leaves refresh at most this often,
  // and a blocked watcher re-examines the counters once per interval (the
  // watch path is self-clocking; no background thread is required).
  uint64_t epoch_interval_ns = 20'000'000;  // 20 ms
  // Window the /sys/monitor/rate/* leaves average over.
  uint64_t rate_window_ns = 1'000'000'000;  // 1 s
  // Optionally run a dedicated publisher thread that Ticks every epoch so
  // versions advance even with no readers. Off by default: tests and tools
  // get deterministic, single-threaded behavior unless they opt in.
  bool background_publisher = false;
  // Bounded per-subscriber epoch queue depth.
  size_t subscriber_queue_capacity = 8;
  // Longest a kBlockPublisher channel may stall the publisher per epoch.
  uint64_t publisher_block_cap_ns = 50'000'000;  // 50 ms
  // Admission-time cap on live subscription channels.
  size_t max_subscribers = 64;
  // Admission-time cap on live channels per owning principal (0 = no
  // per-principal cap). Denials are counted at
  // /sys/monitor/subscribers/quota_denied. Contains one misbehaving subject
  // without starving everyone else of the global max_subscribers budget.
  size_t max_channels_per_principal = 4;
  // A watch/poll waiter carrying a cancel flag or deadline never parks
  // longer than this per wait slice, so cancellation is honored at this
  // granularity even when epoch_interval_ns is huge (0 = no cap: a
  // cancelled waiter may sleep up to one full epoch).
  uint64_t cancel_poll_interval_ns = 5'000'000;  // 5 ms
};

class StatsService {
 public:
  // The kernel must outlive this service.
  explicit StatsService(Kernel* kernel, StatsServiceOptions options = {});
  // Legacy convenience: custom mount/service paths, default intervals.
  StatsService(Kernel* kernel, std::string mount_path,
               std::string service_path = "/svc/stats");
  ~StatsService();

  // Binds the stats tree under mount_path (fail-closed ACL on the mount
  // root) and registers the /svc/stats procedures:
  //   read <path>            -> the node's current value (string)
  //   dump                   -> every readable single-line node, "path value"
  //   watch <since> [ms]     -> blocks until the published snapshot version
  //                             exceeds `since` (pass -1 for "any change
  //                             after this call"), then returns the new
  //                             snapshot text; kDeadlineExceeded on timeout.
  //                             A `since` beyond the published version is a
  //                             stale handle from a reset era: the current
  //                             snapshot is returned immediately.
  //   subscribe [since] [policy] -> opens a channel ("drop" or "block"
  //                             backpressure), returns its handle; a `since`
  //                             below the current version seeds the queue
  //                             with one catch-up snapshot.
  //   poll <handle> [ms]     -> next queued epoch, blocking up to ms;
  //                             kDeadlineExceeded if none arrives.
  //   unsubscribe <handle>   -> closes the channel.
  //   export <handle>        -> one-line durable token for the channel.
  //   resume <token>         -> re-admits the token; returns a new handle.
  Status Install();

  // Mounts the per-monitor-shard telemetry leaves
  // (shard/count and shard/<i>/checks|ns_gen|acl_gen|label_epoch for each
  // concrete shard, plus shard/aggregate/checks for the aggregate domain),
  // reading the monitor's shard-local stamps and check counters. Call after
  // Install; the monitor must outlive this service.
  Status MountShards(ReferenceMonitor* monitor);

  // Mounts the supervision health leaves (MODEL.md §16):
  // health/state|quarantined|lockdown, plus per-extension leaves health/ext/<name>/state|trips|timeouts|inflight,
  // mounted as names register via the supervisor's registration hook. Call
  // after Install; the supervisor must outlive this service.
  Status MountHealth(ExtensionSupervisor* supervisor);

  const std::string& mount_path() const { return options_.mount_path; }
  const std::string& service_path() const { return options_.service_path; }

  // -- Mediated operations ----------------------------------------------------

  // Reads one stats node: Check(subject, node, read) on the leaf, then
  // renders the current value. The check is the real monitor path, so a
  // denial here is itself counted and audited.
  StatusOr<std::string> ReadStat(Subject& subject, std::string_view path);

  // Renders every single-line stats node the subject can read, "path value"
  // per line in path order (the multi-line `snapshot` leaf is excluded).
  // Nodes the subject cannot read are silently skipped — and each skip is a
  // counted denial.
  StatusOr<std::string> DumpTree(Subject& subject);

  // -- Snapshot publication ---------------------------------------------------

  // Captures the counters now and publishes them as a new version if they
  // changed since the last publication (gauges included). Returns the
  // current version either way. Thread-safe; wakes blocked watchers on a
  // version change. Even when nothing changed the immutable epoch is
  // re-swapped (same version, fresher rates), so rate leaves keep decaying.
  uint64_t Tick();

  // Current published version (0 until the first Tick). Lock-free.
  uint64_t version() const;

  // Trusted render of the published snapshot (refreshing it first if it is
  // older than one epoch), no mediation — tools, tests.
  std::string RenderSnapshot();

  // Trusted render of every single-line leaf, no mediation (tools, tests).
  std::string RenderAll() const;

  // Blocks until the published version differs from `since` or `deadline_ns`
  // (absolute, MonotonicNowNs clock; 0 = unbounded) passes. Self-clocking:
  // a blocked caller re-captures the counters once per epoch interval, so
  // changes are observed within one epoch even with no background publisher.
  // A `since` ahead of the published version (a handle from before a service
  // restart) returns the current snapshot immediately instead of parking.
  // `call`, when given, makes the wait a cancellation point: the caller's
  // deadline/cancel flag is polled once per wakeup. Returns the new snapshot
  // text, or kDeadlineExceeded / kCancelled.
  StatusOr<std::string> WaitForUpdate(uint64_t since, uint64_t deadline_ns,
                                      const CallContext* call = nullptr);

  // -- Subscription channels --------------------------------------------------

  // One admission check (read on the snapshot leaf), then a capability
  // handle. `since` = -1 baselines now (the queue starts empty); any other
  // `since` that differs from the current version seeds the queue with one
  // catch-up full snapshot (a `since` *ahead* of the version is a handle
  // from a previous service incarnation — its era is gone, so it catches up
  // too). Mounts /sys/monitor/subscribers/<id>/... telemetry.
  StatusOr<uint64_t> Subscribe(Subject& subject, int64_t since,
                               SubscriberBackpressure backpressure =
                                   SubscriberBackpressure::kDropOldest);

  // Pops the next queued epoch, blocking until `deadline_ns` (absolute; 0 =
  // unbounded) if the queue is empty. Self-clocking like WaitForUpdate, and
  // a cancellation point when `call` is given. No monitor check: the handle
  // was admitted at Subscribe; only the owning principal may poll. The
  // rendered text is a delta against the channel's previous delivery
  // (header lines `version`, `reset_epoch`, `delta_from`, then only the
  // leaves whose values changed); full snapshot on first/catch-up delivery.
  StatusOr<std::string> PollSubscription(Subject& subject, uint64_t id,
                                         uint64_t deadline_ns,
                                         const CallContext* call = nullptr);

  // Closes the channel and unmounts its telemetry. Owner-only.
  Status Unsubscribe(Subject& subject, uint64_t id);

  // -- Durable subscriptions --------------------------------------------------

  // Serializes the channel's durable identity (owner principal, last
  // delivered version, backpressure policy) into a one-line token the owner
  // can present to a future incarnation of this service. Owner-only.
  StatusOr<std::string> ExportSubscription(Subject& subject, uint64_t id);

  // Re-establishes a channel from an exported token. The token must belong
  // to the calling principal, and admission is checked AGAIN (the same
  // monitor Check as Subscribe) — a principal whose read right was revoked
  // between export and resume is denied, token or no token. Returns the new
  // handle; the queue is seeded with one catch-up snapshot whenever the
  // token's version differs from the current one.
  StatusOr<uint64_t> ResumeSubscription(Subject& subject,
                                        const std::string& token);

  // Bulk-closes every channel owned by `principal` and unmounts their
  // telemetry; returns how many were closed. The hook a hosting shell calls
  // when a subject exits — trusted (no subject check), like the shell's own
  // teardown of the principal.
  size_t GcChannelsFor(PrincipalId principal);

  // Live channels / epochs dropped across all channels ever (both also
  // mounted under /sys/monitor/subscribers/).
  size_t active_subscribers() const;
  uint64_t subscriber_dropped_total() const {
    return subscriber_dropped_total_.load(std::memory_order_relaxed);
  }
  // Subscribe calls denied by the per-principal channel quota (also at
  // /sys/monitor/subscribers/quota_denied).
  uint64_t quota_denied_total() const {
    return quota_denied_total_.load(std::memory_order_relaxed);
  }

 private:
  struct SubscriberChannel;

  // One published epoch, immutable after the atomic swap: the consistent
  // snapshot, the gauges captured alongside it, the precomputed windowed
  // rates, and the full rendered text. Readers share it by pointer.
  struct PublishedEpoch {
    uint64_t version = 0;
    MonitorStats::Snapshot snap;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_stale = 0;
    uint64_t audit_retained = 0;
    uint64_t audit_dropped = 0;
    uint64_t tick_ns = 0;
    double checks_per_sec = 0.0;
    double denials_per_sec = 0.0;
    std::string rendered;  // full snapshot text
  };
  using PublishedPtr = std::shared_ptr<const PublishedEpoch>;

  // Binds one leaf (relative to the mount) backed by `render`. Leaves with
  // `in_dump` false (multi-line renderings) are skipped by DumpTree and
  // RenderAll.
  Status MountLeaf(const std::string& relative_path, std::function<std::string()> render,
                   bool in_dump = true);

  // Mounts / unmounts the per-channel telemetry leaves
  // (subscribers/<id>/queued|delivered|dropped).
  Status MountSubscriberLeaves(const std::shared_ptr<SubscriberChannel>& channel);
  void UnmountSubscriberLeaves(uint64_t id);

  // Pushes a newly published epoch to every channel, applying each one's
  // backpressure policy. Never called with pub_mu_ held (a kBlockPublisher
  // wait must not stall watchers), and never holds sub_mu_ while waiting.
  void FanOut(uint64_t version, const PublishedPtr& epoch);

  // Re-publishes only if the published snapshot is older than one epoch.
  void MaybeTick();

  // Renders `cur` as snapshot text. With `prev` == nullptr every leaf is
  // emitted (the full snapshot); otherwise only the leaves whose values
  // changed since `prev`, after a `delta_from <prev version>` header —
  // counters are cumulative, so a delta spanning dropped epochs is exact.
  std::string RenderEpoch(const PublishedEpoch& cur,
                          const PublishedEpoch* prev) const;

  // Windowed rates over the epoch ring. Caller holds pub_mu_.
  double ChecksPerSecLocked() const;
  double DenialsPerSecLocked() const;

  struct Leaf {
    NodeId node;
    std::function<std::string()> render;
    bool in_dump = true;
  };

  // One published epoch's cumulative counters; rate = windowed delta. The
  // reset_epoch pins which MonitorStats::Reset era the counters belong to:
  // deltas across eras are meaningless even when the newer cumulative value
  // has already grown past the older one, so Tick drops mismatched entries.
  struct RateEpoch {
    uint64_t t_ns = 0;
    uint64_t checks = 0;
    uint64_t denials = 0;
    uint64_t reset_epoch = 0;
  };

  // A persistent subscription channel. All mutable state is guarded by the
  // service-wide sub_mu_; the cv is per channel so a publisher waiting for
  // space on one channel and a poller waiting for data on another never
  // thunder each other. Held by shared_ptr: renders, pollers, and a blocked
  // publisher keep the channel alive across a concurrent Unsubscribe.
  struct SubscriberChannel {
    uint64_t id = 0;
    PrincipalId owner;
    SubscriberBackpressure backpressure = SubscriberBackpressure::kDropOldest;
    // Queue slots are epoch pointers (one machine word + refcount), not
    // rendered text: a bounded queue holds deep history cheaply, and the
    // delta against `last_delivered` is rendered lazily at poll time.
    std::deque<PublishedPtr> queue;
    // The epoch most recently handed to the poller; the baseline the next
    // delivery's delta is computed against. nullptr = the next delivery is
    // a catch-up (or first) delivery and renders the full snapshot.
    PublishedPtr last_delivered;
    // Highest version ever pushed (or dropped at the cap): concurrent Ticks
    // fan out unordered, and this keeps each channel's stream monotone.
    uint64_t last_version = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    bool closed = false;
    // Threads currently parked on `cv` (guarded by sub_mu_). The publisher's
    // fan-out loop skips the notify when this is zero — with no waiter a
    // notify is pure per-channel overhead on the publish path, and the
    // counter is exact because a poller increments it under sub_mu_ before
    // the wait atomically releases the lock.
    size_t waiters = 0;
    std::condition_variable cv;  // space (publisher) and data (poller)
  };

  Kernel* kernel_;
  StatsServiceOptions options_;
  // Full path -> bound node + value renderer; ordered so dumps are
  // deterministic. Written at Install and on subscribe/unsubscribe, read by
  // every dump — hence the shared_mutex. Lock order: renders run under a
  // shared hold and may take pub_mu_ or sub_mu_, so code holding either of
  // those must never take values_mu_.
  mutable std::shared_mutex values_mu_;
  std::map<std::string, Leaf> values_;
  NodeId snapshot_node_;

  // Subscription state. sub_mu_ guards the registry and every channel's
  // mutable fields; the aggregate drop counter is atomic so it survives
  // channel teardown and renders without the lock.
  mutable std::mutex sub_mu_;
  std::map<uint64_t, std::shared_ptr<SubscriberChannel>> subscribers_;
  // The same open channels, flat, for the publisher's fan-out loop: the
  // node-based map costs a dependent cache miss per channel, which at 64
  // subscribers is visible next to the O(1) pointer push the tentpole
  // promises. Kept in lockstep with subscribers_ under sub_mu_.
  std::vector<std::shared_ptr<SubscriberChannel>> fanout_order_;
  uint64_t next_subscriber_id_ = 1;
  std::atomic<uint64_t> subscriber_dropped_total_{0};
  std::atomic<uint64_t> quota_denied_total_{0};

  // The atomically swapped epoch pointer. Semantically this is
  // std::atomic<shared_ptr>, and libstdc++ implements that as exactly this
  // shape — a per-pointer spinlock held for the refcount bump — but its
  // GCC 12 _Sp_atomic::load unlocks with a *relaxed* fetch_sub, leaving the
  // reader's plain pointer read unordered against the next writer's plain
  // write (a real data-race per the model; TSan flags it). This slot is the
  // same construction with the orders right: both sides unlock with
  // release, both lock with acquire. Readers hold the flag only for a
  // shared_ptr copy — never for a render, a wait, or an allocation.
  class EpochSlot {
   public:
    PublishedPtr load() const {
      while (lock_.test_and_set(std::memory_order_acquire)) {
      }
      PublishedPtr copy = ptr_;
      lock_.clear(std::memory_order_release);
      return copy;
    }
    void store(PublishedPtr next) {
      // The displaced epoch is released outside the critical section: its
      // destructor (snapshot + rendered text) must not run under the flag.
      PublishedPtr old;
      while (lock_.test_and_set(std::memory_order_acquire)) {
      }
      old = std::move(ptr_);
      ptr_ = std::move(next);
      lock_.clear(std::memory_order_release);
    }

   private:
    mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
    PublishedPtr ptr_;
  };

  // Publication state — the RCU split. `published_` is the atomically
  // swapped immutable epoch every reader loads without blocking on the
  // publisher. pub_mu_ is
  // WRITER-side only: it serializes concurrent Ticks and guards version_
  // and the rate ring; no read path takes it. wait_mu_/wait_cv_ exist only
  // to park watchers: a waiter re-checks the atomic pointer under wait_mu_
  // before sleeping, and Tick notifies after the swap, so wakeups are never
  // lost and the publisher's critical section never includes a render read.
  EpochSlot published_;
  mutable std::mutex pub_mu_;  // writer-side only
  uint64_t version_ = 0;       // guarded by pub_mu_
  std::deque<RateEpoch> rate_ring_;  // guarded by pub_mu_
  std::atomic<uint64_t> last_tick_ns_{0};

  mutable std::mutex wait_mu_;
  std::condition_variable wait_cv_;

  // Optional background publisher.
  bool stop_ = false;  // guarded by wait_mu_
  std::thread publisher_;
};

}  // namespace xsec

#endif  // XSEC_SRC_SERVICES_STATS_SERVICE_H_
