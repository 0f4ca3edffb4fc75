#include "src/monitor/mediation_ring.h"

#include <chrono>

#include "src/base/failpoint.h"
#include "src/base/strings.h"

namespace xsec {

MediationRing::MediationRing(ReferenceMonitor* monitor, MediationRingOptions options)
    : monitor_(monitor), options_(options) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
  if (options_.batch_max == 0) {
    options_.batch_max = 1;
  }
  if (options_.completion_capacity == 0) {
    options_.completion_capacity = 1;
  }
  shards_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
    // Per-shard stall site so tests and benches can wedge one worker and
    // watch the others keep serving (the macros cache one name per call
    // site, so the registry is consulted directly here, once).
    shards_[s]->stall_point = FailpointRegistry::Instance().GetOrCreate(
        StrFormat("ring.worker.%zu.batch", s));
  }
  for (size_t s = 0; s < options_.shards; ++s) {
    Shard* shard = shards_[s].get();
    shard->worker = std::thread([this, shard] { WorkerLoop(shard); });
  }
}

MediationRing::~MediationRing() {
  for (auto& shard : shards_) {
    shard->ring.Stop();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

std::unique_ptr<MediationRing::Client> MediationRing::NewClient() {
  size_t shard = next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  // Not make_unique: the constructor is private to this friend.
  return std::unique_ptr<Client>(new Client(this, shard, options_.completion_capacity));
}

MediationRing::Client::~Client() {
  // Wait out in-flight work: the worker's completion post (under mu_) is
  // its final touch of this client, so once posted_ has caught up with
  // submitted_ no thread can reach these members again.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return posted_.load(std::memory_order_acquire) >=
           submitted_.load(std::memory_order_acquire);
  });
}

StatusOr<uint64_t> MediationRing::SubmitCheck(Client& client, const Subject& subject,
                                              NodeId node, AccessModeSet modes) {
  return Submit(client, subject, node, modes, nullptr);
}

StatusOr<uint64_t> MediationRing::SubmitInvoke(Client& client, const Subject& subject,
                                               NodeId node, InvokeFn fn) {
  return Submit(client, subject, node, AccessModeSet(AccessMode::kExecute), std::move(fn));
}

StatusOr<uint64_t> MediationRing::Submit(Client& client, const Subject& subject, NodeId node,
                                         AccessModeSet modes, InvokeFn fn) {
  XSEC_FAILPOINT("ring.submit");
  // Supervision gate first, before ANY credit is touched: a quarantined
  // target must fail fast without consuming transport capacity.
  if (options_.admission_gate) {
    Status gated = options_.admission_gate(subject, node);
    if (!gated.ok()) {
      gate_rejections_.fetch_add(1, std::memory_order_relaxed);
      return gated;
    }
  }
  // Shard-affinity and the cross-shard gate both key on the target node's
  // monitor shard, resolved once here (a lock-free array read).
  ShardId node_shard = monitor_->DomainOf(node);
  if (options_.grants != nullptr && IsConcreteShard(node_shard) &&
      ShardOfPrincipal(subject.principal.value) != node_shard) {
    // Cross-shard invocation: the subject's home shard differs from the
    // node's, so the submission needs an explicit grant (or transfer) in
    // the target shard. Rejection is pre-batch and consumes no credits.
    if (!options_.grants->Admit(subject.principal, node, node_shard)) {
      grant_rejections_.fetch_add(1, std::memory_order_relaxed);
      return PermissionDeniedError("cross-shard submission without a grant");
    }
  }
  size_t target_shard = client.shard_;
  if (options_.route_by_monitor_shard && IsConcreteShard(node_shard)) {
    target_shard = node_shard % shards_.size();
  }
  // Completion-credit gate first: reserving at submit time is what lets the
  // worker always post without blocking — a caller that stops draining
  // starves only itself.
  int64_t credit = client.credits_.load(std::memory_order_relaxed);
  for (;;) {
    if (credit <= 0) {
      client.credit_rejections_.fetch_add(1, std::memory_order_relaxed);
      completion_stalls_.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhaustedError(
          "mediation completion queue full (caller not draining)");
    }
    if (client.credits_.compare_exchange_weak(credit, credit - 1, std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      break;
    }
  }
  uint64_t ticket = client.next_ticket_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  request.client = &client;
  request.ticket = ticket;
  request.subject = subject;
  request.node = node;
  request.modes = modes;
  request.invoke = std::move(fn);
  // submitted_ goes up BEFORE the push so posted_ can never overtake it
  // (the destructor's wait condition); a rejected push undoes it.
  client.submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!shards_[target_shard]->ring.TryPush(std::move(request))) {
    client.submitted_.fetch_sub(1, std::memory_order_relaxed);
    client.credits_.fetch_add(1, std::memory_order_relaxed);
    return ResourceExhaustedError("mediation ring full (worker backlogged)");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

StatusOr<MediationRing::Completion> MediationRing::Wait(Client& client, uint64_t ticket,
                                                        const CallOptions& options) {
  std::unique_lock<std::mutex> lock(client.mu_);
  for (;;) {
    for (auto it = client.ready_.begin(); it != client.ready_.end(); ++it) {
      if (it->ticket == ticket) {
        Completion completion = std::move(*it);
        client.ready_.erase(it);
        client.credits_.fetch_add(1, std::memory_order_relaxed);
        return completion;
      }
    }
    // CallContext contract: cancellation wins over an expired deadline.
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      return CancelledError("mediation wait cancelled");
    }
    uint64_t now = MonotonicNowNs();
    if (options.deadline_ns != 0 && now >= options.deadline_ns) {
      return DeadlineExceededError("mediation completion wait deadline exceeded");
    }
    if (options.cancel == nullptr && options.deadline_ns == 0) {
      client.cv_.wait(lock);
      continue;
    }
    uint64_t wait_ns = options_.cancel_poll_interval_ns != 0
                           ? options_.cancel_poll_interval_ns
                           : uint64_t{5'000'000};
    if (options.deadline_ns != 0 && options.deadline_ns - now < wait_ns) {
      wait_ns = options.deadline_ns - now;
    }
    client.cv_.wait_for(lock, std::chrono::nanoseconds(wait_ns));
  }
}

void MediationRing::Post(Client* client, Completion completion) {
  {
    std::lock_guard<std::mutex> lock(client->mu_);
    client->ready_.push_back(std::move(completion));
    client->posted_.fetch_add(1, std::memory_order_release);
    client->cv_.notify_all();
  }
}

void MediationRing::WorkerLoop(Shard* shard) {
  std::vector<Request> batch;
  std::vector<ReferenceMonitor::BatchCheckRequest> checks;
  std::vector<Decision> decisions;
  for (;;) {
    batch.clear();
    size_t n = shard->ring.DrainBatch(&batch, options_.batch_max);
    if (n == 0) {
      return;  // stopped, fully drained
    }
    // Heartbeat: stamp-then-busy at the batch's start, so the watchdog's
    // "busy for longer than stuck_after" reading always measures THIS
    // batch's age, never a stale stamp from an idle period.
    shard->heartbeat_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
    shard->busy.store(true, std::memory_order_release);
    // Stall-injection site (arm "ring.worker.<shard>.batch" with sleep=...):
    // the sleep happens with the batch's credits held, which is exactly how
    // a genuinely stuck consumer starves its shard of admissions.
    if (shard->stall_point->armed()) {
      (void)shard->stall_point->Evaluate();
    }
    checks.clear();
    checks.reserve(n);
    for (const Request& request : batch) {
      checks.push_back(ReferenceMonitor::BatchCheckRequest{request.subject, request.node,
                                                           request.modes});
    }
    decisions.assign(n, Decision{});
    monitor_->CheckBatch(checks.data(), n, decisions.data());
    // Counted before posting so that by the time any waiter observes a
    // completion, completed() already covers it.
    completed_.fetch_add(n, std::memory_order_relaxed);
    // Pass 1: build every completion — including running invoke() — with no
    // client lock held, so a slow invoked body never extends a lock hold.
    std::vector<Completion> completions(n);
    for (size_t i = 0; i < n; ++i) {
      completions[i].ticket = batch[i].ticket;
      completions[i].decision = decisions[i];
      if (batch[i].invoke) {
        completions[i].invoke_status =
            decisions[i].allowed ? batch[i].invoke() : decisions[i].ToStatus();
      }
    }
    // The batch's work is done: end it before any waiter can see a result,
    // so a waiter that has its completion never finds this batch still in
    // flight (the next watchdog scan after a wedged batch completes reads
    // the shard idle).
    shard->batches.fetch_add(1, std::memory_order_relaxed);
    shard->heartbeat_ns.store(MonotonicNowNs(), std::memory_order_relaxed);
    shard->busy.store(false, std::memory_order_release);
    // Pass 2: flush results per client run. Batches drained from one shard
    // are usually dominated by a few hot submitters, so posting each
    // consecutive same-client run under ONE lock acquisition with ONE
    // notify_all replaces per-completion lock/notify churn — the batch
    // stats-flush analogue of the monitor's batched check above.
    for (size_t i = 0; i < n;) {
      Client* client = batch[i].client;
      size_t j = i;
      while (j < n && batch[j].client == client) {
        ++j;
      }
      {
        std::lock_guard<std::mutex> lock(client->mu_);
        for (size_t k = i; k < j; ++k) {
          client->ready_.push_back(std::move(completions[k]));
        }
        client->posted_.fetch_add(j - i, std::memory_order_release);
        client->cv_.notify_all();
      }
      i = j;
    }
    // Credits return only now, after every result is posted: the pool
    // bounds work in flight, so a worker stuck above starves admissions
    // instead of letting the queue churn.
    shard->ring.ReleaseCredits(n);
  }
}

MediationRing::ShardHealth MediationRing::shard_health(size_t shard) const {
  ShardHealth health;
  if (shard >= shards_.size()) {
    return health;
  }
  const Shard& s = *shards_[shard];
  // busy (acquire) before the heartbeat: if we observe busy==true the stamp
  // we read is the running batch's start stamp or newer, so the computed age
  // can overstate a wedge only transiently, never fabricate one for an idle
  // shard.
  health.busy = s.busy.load(std::memory_order_acquire);
  health.heartbeat_ns = s.heartbeat_ns.load(std::memory_order_relaxed);
  health.batches = s.batches.load(std::memory_order_relaxed);
  return health;
}

size_t MediationRing::depth() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ring.depth();
  }
  return total;
}

uint64_t MediationRing::batches() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->batches.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t MediationRing::stalls() const {
  uint64_t total = completion_stalls_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    total += shard->ring.rejected();
  }
  return total;
}

}  // namespace xsec
