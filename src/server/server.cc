#include "server/server.h"

#include <chrono>
#include <exception>
#include <new>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace vkg::server {

namespace {

// Global-registry handles for the serving counters (DESIGN.md §6e
// handle-caching idiom). The exact per-server numbers live in
// VkgServer's own atomics; these feed the exposition endpoints.
struct ServerMetrics {
  obs::Counter& requests;
  obs::Counter& rejected;
  obs::Counter& overload;
  obs::Counter& breaker_rejected;
  obs::Counter& shed;
  obs::Counter& expired_in_queue;
  obs::Counter& expired_waiting;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& coalesced;
  obs::Counter& computed;
  obs::Histogram& compute_us;
  obs::Histogram& e2e_us;
  obs::Histogram& queue_wait_us;
  obs::Gauge& peak_depth;
  obs::Gauge& memory_pressure;

  static ServerMetrics& Get() {
    static ServerMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new ServerMetrics{
          reg.GetCounter("vkg_server_requests_total"),
          reg.GetCounter("vkg_server_rejected_total"),
          reg.GetCounter("vkg_server_overload_rejected_total"),
          reg.GetCounter("vkg_server_breaker_rejected_total"),
          reg.GetCounter("vkg_server_shed_total"),
          reg.GetCounter("vkg_server_expired_in_queue_total"),
          reg.GetCounter("vkg_server_expired_waiting_total"),
          reg.GetCounter("vkg_server_cache_hits_total"),
          reg.GetCounter("vkg_server_cache_misses_total"),
          reg.GetCounter("vkg_server_coalesced_total"),
          reg.GetCounter("vkg_server_computed_total"),
          reg.GetHistogram("vkg_server_compute_us"),
          reg.GetHistogram("vkg_server_e2e_us"),
          reg.GetHistogram("vkg_server_queue_wait_us"),
          reg.GetGauge("vkg_server_peak_depth"),
          reg.GetGauge("vkg_server_memory_pressure")};
    }();
    return *metrics;
  }
};

query::ServerResponse MakeErrorResponse(util::Status status, size_t shard) {
  query::ServerResponse response;
  response.status = std::move(status);
  response.meta.shard = shard;
  return response;
}

double ElapsedUsSince(util::Deadline::Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             util::Deadline::Clock::now() - start)
      .count();
}

// The end-to-end deadline: stamped once at admission so queue wait
// burns the request's own budget.
util::Deadline AdmissionDeadline(const query::ServerRequest& request,
                                 double default_deadline_ms) {
  const double ms =
      request.deadline_ms > 0.0 ? request.deadline_ms : default_deadline_ms;
  return ms > 0.0 ? util::Deadline::AfterMillis(ms)
                  : util::Deadline::Infinite();
}

// One reusable context per worker thread: shard pools own their
// threads, so a context never serves two shards, and
// ApplyRequestControlAbsolute rearms deadline/budget per request.
query::QueryContext& WorkerContext() {
  thread_local query::QueryContext ctx;
  return ctx;
}

// Whether a compute outcome speaks to shard health (breaker failure) or
// not (success resets the streak; everything else is dismissed).
bool IsShardFailure(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInternal:
    case util::StatusCode::kResourceExhausted:
    case util::StatusCode::kIoError:
    case util::StatusCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

}  // namespace

util::Result<std::unique_ptr<VkgServer>> VkgServer::Create(
    std::shared_ptr<core::VirtualKnowledgeGraph> vkg,
    const ServerConfig& config) {
  if (vkg == nullptr) {
    return util::Status::InvalidArgument("vkg must not be null");
  }
  if (config.shards == 0) {
    return util::Status::InvalidArgument("shards must be >= 1");
  }
  return std::unique_ptr<VkgServer>(
      new VkgServer(std::move(vkg), config));
}

VkgServer::VkgServer(std::shared_ptr<core::VirtualKnowledgeGraph> vkg,
                     const ServerConfig& config)
    : vkg_(std::move(vkg)),
      config_(config),
      admission_(config.qps_limit, config.burst),
      memory_budget_(config.memory) {
  // Fingerprint every option that changes answers: results computed
  // under different engine settings must never share a cache slot.
  const core::VkgOptions& opts = vkg_->options();
  opts_hash_ = query::HashBytes(&opts.alpha, sizeof(opts.alpha));
  opts_hash_ = query::HashBytes(&opts.eps, sizeof(opts.eps), opts_hash_);
  opts_hash_ =
      query::HashBytes(&opts.jl_seed, sizeof(opts.jl_seed), opts_hash_);
  const auto method = static_cast<uint32_t>(opts.method);
  opts_hash_ = query::HashBytes(&method, sizeof(method), opts_hash_);

  pressure_budget_ = config_.pressure_budget;
  if (pressure_budget_.Unlimited()) {
    // "Forced into budgeted mode" must actually bound work even when the
    // operator never picked a number.
    pressure_budget_.max_points = 4096;
  }

  ShardOptions shard_options;
  shard_options.threads = config_.threads_per_shard;
  shard_options.queue_capacity = config_.queue_capacity;
  shard_options.cache_bytes =
      config_.cache_bytes == 0 ? 0 : config_.cache_bytes / config_.shards;
  // A nonzero total must not round down to disabled segments.
  if (config_.cache_bytes > 0 && shard_options.cache_bytes == 0) {
    shard_options.cache_bytes = 1;
  }
  shard_options.cache_entries = config_.cache_entries;
  shard_options.breaker = config_.breaker;
  cache_segment_bytes_ = shard_options.cache_bytes;
  shards_.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, shard_options));
  }
}

VkgServer::~VkgServer() { Stop(); }

size_t VkgServer::ShardOf(const data::Query& query) const {
  uint64_t h = query::HashBytes(&query.anchor, sizeof(query.anchor));
  h = query::HashBytes(&query.relation, sizeof(query.relation), h);
  return static_cast<size_t>(h % shards_.size());
}

uint64_t VkgServer::ShardGeneration(size_t /*shard*/) const {
  return Generation();
}

query::QueryKey VkgServer::MakeKey(
    const query::ServerRequest& request) const {
  const data::Query& q = request.routing_query();
  query::QueryKey key;
  key.anchor = q.anchor;
  key.relation = q.relation;
  key.direction = q.direction;
  key.k = static_cast<uint32_t>(request.k);
  key.opts_hash = opts_hash_;
  return key;
}

void Waiter::Resolve(query::ServerResponse response) {
  if (resolved_.exchange(true, std::memory_order_acq_rel)) return;
  // Moved out so its captures die with the call, not with the Waiter.
  Completion done = std::move(done_);
  done(std::move(response));
}

void Waiter::Expire(std::atomic<uint64_t>& expired_waiting) {
  if (resolved_.exchange(true, std::memory_order_acq_rel)) return;
  // The shared computation this follower attached to is still pending
  // past the follower's *own* deadline: resolve to a definitive bounded
  // answer now. The leader keeps computing on its own budget (and still
  // populates the cache for the next request).
  expired_waiting.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::Get().expired_waiting.Inc();
  query::ServerResponse response = MakeErrorResponse(
      util::Status::DeadlineExceeded(
          "coalesced result not ready by this request's deadline"),
      shard_);
  response.meta.coalesced = true;
  Completion done = std::move(done_);
  done(std::move(response));
}

query::ServerResponse VkgServer::Ticket::Get() {
  if (waiter_ != nullptr &&
      future_.wait_until(waiter_->deadline().at()) ==
          std::future_status::timeout) {
    // No-op when the leader's result won the race: it is being set.
    waiter_->Expire(*expired_waiting_);
  }
  return future_.get();
}

VkgServer::Ticket VkgServer::Submit(query::ServerRequest request) {
  auto promise = std::make_shared<std::promise<query::ServerResponse>>();
  Ticket ticket;
  ticket.future_ = promise->get_future().share();
  ticket.expired_waiting_ = expired_waiting_;
  auto done = [promise](query::ServerResponse response) {
    promise->set_value(std::move(response));
  };
  SubmitImpl(std::move(request), std::move(done), &ticket.waiter_);
  return ticket;
}

void VkgServer::Submit(query::ServerRequest request, Completion done) {
  SubmitImpl(std::move(request), std::move(done), nullptr);
}

void VkgServer::SubmitImpl(query::ServerRequest request, Completion done,
                           std::shared_ptr<Waiter>* bounded_follower) {
  ServerMetrics& metrics = ServerMetrics::Get();
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics.requests.Inc();
  const util::Deadline::Clock::time_point admit_time =
      util::Deadline::Clock::now();
  const util::Deadline deadline =
      AdmissionDeadline(request, config_.default_deadline_ms);

  // 0. Shutdown gate: a stopping server owes every caller a definitive
  // answer but no compute.
  if (stopping_.load(std::memory_order_relaxed)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    done(MakeErrorResponse(
        util::Status::Unavailable("server shutting down"), 0));
    return;
  }

  // 1. Admission: is this client allowed to consume compute at all?
  AdmissionController::Decision admit = admission_.Admit(request.client_id);
  if (!admit.admitted) {
    rejected_rate_.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected.Inc();
    query::ServerResponse response = MakeErrorResponse(
        util::Status::ResourceExhausted(util::StrFormat(
            "client \"%s\" over rate limit", request.client_id.c_str())),
        0);
    response.meta.retry_after_ms = admit.retry_after_ms;
    done(std::move(response));
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);

  // 2. Memory pressure: re-measure, apply transitions, shed the lowest
  // priority tier at the top rung (DESIGN.md §6h ladder).
  RefreshMemoryPressure();
  const PressureLevel pressure = memory_budget_.level();
  if (pressure == PressureLevel::kShedding && request.priority <= 0) {
    rejected_shed_.fetch_add(1, std::memory_order_relaxed);
    metrics.shed.Inc();
    query::ServerResponse response = MakeErrorResponse(
        util::Status::ResourceExhausted("shed under memory pressure"), 0);
    response.meta.retry_after_ms = config_.overload_retry_ms;
    done(std::move(response));
    return;
  }
  const bool pressure_degrade = pressure >= PressureLevel::kDegraded;

  // 3. Route to the owning shard, then validate against the graph.
  const size_t shard_index = ShardOf(request.routing_query());
  Shard& shard = *shards_[shard_index];
  util::Status valid =
      query::ValidateQuery(vkg_->graph(), request.routing_query());
  if (valid.ok() && request.kind == query::RequestKind::kTopK &&
      request.k == 0) {
    valid = util::Status::InvalidArgument("k must be >= 1");
  }
  if (!valid.ok()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    done(MakeErrorResponse(std::move(valid), shard_index));
    return;
  }

  // 4. Injected dispatch fault: isolated to this request (`delay`
  // stalls the submitting thread, modelling a slow router). Not a
  // shard-health signal — the shard never saw the request.
  if (VKG_FAILPOINT("server.shard_dispatch")) {
    done(MakeErrorResponse(
        util::Status::Internal("injected shard dispatch fault"),
        shard_index));
    return;
  }

  // 5. Backpressure: bounded shard depth, explicit rejection past it.
  if (!shard.TryReserveSlot()) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    metrics.overload.Inc();
    query::ServerResponse response = MakeErrorResponse(
        util::Status::ResourceExhausted(
            util::StrFormat("shard %zu queue full", shard_index)),
        shard_index);
    response.meta.retry_after_ms = config_.overload_retry_ms;
    done(std::move(response));
    return;
  }
  metrics.peak_depth.SetMax(static_cast<double>(shard.depth()));

  // 6. Circuit breaker: an Open shard fast-fails compute-bound work
  // with a retry hint instead of absorbing traffic it cannot serve.
  // Sits *after* the cache fast path below — cache hits need no shard
  // compute, so an Open shard keeps serving them. Every admitted
  // request owes the breaker exactly one outcome record.
  auto breaker_rejects = [&]() -> bool {
    CircuitBreaker::Admission breaker_admit = shard.breaker().Admit();
    if (breaker_admit.admitted) return false;
    shard.ReleaseSlot();
    rejected_breaker_.fetch_add(1, std::memory_order_relaxed);
    metrics.breaker_rejected.Inc();
    query::ServerResponse response = MakeErrorResponse(
        util::Status::ResourceExhausted(util::StrFormat(
            "shard %zu circuit breaker open", shard_index)),
        shard_index);
    response.meta.retry_after_ms = breaker_admit.retry_after_ms;
    done(std::move(response));
    return true;
  };

  if (request.kind == query::RequestKind::kAggregate) {
    // Aggregates skip cache and coalescing (estimator-dependent
    // payloads stay engine-agnostic; see DESIGN.md §6g).
    if (breaker_rejects()) return;
    Shard* shard_ptr = &shard;
    auto req = std::make_shared<query::ServerRequest>(std::move(request));
    shard.pool().Submit([this, shard_ptr, req, done = std::move(done),
                         deadline, admit_time, pressure_degrade] {
      done(ComputeOnWorker(*shard_ptr, *req, /*key=*/nullptr, deadline,
                           admit_time, pressure_degrade));
      shard_ptr->ReleaseSlot();
    });
    return;
  }

  const query::QueryKey key = MakeKey(request);

  // 7. Result cache, guarded by the VKG tree's crack generation. The
  // injected cache fault (`server.cache`) poisons exactly this
  // request's lookup.
  if (VKG_FAILPOINT("server.cache")) {
    shard.ReleaseSlot();
    done(MakeErrorResponse(util::Status::Internal("injected cache fault"),
                           shard_index));
    return;
  }
  if (!request.bypass_cache) {
    std::optional<ResultCache::Entry> hit =
        shard.cache().Lookup(key, Generation());
    if (hit.has_value()) {
      shard.ReleaseSlot();
      metrics.cache_hits.Inc();
      metrics.e2e_us.Observe(ElapsedUsSince(admit_time));
      query::ServerResponse response;
      response.status = util::Status::OK();
      response.topk = std::move(hit->result);
      response.meta.shard = shard_index;
      response.meta.cache_hit = true;
      response.meta.generation = hit->generation;
      done(std::move(response));
      return;
    }
    metrics.cache_misses.Inc();
  }

  // Cache miss: this request needs shard compute — ask the breaker.
  if (breaker_rejects()) return;

  // 8. Coalescing: identical in-flight computation? Attach, don't
  // recompute. Registration happens here on the submitting thread, so
  // a burst of duplicates collapses no matter how the shard's workers
  // are scheduled.
  auto waiter = std::make_shared<Waiter>(std::move(done), deadline,
                                         shard_index);
  if (!shard.JoinOrRegister(key, waiter)) {
    shard.ReleaseSlot();  // the leader's slot covers the computation
    shard.breaker().RecordDismissed();
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    metrics.coalesced.Inc();
    // Followers inherit the leader's result only while their own
    // deadline permits (DESIGN.md §6h): ExpireWaiting or Ticket::Get
    // resolves them at that deadline otherwise.
    if (!deadline.infinite()) {
      std::lock_guard<std::mutex> lock(waiting_mu_);
      std::erase_if(waiting_, [](const std::shared_ptr<Waiter>& w) {
        return w->resolved();
      });
      waiting_.push_back(waiter);
      waiting_count_.store(waiting_.size(), std::memory_order_release);
      if (bounded_follower != nullptr) *bounded_follower = waiter;
    }
    return;
  }

  // 9. Leader: run the computation on the owning shard's pool, then
  // resolve every follower (with its own serving metadata) and itself.
  Shard* shard_ptr = &shard;
  auto req = std::make_shared<query::ServerRequest>(std::move(request));
  shard.pool().Submit([this, shard_ptr, req, key, waiter, deadline,
                       admit_time, pressure_degrade] {
    query::ServerResponse response =
        ComputeOnWorker(*shard_ptr, *req, &key, deadline, admit_time,
                        pressure_degrade);
    // Unregister before resolving: a request arriving after this line
    // starts a fresh computation (and usually hits the cache instead).
    for (const std::shared_ptr<Waiter>& follower :
         shard_ptr->FinishInFlight(key)) {
      if (follower->resolved()) continue;  // expired while waiting
      query::ServerResponse copy = response;
      copy.meta.shard = follower->shard();
      copy.meta.coalesced = true;
      follower->Resolve(std::move(copy));
    }
    waiter->Resolve(std::move(response));
    shard_ptr->ReleaseSlot();
  });
}

query::ServerResponse VkgServer::ComputeOnWorker(
    Shard& shard, const query::ServerRequest& request,
    const query::QueryKey* key, util::Deadline deadline,
    util::Deadline::Clock::time_point admit_time, bool pressure_degrade) {
  ServerMetrics& metrics = ServerMetrics::Get();
  const double queue_wait_us = ElapsedUsSince(admit_time);
  metrics.queue_wait_us.Observe(queue_wait_us);
  shard.breaker().RecordQueueWait(queue_wait_us * 1e-3);

  query::ServerResponse response;
  response.meta.shard = shard.id();
  if (stopping_.load(std::memory_order_relaxed)) {
    // Queued behind Stop(): resolve definitively, never compute.
    response.status = util::Status::Unavailable("server shutting down");
    shard.breaker().RecordDismissed();
    metrics.e2e_us.Observe(ElapsedUsSince(admit_time));
    return response;
  }
  // Injected worker fault (`server.queue`): delay = slow shard, timeout
  // = slow shard whose compute then fails, fail = broken worker. Counts
  // against this shard's breaker — the whole point of the site.
  if (VKG_FAILPOINT("server.queue")) {
    response.status = util::Status::Internal("injected queue fault");
    shard.breaker().RecordFailure();
    metrics.e2e_us.Observe(ElapsedUsSince(admit_time));
    return response;
  }
  if (deadline.Expired()) {
    // The deadline burned away while the request sat in the queue:
    // failing it now is strictly better than computing a result nobody
    // is waiting for. Not a shard-health signal (the shard may simply
    // be behind a burst).
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    metrics.expired_in_queue.Inc();
    response.status =
        util::Status::DeadlineExceeded("deadline expired in shard queue");
    response.meta.expired_in_queue = true;
    shard.breaker().RecordDismissed();
    metrics.e2e_us.Observe(ElapsedUsSince(admit_time));
    return response;
  }

  try {
    obs::ScopedLatencyUs timer(metrics.compute_us);
    metrics.computed.Inc();
    query::QueryContext& ctx = WorkerContext();
    query::ApplyRequestControlAbsolute(request, deadline,
                                       config_.default_budget, ctx);
    // Memory pressure forces a budget only onto queries that would
    // otherwise run unlimited: an explicit request/server budget is
    // already bounded and is never loosened *or* tightened behind the
    // caller's back.
    if (pressure_degrade && ctx.control().budget().Unlimited()) {
      ctx.control().set_budget(pressure_budget_);
      response.meta.degraded_by_pressure = true;
    }
    // The engines are read per request: LoadIndex rebinds them.
    if (key != nullptr) {
      computed_topk_.fetch_add(1, std::memory_order_relaxed);
      response.topk =
          vkg_->topk_engine().TopKQuery(request.query, request.k, ctx);
      // Stamp with the generation current at completion. The query's
      // own crack (if any) published *before* this read, so the entry is
      // fresh unless a later publication bumps the generation — at
      // which point the invalidation contract retires it.
      response.meta.generation = Generation();
      response.status = util::Status::OK();
      shard.cache().Store(*key, response.topk, response.meta.generation);
    } else {
      computed_aggregate_.fetch_add(1, std::memory_order_relaxed);
      util::Result<query::AggregateResult> result =
          vkg_->aggregate_engine().Aggregate(request.aggregate, ctx);
      response.meta.generation = Generation();
      if (result.ok()) {
        response.aggregate = std::move(result).value();
        response.status = util::Status::OK();
      } else {
        response.status = result.status();
      }
    }
    SweepStaleCacheEntries();
  } catch (const std::bad_alloc&) {
    response.status = util::Status::ResourceExhausted(util::StrFormat(
        "allocation failed during %s",
        key != nullptr ? "top-k" : "aggregate"));
  } catch (const std::exception& e) {
    response.status = util::Status::Internal(
        util::StrFormat("%s computation failed: %s",
                        key != nullptr ? "top-k" : "aggregate", e.what()));
  }
  if (response.meta.degraded_by_pressure) {
    pressure_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (response.status.ok()) {
    shard.breaker().RecordSuccess();
  } else if (IsShardFailure(response.status)) {
    shard.breaker().RecordFailure();
  } else {
    shard.breaker().RecordDismissed();
  }
  metrics.e2e_us.Observe(ElapsedUsSince(admit_time));
  return response;
}

query::ServerResponse VkgServer::Execute(query::ServerRequest request) {
  return Submit(std::move(request)).Get();
}

void VkgServer::ExpireWaiting() {
  if (waiting_count_.load(std::memory_order_acquire) == 0) return;
  std::vector<std::shared_ptr<Waiter>> due;
  {
    std::lock_guard<std::mutex> lock(waiting_mu_);
    std::erase_if(waiting_, [&due](const std::shared_ptr<Waiter>& w) {
      if (w->resolved()) return true;
      if (!w->deadline().Expired()) return false;
      due.push_back(w);
      return true;
    });
    waiting_count_.store(waiting_.size(), std::memory_order_release);
  }
  // Completions run outside the lock: they may take their own.
  for (const std::shared_ptr<Waiter>& w : due) w->Expire(*expired_waiting_);
}

void VkgServer::Drain() {
  for (auto& shard : shards_) shard->pool().Wait();
}

void VkgServer::Stop() {
  // Idempotent flip; late Submits fast-fail, already-queued work
  // resolves with kUnavailable in ComputeOnWorker's stopping gate.
  stopping_.store(true, std::memory_order_relaxed);
  // Wait for the queues to empty: after this, every completion ever
  // submitted has run (workers ran each queued task, however briefly,
  // and a leader resolves its followers). Tasks racing past the
  // Submit-side gate are drained by ~ThreadPool, which runs its backlog
  // before joining — no completion is abandoned either way.
  Drain();
}

void VkgServer::SweepStaleCacheEntries() {
  const uint64_t current = Generation();
  uint64_t seen = swept_generation_.load(std::memory_order_relaxed);
  if (seen == current) return;
  // One sweeper per bump is enough; racers that lose simply skip (the
  // lazy Lookup check still guards every read). Any crack retires
  // every segment's stale entries.
  if (!swept_generation_.compare_exchange_strong(
          seen, current, std::memory_order_relaxed)) {
    return;
  }
  for (auto& shard : shards_) shard->cache().InvalidateStale(current);
}

void VkgServer::RefreshMemoryPressure() {
  if (config_.memory.budget_bytes == 0) return;
  size_t usage = 0;
  for (const auto& shard : shards_) {
    usage += shard->cache().stats().bytes;
    usage += shard->depth() * config_.pressure_request_bytes;
  }
  const PressureLevel level = memory_budget_.Update(usage);
  ServerMetrics::Get().memory_pressure.Set(static_cast<double>(level));
  if (level == applied_pressure_) return;
  std::lock_guard<std::mutex> lock(pressure_mu_);
  if (level == applied_pressure_) return;
  // Rung 1 (kElevated) action, reversible: shrink every cache segment;
  // restore the full bound once pressure clears. Rungs 2 and 3 act on
  // the request path (forced budgets, shedding) and need no state here.
  const bool shrink = level >= PressureLevel::kElevated;
  const bool was_shrunk = applied_pressure_ >= PressureLevel::kElevated;
  if (shrink != was_shrunk) {
    const size_t bound =
        shrink ? static_cast<size_t>(static_cast<double>(
                     cache_segment_bytes_) *
                 config_.pressure_cache_keep)
               : cache_segment_bytes_;
    for (auto& shard : shards_) shard->cache().SetByteBudget(bound);
  }
  applied_pressure_ = level;
}

ServerStats VkgServer::Stats() const {
  ServerStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected_rate = rejected_rate_.load(std::memory_order_relaxed);
  stats.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  stats.rejected_breaker =
      rejected_breaker_.load(std::memory_order_relaxed);
  stats.rejected_shed = rejected_shed_.load(std::memory_order_relaxed);
  stats.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  stats.invalid = invalid_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.computed_topk = computed_topk_.load(std::memory_order_relaxed);
  stats.computed_aggregate =
      computed_aggregate_.load(std::memory_order_relaxed);
  stats.expired_in_queue =
      expired_in_queue_.load(std::memory_order_relaxed);
  stats.expired_waiting =
      expired_waiting_->load(std::memory_order_relaxed);
  stats.pressure_degraded =
      pressure_degraded_.load(std::memory_order_relaxed);
  stats.generation = Generation();
  stats.memory = memory_budget_.stats();
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ServerStats::ShardView view;
    view.shard = shard->id();
    view.depth = shard->depth();
    view.peak_depth = shard->peak_depth();
    view.in_flight = shard->in_flight();
    view.cache = shard->cache().stats();
    view.breaker = shard->breaker().stats();
    stats.cache_hits += view.cache.hits;
    stats.cache_misses += view.cache.misses;
    stats.cache_invalidated += view.cache.invalidated;
    stats.shards.push_back(view);
  }
  return stats;
}

void VkgServer::PublishStats() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("vkg_server_shards").Set(static_cast<double>(shards_.size()));
  reg.GetGauge("vkg_server_memory_pressure")
      .Set(static_cast<double>(memory_budget_.level()));
  reg.GetGauge("vkg_server_generation")
      .Set(static_cast<double>(Generation()));
  uint64_t trips = 0;
  uint64_t recoveries = 0;
  uint64_t fast_fails = 0;
  double open_shards = 0.0;
  for (const auto& shard : shards_) {
    const size_t i = shard->id();
    const ResultCache::Stats cache = shard->cache().stats();
    const CircuitBreaker::Stats breaker = shard->breaker().stats();
    trips += breaker.trips;
    recoveries += breaker.recoveries;
    fast_fails += breaker.fast_fails;
    if (breaker.state != BreakerState::kClosed) open_shards += 1.0;
    reg.GetGauge(util::StrFormat("vkg_server_shard_%zu_depth", i))
        .Set(static_cast<double>(shard->depth()));
    reg.GetGauge(util::StrFormat("vkg_server_shard_%zu_peak_depth", i))
        .Set(static_cast<double>(shard->peak_depth()));
    reg.GetGauge(util::StrFormat("vkg_server_shard_%zu_cache_entries", i))
        .Set(static_cast<double>(cache.entries));
    reg.GetGauge(util::StrFormat("vkg_server_shard_%zu_cache_bytes", i))
        .Set(static_cast<double>(cache.bytes));
    reg.GetGauge(util::StrFormat("vkg_server_shard_%zu_breaker_state", i))
        .Set(static_cast<double>(breaker.state));
  }
  // Aggregate breaker mirror (vkg_server_breaker_*): what a dashboard
  // alert keys on, whichever shard tripped.
  reg.GetGauge("vkg_server_breaker_trips").Set(static_cast<double>(trips));
  reg.GetGauge("vkg_server_breaker_recoveries")
      .Set(static_cast<double>(recoveries));
  reg.GetGauge("vkg_server_breaker_fast_fails")
      .Set(static_cast<double>(fast_fails));
  reg.GetGauge("vkg_server_breaker_open_shards").Set(open_shards);
  // The per-worker query arenas (one per shard worker context) are
  // server-owned memory too; mirror their aggregates alongside.
  obs::PublishArenaStats();
}

}  // namespace vkg::server
