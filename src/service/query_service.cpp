#include "service/query_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "service/result_cache.hpp"
#include "util/error.hpp"

namespace remos::service {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

std::chrono::microseconds since(Clock::time_point from) {
  return std::chrono::microseconds(elapsed_us(from, Clock::now()));
}

double to_seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The staleness SLO: an answer from a snapshot older than the budget is
/// still served, flagged kStale.
QueryStatus freshness(Seconds age, Seconds staleness_budget) {
  return age > staleness_budget ? QueryStatus::kStale : QueryStatus::kAnswered;
}

void solve_batch(const core::Modeler& m, const core::FlowBatchQuery& batch,
                 FlowBatchResponse& out) {
  core::FlowBatchResult br = m.flow_info_batch(batch);
  out.results = std::move(br.results);
  out.errors = std::move(br.errors);
}

/// Sub-query `i` of an executed independent-mode batch, as the lone
/// flow_info response it equals: the batch's meta, and the sub-query's
/// result or its own error.
FlowInfoResponse sub_response(const FlowBatchResponse& batch, std::size_t i) {
  FlowInfoResponse r;
  r.meta = batch.meta;
  if (!r.meta.ok()) return r;
  if (!batch.errors[i].empty()) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = batch.errors[i];
  } else {
    r.result = batch.results[i];
  }
  return r;
}

}  // namespace

QueryService::QueryService(Options options)
    : options_(options),
      admission_({.budget = options.queue_capacity,
                  .reserved_fraction = options.reserved_fraction}) {
  if (options_.workers == 0)
    throw InvalidArgument("QueryService: zero workers");
  if (options_.default_deadline.count() <= 0)
    throw InvalidArgument("QueryService: non-positive default deadline");
  if (options_.staleness_slo < 0)
    throw InvalidArgument("QueryService: negative staleness SLO");
  if (options_.poll_interval.count() <= 0)
    throw InvalidArgument("QueryService: non-positive poll interval");
  if (options_.brownout_halflife < 0)
    throw InvalidArgument("QueryService: negative brownout half-life");
  if (options_.coalesce_window.count() < 0)
    throw InvalidArgument("QueryService: negative coalesce window");
  if (options_.adaptive)
    aimd_ = std::make_unique<AimdController>(options_.aimd,
                                             options_.default_deadline);
  graph_cache_ = std::make_unique<ResultCache<GraphResponse>>(
      ResultCache<GraphResponse>::Options{options_.cache_capacity});
  flow_cache_ = std::make_unique<ResultCache<FlowInfoResponse>>(
      ResultCache<FlowInfoResponse>::Options{options_.cache_capacity});
  batch_cache_ = std::make_unique<ResultCache<FlowBatchResponse>>(
      ResultCache<FlowBatchResponse>::Options{options_.cache_capacity});
}

QueryService::~QueryService() { stop(); }

int QueryService::register_tenant(const std::string& name, double weight) {
  return admission_.register_tenant(name, weight);
}

void QueryService::set_obs(const obs::Obs& o) {
  if (o.metrics) {
    for (int s = 0; s < obs::kQueryStatusCount; ++s)
      status_counters_[static_cast<std::size_t>(s)] = o.metrics->counter(
          "remos_service_queries_total",
          {{"status", obs::to_string(static_cast<QueryStatus>(s))}},
          "Query outcomes by client-visible status");
    submitted_counter_ =
        o.metrics->counter("remos_service_queries_submitted_total", {},
                           "Queries offered to admission control");
    polls_counter_ = o.metrics->counter(
        "remos_service_polls_total", {}, "Background poll steps executed");
    queue_depth_gauge_ = o.metrics->gauge(
        "remos_service_queue_depth", {}, "Jobs enqueued awaiting a worker");
    snapshot_version_gauge_ =
        o.metrics->gauge("remos_service_snapshot_version", {},
                         "Version of the current published snapshot");
    snapshot_age_gauge_ = o.metrics->gauge(
        "remos_service_snapshot_age_seconds", {},
        "Model-clock age of the snapshot at the last answer");
    latency_ = o.metrics->histogram(
        "remos_service_latency_seconds", obs::default_time_buckets(), {},
        "Wall-clock submission-to-response latency of executed queries");
    deadline_slack_ = o.metrics->histogram(
        "remos_service_deadline_slack_seconds", obs::default_time_buckets(),
        {}, "Wall-clock budget remaining when the answer landed");
    cache_hit_counter_ = o.metrics->counter(
        "remos_service_cache_hits_total", {},
        "Fresh result-cache hits (current snapshot version)");
    cache_miss_counter_ = o.metrics->counter(
        "remos_service_cache_misses_total", {},
        "Cacheable queries with no fresh result-cache hit");
    coalesced_batches_counter_ = o.metrics->counter(
        "remos_service_coalesced_batches_total", {},
        "Coalescing-window flushes answered by one batch solve");
    coalesced_queries_counter_ = o.metrics->counter(
        "remos_service_coalesced_queries_total", {},
        "Single flow_info queries folded into coalesced batch solves");
    brownout_counter_ = o.metrics->counter(
        "remos_service_brownouts_total", {},
        "Queries answered from the cache with kDegraded instead of shed");
    budget_gauge_ = o.metrics->gauge(
        "remos_service_admission_budget", {},
        "Current global admission budget (AIMD-resized when adaptive)");
    budget_gauge_.set(static_cast<double>(admission_.capacity()));
    const std::size_t tenants = admission_.tenant_count();
    tenant_admitted_counters_.clear();
    tenant_shed_counters_.clear();
    for (std::size_t t = 0; t < tenants; ++t) {
      const auto ts = admission_.tenant_stats(static_cast<int>(t));
      tenant_admitted_counters_.push_back(o.metrics->counter(
          "remos_service_tenant_admitted_total", {{"tenant", ts.name}},
          "Queries admitted, by tenant"));
      tenant_shed_counters_.push_back(o.metrics->counter(
          "remos_service_tenant_shed_total", {{"tenant", ts.name}},
          "Queries shed at admission, by tenant"));
    }
    modeler_obs_ = core::ModelerObs::resolve(o);
  }
  if (o.series) {
    for (int s = 0; s < obs::kQueryStatusCount; ++s)
      latency_series_[static_cast<std::size_t>(s)] = &o.series->series(
          std::string("service.latency_ms.") +
          obs::to_string(static_cast<QueryStatus>(s)));
    shed_series_ = &o.series->series("service.shed");
    staleness_series_ = &o.series->series("service.staleness");
  }
  recorder_ = o.recorder;
}

void QueryService::start() { start(std::function<void()>{}); }

void QueryService::start(std::function<void()> poll_step) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_) throw Error("QueryService: already started");
    started_ = true;
    stopping_ = false;
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (poll_step)
    poller_ = std::thread(
        [this, step = std::move(poll_step)] { poller_loop(step); });
}

void QueryService::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  stop_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  // Jobs still queued complete inline; their clients (if any are still
  // waiting) get real answers, and abandoned ones are skipped.
  std::deque<std::function<void()>> rest;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    rest.swap(queue_);
    started_ = false;
  }
  for (auto& job : rest) {
    queue_depth_gauge_.add(-1.0);
    job();
  }
}

void QueryService::publish(collector::NetworkModel model, Seconds model_now) {
  store_.publish(std::move(model), model_now);
  note_model_now(model_now);
  snapshot_version_gauge_.set(static_cast<double>(store_.version()));
  if (recorder_)
    recorder_->record(obs::EventSeverity::kInfo, "service",
                      "snapshot_publish",
                      "version " + std::to_string(store_.version()),
                      model_now);
}

void QueryService::note_model_now(Seconds model_now) {
  double cur = model_now_.load(std::memory_order_relaxed);
  while (model_now > cur &&
         !model_now_.compare_exchange_weak(cur, model_now,
                                           std::memory_order_acq_rel)) {
  }
}

void QueryService::count_outcome(QueryStatus status) {
  status_counters_[static_cast<std::size_t>(status)].inc();
  switch (status) {
    case QueryStatus::kAnswered:
      answered_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::kStale:
      stale_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::kExpired:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::kError:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void QueryService::count_tenant(int tenant, bool admitted) {
  auto& counters =
      admitted ? tenant_admitted_counters_ : tenant_shed_counters_;
  const std::size_t i = static_cast<std::size_t>(tenant);
  if (tenant >= 0 && i < counters.size()) counters[i].inc();
}

void QueryService::note_shed(bool shed) {
  // Edge-triggered: the recorder logs shed *episodes*, not every shed
  // query -- an overload burst is one event in, one event out.
  if (shedding_.exchange(shed, std::memory_order_relaxed) == shed) return;
  if (recorder_)
    recorder_->record(shed ? obs::EventSeverity::kWarn
                           : obs::EventSeverity::kInfo,
                      "service",
                      shed ? "shed_episode_begin" : "shed_episode_end",
                      shed ? "admission queue full; shedding"
                           : "admission recovered");
}

template <typename Response>
bool QueryService::should_solve(Pending<Response>& state) {
  if (state.abandoned.load(std::memory_order_acquire)) {
    // The caller already returned kExpired; skip the work entirely.
    admission_.release(state.tenant);
    return false;
  }
  if (Clock::now() < state.deadline) return true;
  Response expired;
  expired.meta.status = QueryStatus::kExpired;
  finish(state, std::move(expired));
  return false;
}

template <typename Response>
void QueryService::finish(Pending<Response>& state, Response r) {
  const auto done = Clock::now();
  const std::uint64_t us = elapsed_us(state.enqueued, done);
  r.meta.latency = std::chrono::microseconds(us);
  latency_.observe(static_cast<double>(us) * 1e-6);
  if (obs::TimeSeries* ts =
          latency_series_[static_cast<std::size_t>(r.meta.status)])
    ts->append(model_now(), static_cast<double>(us) * 1e-3);
  deadline_slack_.observe(std::max(0.0, to_seconds(state.deadline - done)));
  admission_.release(state.tenant);
  if (aimd_ && aimd_->on_complete(std::chrono::microseconds(us), admission_))
    budget_gauge_.set(static_cast<double>(admission_.capacity()));
  state.promise.set_value(std::move(r));
}

template <typename Response, typename Fn>
Response QueryService::answer(Seconds staleness_budget, bool trace,
                              std::chrono::steady_clock::time_point enqueued,
                              Fn&& query_fn) {
  Response r;
  // Epoch = submission, so the "admission" span (queue wait) lines up
  // with the worker-side spans in one tree.
  obs::TraceBuilder tb(enqueued);
  obs::TraceBuilder* tbp = trace ? &tb : nullptr;
  if (tbp) tb.add_complete("admission", 0, elapsed_us(enqueued, Clock::now()));

  SnapshotStore::Ptr snap;
  {
    obs::TraceBuilder::Scoped span(tbp, "snapshot_pickup");
    snap = store_.current();
  }
  if (!snap) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = "no snapshot published yet";
    if (tbp) r.meta.trace = tb.take();
    return r;
  }
  const Seconds now = model_now();
  const Seconds age = std::max(0.0, now - snap->taken_at);
  r.meta.snapshot_version = snap->version;
  r.meta.snapshot_age = age;
  snapshot_age_gauge_.set(age);
  if (staleness_series_) staleness_series_->append(now, age);
  // A fresh Modeler over the immutable snapshot: const queries, no
  // shared mutable state, nothing to lock.  The clock is pinned to the
  // model time observed at answer time, so accuracy keeps decaying
  // (PR 1) as the snapshot ages past its publication.  Metric handles
  // were pre-resolved at set_obs time; the trace builder (if any) is
  // owned by this one query.
  core::Modeler modeler(snap->model);
  modeler.set_clock([now] { return now; });
  modeler.set_obs(&modeler_obs_);
  modeler.set_trace(tbp);
  try {
    obs::TraceBuilder::Scoped span(tbp, "solve");
    query_fn(modeler, r);
    r.meta.status = freshness(age, staleness_budget);
  } catch (const std::exception& e) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = e.what();
  } catch (...) {
    r.meta.status = QueryStatus::kError;
    r.meta.error = "unknown error";
  }
  if (tbp) r.meta.trace = tb.take();
  return r;
}

template <typename Response>
std::optional<Response> QueryService::cache_fresh_hit(
    ResultCache<Response>* cache, const std::string& key, Seconds slo) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_counter_.inc();
  if (key.empty()) return std::nullopt;
  auto hit = cache->find(key);
  if (!hit || hit->version != store_.version()) {
    cache_miss_counter_.inc();
    return std::nullopt;
  }
  Response r = std::move(hit->response);
  const Seconds age = std::max(0.0, model_now() - hit->taken_at);
  r.meta.status = freshness(age, slo);
  r.meta.snapshot_version = hit->version;
  r.meta.snapshot_age = age;
  r.meta.from_cache = true;
  r.meta.error.clear();
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  cache_hit_counter_.inc();
  count_outcome(r.meta.status);
  return r;
}

template <typename Response>
std::optional<Response> QueryService::cache_brownout(
    ResultCache<Response>* cache, const std::string& key) {
  if (key.empty()) return std::nullopt;
  auto hit = cache->find(key);
  if (!hit) return std::nullopt;
  Response r = std::move(hit->response);
  const Seconds age = std::max(0.0, model_now() - hit->taken_at);
  const double factor = options_.brownout_halflife > 0
                            ? std::exp2(-age / options_.brownout_halflife)
                            : 1.0;
  discount_accuracy(r, factor);
  r.meta.status = QueryStatus::kDegraded;
  r.meta.snapshot_version = hit->version;
  r.meta.snapshot_age = age;
  r.meta.from_cache = true;
  r.meta.error.clear();
  return r;
}

template <typename Response>
void QueryService::cache_store(ResultCache<Response>* cache,
                               const std::string& key,
                               const Response& response) {
  // Only executed payload-bearing answers are cacheable; kDegraded came
  // *from* the cache, and errors/sheds carry no payload.
  if (key.empty()) return;
  if (response.meta.status != QueryStatus::kAnswered &&
      response.meta.status != QueryStatus::kStale)
    return;
  SnapshotStore::Pin pin = store_.acquire(response.meta.snapshot_version);
  if (!pin) return;  // version already beyond the store's retention
  // Read through the pin before handing it to insert(): the by-value Pin
  // argument is move-constructed at an unspecified point relative to its
  // sibling arguments.
  const Seconds taken_at = pin->taken_at;
  cache->insert(key, response, response.meta.snapshot_version, taken_at,
                std::move(pin));
}

template <typename Response, typename Query, typename Solve>
Response QueryService::submit(Query query, ResultCache<Response>* cache,
                              Solve solve) {
  // Stamped on arrival: the deadline, and a coalescing window this query
  // opens, count from here.
  const auto enqueued = Clock::now();
  const Seconds slo = query.max_staleness.value_or(options_.staleness_slo);
  // Traced queries bypass the cache: the caller asked to watch this very
  // query execute, and a cached answer has no span tree to give.
  std::string key = cache->enabled() && !query.trace ? canonical_key(query)
                                                     : std::string{};
  if (std::optional<Response> hit = cache_fresh_hit(cache, key, slo))
    return std::move(*hit);

  Response r;
  if (!admission_.try_acquire(query.tenant)) {
    count_tenant(query.tenant, false);
    if (shed_series_) shed_series_->append(model_now(), 1.0);
    note_shed(true);
    // Brownout rung: a cached answer with discounted accuracy beats a
    // shed -- but it is always labelled kDegraded, never fresh.
    if (std::optional<Response> cached = cache_brownout(cache, key)) {
      r = std::move(*cached);
      brownout_counter_.inc();
    } else {
      r.meta.status = QueryStatus::kOverloaded;
    }
    r.meta.latency = since(enqueued);
    count_outcome(r.meta.status);
    return r;
  }
  count_tenant(query.tenant, true);
  if (shed_series_) shed_series_->append(model_now(), 0.0);
  note_shed(false);

  auto state = std::make_shared<Pending<Response>>();
  state->enqueued = enqueued;
  state->deadline =
      enqueued + query.deadline.value_or(options_.default_deadline);
  state->tenant = query.tenant;
  std::future<Response> fut = state->promise.get_future();

  const bool dispatched = [&] {
    if constexpr (std::is_same_v<Query, FlowInfoQuery>) {
      // Traced queries keep a job of their own: the span tree narrates
      // THIS query's solve, which a shared batch solve cannot attribute.
      if (options_.coalesce_window.count() > 0 && !query.trace)
        return park({std::move(query.query), slo, std::move(key), state});
    }
    return enqueue([this, state, q = std::move(query), slo,
                    key = std::move(key), cache, solve = std::move(solve)] {
      if (!should_solve(*state)) return;
      Response out = answer<Response>(
          slo, q.trace, state->enqueued,
          [&](const core::Modeler& m, Response& o) { solve(m, q, o); });
      cache_store(cache, key, out);
      if constexpr (std::is_same_v<Query, FlowBatchInfoQuery>) {
        // Independent-mode sub-answers are exactly what the lone query
        // would have produced, so warm the single-query fingerprints
        // too: a later flow_info for any sub-query is an O(1) fresh hit.
        if (out.meta.ok() && !q.trace &&
            q.batch.mode == core::FlowBatchQuery::Mode::kIndependent &&
            flow_cache_->enabled()) {
          for (std::size_t i = 0; i < q.batch.queries.size(); ++i) {
            FlowInfoQuery single;
            single.query = q.batch.queries[i];
            cache_store(flow_cache_.get(), canonical_key(single),
                        sub_response(out, i));
          }
        }
      }
      finish(*state, std::move(out));
    });
  }();
  if (!dispatched) {
    admission_.release(state->tenant);
    r.meta.status = QueryStatus::kError;
    r.meta.error = "service stopped";
    count_outcome(r.meta.status);
    return r;
  }

  if (fut.wait_until(state->deadline) == std::future_status::ready) {
    r = fut.get();
    count_outcome(r.meta.status);
    return r;
  }
  state->abandoned.store(true, std::memory_order_release);
  r.meta.status = QueryStatus::kExpired;
  r.meta.latency = since(enqueued);
  count_outcome(r.meta.status);
  return r;
}

bool QueryService::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) return false;
    queue_.push_back(std::move(job));
    queue_depth_gauge_.add(1.0);
  }
  queue_cv_.notify_one();
  return true;
}

bool QueryService::park(CoalesceEntry entry) {
  std::lock_guard<std::mutex> lk(coalesce_mutex_);
  if (!coalesce_scheduled_) {
    // The first parker enqueues ONE flush job for the whole window.
    if (!enqueue([this] { flush_coalesced(); })) return false;
    coalesce_scheduled_ = true;
    coalesce_first_ = entry.state->enqueued;
  }
  coalesce_buf_.push_back(std::move(entry));
  if (coalesce_buf_.size() >= kCoalesceMaxBatch) coalesce_cv_.notify_one();
  return true;
}

void QueryService::flush_coalesced() {
  std::vector<CoalesceEntry> bundle;
  {
    std::unique_lock<std::mutex> lk(coalesce_mutex_);
    // Hold the window open from the FIRST arrival, flushing early once
    // the bundle is full.  Later arrivals keep joining until the swap.
    coalesce_cv_.wait_until(
        lk, coalesce_first_ + options_.coalesce_window,
        [this] { return coalesce_buf_.size() >= kCoalesceMaxBatch; });
    bundle.swap(coalesce_buf_);
    coalesce_scheduled_ = false;
  }
  // Per-query deadlines survive the window: each entry gets the same
  // pre-solve check a lone query's job gives it.
  std::erase_if(bundle,
                [this](CoalesceEntry& e) { return !should_solve(*e.state); });
  if (bundle.empty()) return;

  // ONE snapshot, ONE Modeler, ONE independent-mode batch solve for the
  // whole bundle: answers are bit-for-bit what each lone call would have
  // produced against this same snapshot.  Staleness is judged per entry.
  const FlowBatchResponse batch = answer<FlowBatchResponse>(
      std::numeric_limits<Seconds>::infinity(), false,
      bundle.front().state->enqueued,
      [this, &bundle](const core::Modeler& m, FlowBatchResponse& out) {
        core::FlowBatchQuery q;
        q.mode = core::FlowBatchQuery::Mode::kIndependent;
        q.queries.reserve(bundle.size());
        for (CoalesceEntry& e : bundle)
          q.queries.push_back(std::move(e.query));
        coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
        coalesced_batches_counter_.inc();
        coalesced_queries_.fetch_add(bundle.size(),
                                     std::memory_order_relaxed);
        coalesced_queries_counter_.inc(bundle.size());
        solve_batch(m, q, out);
      });
  for (std::size_t i = 0; i < bundle.size(); ++i) {
    CoalesceEntry& e = bundle[i];
    FlowInfoResponse r = sub_response(batch, i);
    if (r.meta.ok()) {
      r.meta.status = freshness(r.meta.snapshot_age, e.slo);
      cache_store(flow_cache_.get(), e.cache_key, r);
    }
    finish(*e.state, std::move(r));
  }
}

GraphResponse QueryService::get_graph(GraphQuery query) {
  return submit<GraphResponse>(
      std::move(query), graph_cache_.get(),
      [](const core::Modeler& m, const GraphQuery& q, GraphResponse& out) {
        core::GraphResult gr =
            m.get_graph_result(q.nodes, q.timeframe, q.options);
        out.graph = std::move(gr.graph);
        out.graph_status = gr.status;
        out.unknown_nodes = std::move(gr.unknown_nodes);
        // A structurally invalid query is still a service-level error;
        // partial/unresolved topologies are answers.
        if (gr.status == obs::GraphStatus::kInvalid)
          throw InvalidArgument(gr.error);
      });
}

FlowInfoResponse QueryService::flow_info(FlowInfoQuery query) {
  return submit<FlowInfoResponse>(
      std::move(query), flow_cache_.get(),
      [](const core::Modeler& m, const FlowInfoQuery& q,
         FlowInfoResponse& out) { out.result = m.flow_info(q.query); });
}

FlowBatchResponse QueryService::flow_info_batch(FlowBatchInfoQuery query) {
  batch_queries_.fetch_add(1, std::memory_order_relaxed);
  // The whole batch is ONE admission unit: one tenant slot, one queue
  // entry, one solve -- that is the amortization the batch API sells.
  return submit<FlowBatchResponse>(
      std::move(query), batch_cache_.get(),
      [](const core::Modeler& m, const FlowBatchInfoQuery& q,
         FlowBatchResponse& out) { solve_batch(m, q.batch, out); });
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.answered = answered_.load(std::memory_order_relaxed);
  s.stale = stale_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.polls = polls_.load(std::memory_order_relaxed);
  s.snapshot_version = store_.version();
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  s.coalesced_queries = coalesced_queries_.load(std::memory_order_relaxed);
  s.admission_budget = admission_.capacity();
  s.in_flight_high_water = admission_.high_water();
  s.p50_us = static_cast<std::uint64_t>(latency_.quantile(0.50) * 1e6);
  s.p99_us = static_cast<std::uint64_t>(latency_.quantile(0.99) * 1e6);
  return s;
}

void QueryService::worker_loop() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_gauge_.add(-1.0);
    job();
  }
}

void QueryService::poller_loop(std::function<void()> poll_step) {
  while (true) {
    poll_step();
    polls_.fetch_add(1, std::memory_order_relaxed);
    polls_counter_.inc();
    std::unique_lock<std::mutex> lk(mutex_);
    if (stop_cv_.wait_for(lk, options_.poll_interval,
                          [this] { return stopping_; }))
      return;
  }
}

}  // namespace remos::service
