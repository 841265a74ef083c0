// Concurrent Remos query service (the serving layer in front of the
// Modeler).
//
// The paper positions the Modeler as a long-lived session many
// network-aware applications query concurrently (§3, §5), but the Modeler
// itself is a single-threaded library: a query issued mid-poll would
// observe torn collector state.  The QueryService is the serving skeleton
// that makes concurrent use safe and bounded:
//
//   poller thread ──> publishes immutable versioned ModelSnapshots
//                     (SnapshotStore: pointer swap under a tiny spinlock)
//   client threads ─> admission control (bounded in-flight count)
//                     ──> work queue ──> worker pool answers against the
//                     snapshot current at execution time
//
// get_graph, flow_info and flow_info_batch take one request path: fresh
// cache hit, admission (brownout when it sheds), dispatch, deadline wait.
// Coalescing is a dispatch mode of that path, not a second one: with a
// window set, an untraced flow_info parks in a buffer instead of getting
// a job of its own, and one flush job answers the bundle as a batch.
//
// Serving guarantees:
//   - No contended locking on the answer hot path: a worker picks up the
//     current snapshot (a refcount bump under the store's spinlock) and
//     runs const Modeler queries against that immutable copy.
//   - Every query carries a wall-clock deadline.  The caller always gets
//     a structured response by its deadline -- kAnswered, kStale,
//     kOverloaded, kExpired or kError; never a hang, and never an
//     exception across the API boundary.
//   - Staleness SLO: if the freshest snapshot is older (on the model
//     clock) than the query's staleness budget, the answer is served
//     anyway -- with PR 1's decayed accuracy, since the snapshot clock
//     keeps advancing -- and flagged kStale instead of kAnswered.
//   - Overload shedding: when the bounded queue is full, excess queries
//     are shed immediately with kOverloaded, so admitted-query latency
//     stays bounded by queue depth x per-query cost at any offered load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/flows.hpp"
#include "core/graph.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "obs/obs.hpp"
#include "service/endpoint.hpp"
#include "service/snapshot_store.hpp"
#include "service/tenant_admission.hpp"

namespace remos::service {

template <typename Response>
class ResultCache;  // service/result_cache.hpp

// The query/response vocabulary (QueryStatus, GraphQuery, FlowInfoQuery,
// FlowBatchInfoQuery, ResponseMeta, GraphResponse, FlowInfoResponse,
// FlowBatchResponse) and the FlowInfoEndpoint interface live in
// service/endpoint.hpp, shared by every callable surface.

/// Monitoring snapshot.  submitted == answered + stale + degraded + shed
/// + expired + errors once the service is idle (counts are client-visible
/// outcomes).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t stale = 0;
  /// Brownout answers: served from the cache with kDegraded instead of
  /// being shed.
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t polls = 0;
  std::uint64_t snapshot_version = 0;
  /// Fresh result-cache hits (exact current-version match; answered
  /// without consuming an admission slot or a worker).
  std::uint64_t cache_hits = 0;
  /// Explicit flow_info_batch calls answered (each counted once however
  /// many sub-queries it carried).
  std::uint64_t batch_queries = 0;
  /// Coalesced solves flushed, and single flow_info calls folded into
  /// them.  coalesced_queries / coalesced_batches is the achieved mean
  /// batch size of the micro-batching window.
  std::uint64_t coalesced_batches = 0;
  std::uint64_t coalesced_queries = 0;
  /// Current global admission budget (queue_capacity unless the AIMD
  /// controller has moved it).
  std::size_t admission_budget = 0;
  std::size_t in_flight_high_water = 0;
  /// Service-side completion latency quantiles (executed queries only),
  /// conservative bucket upper bounds.  Sourced from the wired metrics
  /// registry, so they read 0 until set_obs is called.
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

class QueryService : public FlowInfoEndpoint {
 public:
  struct Options {
    /// Worker threads answering queries.
    std::size_t workers = 4;
    /// Admission bound: queries in flight (queued + executing) beyond
    /// this are shed with kOverloaded.  With `adaptive`, this is only the
    /// starting budget.
    std::size_t queue_capacity = 64;
    /// Fraction of the budget reserved as weighted per-tenant slices;
    /// the rest is a shared pool (see TenantAdmission::Options).
    double reserved_fraction = 0.75;
    /// Deadline for queries that do not carry their own.
    std::chrono::microseconds default_deadline{100'000};
    /// Staleness SLO for queries that do not carry their own: answers
    /// from snapshots older than this (model clock) are flagged kStale.
    Seconds staleness_slo = 10.0;
    /// Wall-clock pacing between background poll steps.
    std::chrono::microseconds poll_interval{2'000};
    /// AIMD concurrency control: let the observed completion p99 resize
    /// the admission budget between aimd.min_budget and aimd.max_budget.
    /// Off by default (fixed queue_capacity, the pre-PR-7 behaviour).
    bool adaptive = false;
    AimdController::Options aimd;
    /// Result-cache fingerprints retained per response type; 0 disables
    /// caching and brownout entirely (default: existing callers see the
    /// exact pre-cache service).
    std::size_t cache_capacity = 0;
    /// Brownout accuracy half-life: a cached answer served under
    /// overload is discounted by 2^(-age / halflife) (model-clock age of
    /// its snapshot).  0 serves brownout answers undiscounted.
    Seconds brownout_halflife = 30.0;
    /// Micro-batching window for single flow_info calls: the dispatch
    /// step parks an admitted, untraced query for up to this long (or
    /// until 32 are parked), then the whole bundle is answered as one
    /// independent-mode batch solve against ONE snapshot.  Per-query
    /// deadlines, staleness SLOs, tenant slots and cache fingerprints
    /// are preserved.  0 disables coalescing (every query is its own
    /// worker job).
    std::chrono::microseconds coalesce_window{0};
  };

  explicit QueryService(Options options);
  QueryService() : QueryService(Options{}) {}
  ~QueryService() override;

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Wires metrics and flight-recorder events: per-status query
  /// counters, queue depth, latency and deadline-slack histograms,
  /// snapshot gauges, and shed-episode / publish events.  Call before
  /// start(); handles are resolved once and the hot path stays
  /// lock-free.  Without it every sink is a no-op.
  void set_obs(const obs::Obs& o);

  /// Starts the worker pool.  With `poll_step`, also starts a background
  /// poller thread that invokes it every poll_interval until stop() --
  /// the step typically drives CollectorSet::poll_all / the simulator one
  /// period and publishes a fresh snapshot (see CmuHarness::serve).
  void start();
  void start(std::function<void()> poll_step);
  void stop();

  /// Publishes an immutable snapshot; callable from the poll step (via
  /// collector hooks) or directly from tests.
  void publish(collector::NetworkModel model, Seconds model_now);

  /// Advances the service's model clock without publishing (a poll round
  /// that yielded nothing new still ages the snapshots).
  void note_model_now(Seconds model_now);
  Seconds model_now() const {
    return model_now_.load(std::memory_order_acquire);
  }

  /// Registers a tenant for weighted fair admission and returns its id
  /// (stamp it on queries / hand it to a RemosClient).  Register tenants
  /// before set_obs so their metric handles resolve.
  int register_tenant(const std::string& name, double weight);

  /// Synchronous query entry points (FlowInfoEndpoint), callable from
  /// any thread.  Always return by the query's deadline; never throw.
  GraphResponse get_graph(GraphQuery query) override;
  /// With Options::coalesce_window set, untraced flow_info calls take
  /// the same path but are dispatched to the window instead of a job of
  /// their own, and answered in one shared batch solve; the response is
  /// indistinguishable from a lone call against the same snapshot
  /// (independent-mode semantics are bit-for-bit).
  FlowInfoResponse flow_info(FlowInfoQuery query) override;
  /// Explicit batch: one admission slot, one snapshot, one solve for the
  /// whole batch.  Independent-mode sub-results additionally warm the
  /// single-query result cache under their own fingerprints.
  FlowBatchResponse flow_info_batch(FlowBatchInfoQuery query) override;

  const SnapshotStore& snapshots() const { return store_; }
  const TenantAdmission& admission() const { return admission_; }
  /// Mutable admission surface: an external controller may resize the
  /// budget; tests pre-occupy slots to drive the shed/brownout path
  /// deterministically.  Slots acquired here must be released here.
  TenantAdmission& admission() { return admission_; }
  const AimdController* aimd() const { return aimd_.get(); }
  const ResultCache<GraphResponse>* graph_cache() const {
    return graph_cache_.get();
  }
  const ResultCache<FlowInfoResponse>* flow_cache() const {
    return flow_cache_.get();
  }
  const ResultCache<FlowBatchResponse>* batch_cache() const {
    return batch_cache_.get();
  }
  const Options& options() const { return options_; }
  ServiceStats stats() const;

 private:
  template <typename Response>
  struct Pending {
    std::promise<Response> promise;
    std::atomic<bool> abandoned{false};
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    int tenant = TenantAdmission::kDefaultTenant;
  };

  /// One single flow_info call parked in the micro-batching window.  It
  /// already holds its tenant's admission slot; the flush gives it the
  /// pre-solve check and the completion a lone query's job would.
  struct CoalesceEntry {
    core::FlowQuery query;
    Seconds slo = 0;
    std::string cache_key;  // empty when caching is off
    std::shared_ptr<Pending<FlowInfoResponse>> state;
  };

  /// A coalescing window flushes early once this many queries are parked.
  static constexpr std::size_t kCoalesceMaxBatch = 32;

  /// The one request path every entry point takes: fresh-hit check,
  /// admission (with the brownout rung when it sheds), Pending state,
  /// dispatch, then the deadline wait.  Dispatch pushes a job that
  /// answers the query through `solve` -- or, for an untraced flow_info
  /// under a coalescing window, parks it for the shared flush.
  template <typename Response, typename Query, typename Solve>
  Response submit(Query query, ResultCache<Response>* cache, Solve solve);
  /// Pre-solve check: false when the query must not be solved -- its
  /// caller has gone (slot released) or its deadline passed (finished
  /// as kExpired).
  template <typename Response>
  bool should_solve(Pending<Response>& state);
  /// Completion: latency, series and slack, slot release, AIMD feedback,
  /// then the caller's promise.
  template <typename Response>
  void finish(Pending<Response>& state, Response r);
  /// Answers against the current snapshot with a fresh Modeler;
  /// `query_fn` fills the payload, and its exceptions become kError.
  template <typename Response, typename Fn>
  Response answer(Seconds staleness_budget, bool trace,
                  std::chrono::steady_clock::time_point enqueued,
                  Fn&& query_fn);
  /// Counts the submission, then serves `key` from `cache` iff the
  /// cached version matches the store's current version (counting the
  /// hit and its outcome, or the miss).  O(1): no admission slot, no
  /// worker, no Modeler.  An empty key (caching off, traced) never hits.
  template <typename Response>
  std::optional<Response> cache_fresh_hit(ResultCache<Response>* cache,
                                          const std::string& key,
                                          Seconds slo);
  /// Brownout rung: any-version cached answer, accuracy discounted by
  /// snapshot age, status kDegraded.  nullopt when the cache has nothing.
  template <typename Response>
  std::optional<Response> cache_brownout(ResultCache<Response>* cache,
                                         const std::string& key);
  /// Inserts an executed answer into the cache, pinning its snapshot.
  template <typename Response>
  void cache_store(ResultCache<Response>* cache, const std::string& key,
                   const Response& response);
  void count_outcome(QueryStatus status);
  void count_tenant(int tenant, bool admitted);
  void note_shed(bool shed);

  /// Queues a worker job; false once the service is stopping.
  bool enqueue(std::function<void()> job);
  /// Parks a coalesced query; the first parker of a window enqueues its
  /// one flush job.  False (nothing parked) once the service is stopping.
  bool park(CoalesceEntry entry);
  /// Worker-side flush: waits out the window, swaps the buffer, answers
  /// every live entry with one independent-mode batch through answer().
  void flush_coalesced();

  void worker_loop();
  void poller_loop(std::function<void()> poll_step);

  Options options_;
  SnapshotStore store_;
  TenantAdmission admission_;
  std::unique_ptr<AimdController> aimd_;
  std::unique_ptr<ResultCache<GraphResponse>> graph_cache_;
  std::unique_ptr<ResultCache<FlowInfoResponse>> flow_cache_;
  std::unique_ptr<ResultCache<FlowBatchResponse>> batch_cache_;
  std::atomic<double> model_now_{0.0};

  // Micro-batching window (Options::coalesce_window > 0 only).  Lock
  // order: coalesce_mutex_ before mutex_ (park enqueues the flush job).
  std::mutex coalesce_mutex_;  // guards the three fields below
  std::condition_variable coalesce_cv_;  // wakes a flush at the batch cap
  std::vector<CoalesceEntry> coalesce_buf_;
  bool coalesce_scheduled_ = false;  // a flush job owns the open window
  std::chrono::steady_clock::time_point coalesce_first_{};

  std::mutex mutex_;  // guards queue_, stopping_, started_
  std::condition_variable queue_cv_;
  std::condition_variable stop_cv_;  // wakes the poller's pacing sleep
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
  std::thread poller_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> coalesced_batches_{0};
  std::atomic<std::uint64_t> coalesced_queries_{0};

  // Observability (no-op sinks until set_obs).
  obs::FlightRecorder* recorder_ = nullptr;
  core::ModelerObs modeler_obs_;
  std::array<obs::Counter, obs::kQueryStatusCount> status_counters_;
  obs::Counter submitted_counter_;
  obs::Counter polls_counter_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge snapshot_version_gauge_;
  obs::Gauge snapshot_age_gauge_;
  obs::Histogram latency_;        // seconds, submission -> response
  obs::Histogram deadline_slack_; // seconds left when the answer landed
  obs::Counter cache_hit_counter_;
  obs::Counter cache_miss_counter_;
  obs::Counter coalesced_batches_counter_;
  obs::Counter coalesced_queries_counter_;
  obs::Counter brownout_counter_;
  obs::Gauge budget_gauge_;
  /// Per-tenant admitted/shed counters, indexed by tenant id; resolved at
  /// set_obs time for tenants registered by then (register first).
  std::vector<obs::Counter> tenant_admitted_counters_;
  std::vector<obs::Counter> tenant_shed_counters_;
  std::atomic<bool> shedding_{false};  // edge detector for episode events

  // History series (telemetry plane; null until set_obs with a store):
  // per-status latency in ms, shed 0/1 per submit, snapshot staleness at
  // answer time.  Stamped on the model clock so they line up with the
  // simulator's and collector's link series.
  std::array<obs::TimeSeries*, obs::kQueryStatusCount> latency_series_{};
  obs::TimeSeries* shed_series_ = nullptr;
  obs::TimeSeries* staleness_series_ = nullptr;
};

}  // namespace remos::service
