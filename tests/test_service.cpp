// The concurrent query service: snapshot isolation, deadlines, admission
// control and overload shedding.
//
// The acceptance bar (ISSUE 2):
//   - a multi-threaded soak with >= 8 client threads issuing mixed
//     graph/flow queries while the poller runs the PR 1 multi-fault
//     schedule: every query returns answered/stale/overloaded within its
//     deadline -- no hangs, no torn reads, p99 <= deadline;
//   - at sustained overload (offered concurrency far above the bounded
//     queue), the shed rate is nonzero while admitted-query p99 stays
//     within the SLO;
//   - malformed queries come back as structured kError results; the
//     service never lets an exception cross the API boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "netsim/traffic.hpp"
#include "obs/obs.hpp"
#include "service/query_service.hpp"
#include "service/snapshot_store.hpp"
#include "snmp/fault_injector.hpp"
#include "snmp/mib2.hpp"
#include "util/error.hpp"

namespace remos::service {
namespace {

using namespace std::chrono_literals;
using apps::CmuHarness;

/// Tiny host--router--host model; `t` stamps the link confirmations.
collector::NetworkModel tiny_model(Seconds t) {
  collector::NetworkModel m;
  m.upsert_node("a", false);
  m.upsert_node("b", false);
  m.upsert_node("r", true);
  m.upsert_link("a", "r", mbps(100), millis(0.2));
  m.upsert_link("r", "b", mbps(100), millis(0.2));
  for (collector::ModelLink& l : m.links()) {
    l.last_update = t;
    l.history.record({t, mbps(10), mbps(5)});
  }
  return m;
}

// --- SnapshotStore ---

TEST(SnapshotStore, VersionsAdvanceAndPreviousStaysPinned) {
  SnapshotStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  const auto s1 = store.publish(tiny_model(1.0), 1.0);
  EXPECT_EQ(s1->version, 1u);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.current(), s1);
  EXPECT_EQ(store.previous(), nullptr);

  const auto s2 = store.publish(tiny_model(2.0), 2.0);
  EXPECT_EQ(s2->version, 2u);
  EXPECT_EQ(store.current(), s2);
  EXPECT_EQ(store.previous(), s1);
  EXPECT_DOUBLE_EQ(store.previous()->taken_at, 1.0);
}

TEST(SnapshotStore, ReadersHoldingOldSnapshotsKeepThemAlive) {
  SnapshotStore store;
  store.publish(tiny_model(1.0), 1.0);
  const SnapshotStore::Ptr held = store.current();
  for (int i = 0; i < 10; ++i)
    store.publish(tiny_model(2.0 + i), 2.0 + i);
  // The held snapshot is untouched by later publishes.
  EXPECT_EQ(held->version, 1u);
  EXPECT_DOUBLE_EQ(held->taken_at, 1.0);
  EXPECT_EQ(held->model.nodes().size(), 3u);
}

TEST(SnapshotStore, ConcurrentPublishAndReadIsTornFree) {
  // One publisher swaps snapshots while readers load and fully walk
  // them; under TSan this pins the atomic-swap publication protocol.
  SnapshotStore store;
  store.publish(tiny_model(0.0), 0.0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotStore::Ptr snap = store.current();
        ASSERT_NE(snap, nullptr);
        ASSERT_EQ(snap->model.nodes().size(), 3u);
        ASSERT_EQ(snap->model.links().size(), 2u);
        ASSERT_GE(snap->model.links()[0].history.size(), 1u);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Publish until the readers have demonstrably overlapped with swaps
  // (on a single core the publisher can otherwise finish before any
  // reader is scheduled); the cap keeps a wedged reader from hanging us.
  std::uint64_t published = 0;
  for (int v = 1; reads.load() < 200 && v <= 200'000; ++v) {
    store.publish(tiny_model(v), v);
    ++published;
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(store.version(), published + 1);
  EXPECT_GE(reads.load(), 200u);
}

TEST(SnapshotStore, PinKeepsVersionAddressableAcrossPublishes) {
  SnapshotStore store;
  store.publish(tiny_model(1.0), 1.0);
  SnapshotStore::Pin pin = store.acquire(1);
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->version, 1u);

  for (int i = 0; i < 6; ++i) store.publish(tiny_model(2.0 + i), 2.0 + i);

  // Unpinned, version 1 would have been forgotten after two publishes
  // (only current/previous are retained); the pin keeps it addressable.
  SnapshotStore::Pin again = store.acquire(1);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->version, 1u);
  EXPECT_DOUBLE_EQ(again->taken_at, 1.0);
  EXPECT_TRUE(store.acquire(store.version()));

  pin.release();
  EXPECT_TRUE(store.acquire(1)) << "second pin still holds the version";
  again.release();
  EXPECT_FALSE(store.acquire(1)) << "all pins gone: version forgotten";
  EXPECT_FALSE(store.acquire(999));
}

TEST(SnapshotStore, PinnedDeltaBaseCannotRaceAPublish) {
  // The delta encoder's contract (ISSUE 6 satellite): holding a pin on
  // the base version, a concurrent publisher can never invalidate it --
  // the base stays bit-identical however many publishes land mid-encode.
  SnapshotStore store;
  store.publish(tiny_model(1.0), 1.0);
  SnapshotStore::Pin base = store.acquire(1);
  ASSERT_TRUE(base);

  std::thread publisher([&] {
    for (int v = 2; v <= 200; ++v) store.publish(tiny_model(v), v);
  });
  for (int i = 0; i < 200; ++i) {
    SnapshotStore::Pin reread = store.acquire(1);
    ASSERT_TRUE(reread);
    ASSERT_DOUBLE_EQ(reread->taken_at, 1.0);
    ASSERT_EQ(reread->model.links().size(), 2u);
    ASSERT_GE(reread->model.links()[0].history.size(), 1u);
  }
  publisher.join();
  EXPECT_EQ(store.version(), 200u);
  EXPECT_DOUBLE_EQ(base->taken_at, 1.0);
}

// --- QueryService semantics ---

GraphQuery graph_query(std::vector<std::string> nodes) {
  GraphQuery q;
  q.nodes = std::move(nodes);
  return q;
}

TEST(QueryService, NoSnapshotYetIsAStructuredError) {
  QueryService svc;
  svc.start();
  const GraphResponse r = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(r.meta.status, QueryStatus::kError);
  EXPECT_FALSE(r.meta.error.empty());
  svc.stop();
}

TEST(QueryService, AnswersFromSnapshotAndFlagsStaleness) {
  QueryService::Options o;
  o.staleness_slo = 10.0;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  GraphResponse fresh = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(fresh.meta.status, QueryStatus::kAnswered);
  EXPECT_EQ(fresh.meta.snapshot_version, 1u);
  EXPECT_TRUE(fresh.graph.has_node("a"));

  // The model clock advances 50s with no new snapshot: answers must
  // still be served, flagged stale, with decayed accuracy (PR 1).
  svc.note_model_now(50.0);
  GraphResponse stale = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(stale.meta.status, QueryStatus::kStale);
  EXPECT_NEAR(stale.meta.snapshot_age, 50.0, 1e-9);
  double fresh_acc = 1.0, stale_acc = 1.0;
  for (const core::GraphLink& l : fresh.graph.links())
    if (l.used_ab.known()) fresh_acc = std::min(fresh_acc, l.used_ab.accuracy);
  for (const core::GraphLink& l : stale.graph.links())
    if (l.used_ab.known()) stale_acc = std::min(stale_acc, l.used_ab.accuracy);
  EXPECT_LT(stale_acc, fresh_acc);

  // A per-query staleness budget overrides the service SLO.
  GraphQuery lenient = graph_query({"a", "b"});
  lenient.max_staleness = 1000.0;
  EXPECT_EQ(svc.get_graph(std::move(lenient)).meta.status,
            QueryStatus::kAnswered);
  svc.stop();
}

TEST(QueryService, FlowQueriesWorkAndUnknownHostsAreStructured) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowInfoQuery q;
  q.query.fixed = {core::FlowRequest{"a", "b", mbps(5)},
                   core::FlowRequest{"a", "ghost", mbps(5)}};
  const FlowInfoResponse r = svc.flow_info(std::move(q));
  ASSERT_EQ(r.meta.status, QueryStatus::kAnswered);
  ASSERT_EQ(r.result.fixed.size(), 2u);
  EXPECT_TRUE(r.result.fixed[0].routable);
  EXPECT_FALSE(r.result.fixed[1].routable);
  svc.stop();
}

TEST(QueryService, UnknownGraphNodesAreStructuredPartialResults) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  // One unknown node degrades the answer (kPartial over the known
  // subset) instead of aborting it.
  const GraphResponse partial = svc.get_graph(graph_query({"a", "ghost"}));
  EXPECT_EQ(partial.meta.status, QueryStatus::kAnswered);
  EXPECT_EQ(partial.graph_status, obs::GraphStatus::kPartial);
  ASSERT_EQ(partial.unknown_nodes.size(), 1u);
  EXPECT_EQ(partial.unknown_nodes[0], "ghost");
  EXPECT_TRUE(partial.graph.has_node("a"));

  // No queried node known: kUnresolved, still a structured answer.
  const GraphResponse none = svc.get_graph(graph_query({"ghost", "wraith"}));
  EXPECT_EQ(none.meta.status, QueryStatus::kAnswered);
  EXPECT_EQ(none.graph_status, obs::GraphStatus::kUnresolved);
  EXPECT_EQ(none.unknown_nodes.size(), 2u);

  // A fully-resolved query reports kOk.
  const GraphResponse ok = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(ok.graph_status, obs::GraphStatus::kOk);
  EXPECT_TRUE(ok.unknown_nodes.empty());
  svc.stop();
}

TEST(QueryService, MalformedQueriesAreErrorsNotAborts) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  // src == dst: InvalidArgument mapped to kError.
  FlowInfoQuery self;
  self.query.fixed = {core::FlowRequest{"a", "a", mbps(1)}};
  EXPECT_EQ(svc.flow_info(std::move(self)).meta.status, QueryStatus::kError);

  // Empty flow query: InvalidArgument mapped to kError.
  FlowInfoQuery empty;
  EXPECT_EQ(svc.flow_info(std::move(empty)).meta.status, QueryStatus::kError);

  // Degenerate timeframe: InvalidArgument mapped to kError.
  GraphQuery bad = graph_query({"a", "b"});
  bad.timeframe.kind = core::Timeframe::Kind::kHistory;
  bad.timeframe.window = -1.0;
  EXPECT_EQ(svc.get_graph(std::move(bad)).meta.status, QueryStatus::kError);

  // The service is still healthy afterwards.
  EXPECT_EQ(svc.get_graph(graph_query({"a", "b"})).meta.status,
            QueryStatus::kAnswered);
  svc.stop();
}

TEST(QueryService, DeadlineExpiryNeverHangs) {
  // No workers are started, so nothing will ever answer: the caller must
  // get kExpired at its deadline, not hang.
  QueryService svc;
  svc.publish(tiny_model(0.0), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  GraphQuery q = graph_query({"a", "b"});
  q.deadline = 20ms;
  const GraphResponse r = svc.get_graph(std::move(q));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.meta.status, QueryStatus::kExpired);
  EXPECT_GE(waited, 19ms);
  EXPECT_LT(waited, 5s);  // returned promptly, not hung
}

TEST(QueryService, OverloadShedsImmediatelyWithStructuredResult) {
  QueryService::Options o;
  o.queue_capacity = 2;
  QueryService svc(o);  // never started: admitted queries sit queued
  svc.publish(tiny_model(0.0), 0.0);

  auto submit = [&svc] {
    GraphQuery q = graph_query({"a", "b"});
    q.deadline = 300ms;
    return svc.get_graph(std::move(q));
  };
  auto f1 = std::async(std::launch::async, submit);
  auto f2 = std::async(std::launch::async, submit);
  // Wait until both occupy the bounded queue.
  while (svc.admission().in_flight() < 2) std::this_thread::yield();

  const auto t0 = std::chrono::steady_clock::now();
  GraphQuery q = graph_query({"a", "b"});
  q.deadline = 300ms;
  const GraphResponse shed = svc.get_graph(std::move(q));
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(shed.meta.status, QueryStatus::kOverloaded);
  EXPECT_LT(took, 100ms);  // shed at the door, no queue wait

  EXPECT_EQ(f1.get().meta.status, QueryStatus::kExpired);
  EXPECT_EQ(f2.get().meta.status, QueryStatus::kExpired);
  EXPECT_EQ(svc.stats().shed, 1u);
  EXPECT_EQ(svc.stats().expired, 2u);
}

TEST(QueryService, CountersMatchObservedStatusesAndQueueDrains) {
  obs::Observability obs;
  QueryService svc;
  svc.set_obs(obs.view());
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  // 3 answered, 1 stale, 1 error; tally them through the registry.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(svc.get_graph(graph_query({"a", "b"})).meta.status,
              QueryStatus::kAnswered);
  svc.note_model_now(50.0);
  EXPECT_EQ(svc.get_graph(graph_query({"a", "b"})).meta.status,
            QueryStatus::kStale);
  GraphQuery bad = graph_query({"a", "b"});
  bad.timeframe.kind = core::Timeframe::Kind::kHistory;
  bad.timeframe.window = -1.0;
  EXPECT_EQ(svc.get_graph(std::move(bad)).meta.status, QueryStatus::kError);
  svc.stop();

  const ServiceStats s = svc.stats();
  auto status_count = [&](const char* status) {
    return obs.metrics
        .counter("remos_service_queries_total", {{"status", status}})
        .value();
  };
  EXPECT_EQ(status_count("answered"), s.answered);
  EXPECT_EQ(status_count("stale"), s.stale);
  EXPECT_EQ(status_count("overloaded"), s.shed);
  EXPECT_EQ(status_count("expired"), s.expired);
  EXPECT_EQ(status_count("error"), s.errors);
  EXPECT_EQ(status_count("answered"), 3u);
  EXPECT_EQ(status_count("stale"), 1u);
  EXPECT_EQ(status_count("error"), 1u);
  EXPECT_EQ(
      obs.metrics.counter("remos_service_queries_submitted_total").value(),
      s.submitted);
  // Executed queries (answered + stale + error) hit the latency
  // histogram; quantiles flow back into ServiceStats.
  EXPECT_EQ(obs.metrics
                .histogram("remos_service_latency_seconds",
                           obs::default_time_buckets())
                .count(),
            5u);
  EXPECT_GT(s.p99_us, 0u);
  // Idle service: the queue-depth gauge has drained back to zero.
  EXPECT_DOUBLE_EQ(obs.metrics.gauge("remos_service_queue_depth").value(),
                   0.0);
}

TEST(QueryService, ShedCounterAndEpisodeEventsUnderOverload) {
  obs::Observability obs;
  QueryService::Options o;
  o.queue_capacity = 1;
  QueryService svc(o);  // never started: the admitted query sits queued
  svc.set_obs(obs.view());
  svc.publish(tiny_model(0.0), 0.0);

  auto submit = [&svc] {
    GraphQuery q = graph_query({"a", "b"});
    q.deadline = 200ms;
    return svc.get_graph(std::move(q));
  };
  auto f1 = std::async(std::launch::async, submit);
  while (svc.admission().in_flight() < 1) std::this_thread::yield();
  const GraphResponse shed = submit();
  EXPECT_EQ(shed.meta.status, QueryStatus::kOverloaded);
  f1.get();

  EXPECT_EQ(obs.metrics
                .counter("remos_service_queries_total",
                         {{"status", "overloaded"}})
                .value(),
            svc.stats().shed);
  bool episode = false;
  for (const obs::Event& e : obs.recorder.dump())
    if (e.component == "service" && e.kind == "shed_episode_begin")
      episode = true;
  EXPECT_TRUE(episode);
}

TEST(QueryService, TracedQueryCarriesASpanTree) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  GraphQuery plain = graph_query({"a", "b"});
  EXPECT_TRUE(svc.get_graph(std::move(plain)).meta.trace.empty());

  GraphQuery traced = graph_query({"a", "b"});
  traced.trace = true;
  const GraphResponse r = svc.get_graph(std::move(traced));
  ASSERT_EQ(r.meta.status, QueryStatus::kAnswered);
  ASSERT_FALSE(r.meta.trace.empty());
  bool admission = false, pickup = false, build = false;
  for (const obs::Span& s : r.meta.trace.spans) {
    if (s.name == "admission") admission = true;
    if (s.name == "snapshot_pickup") pickup = true;
    if (s.name == "logical_build") build = true;
  }
  EXPECT_TRUE(admission);
  EXPECT_TRUE(pickup);
  EXPECT_TRUE(build);

  // Flow queries trace the solver stages too.
  FlowInfoQuery fq;
  fq.query.fixed = {core::FlowRequest{"a", "b", mbps(5)}};
  fq.trace = true;
  const FlowInfoResponse fr = svc.flow_info(std::move(fq));
  ASSERT_EQ(fr.meta.status, QueryStatus::kAnswered);
  bool solve = false;
  for (const obs::Span& s : fr.meta.trace.spans)
    if (s.name == "maxmin_solve") solve = true;
  EXPECT_TRUE(solve);
  svc.stop();
}

TEST(QueryService, SubmitAfterStopIsAStructuredError) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  svc.stop();
  const GraphResponse r = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(r.meta.status, QueryStatus::kError);
}

// --- The acceptance soak: concurrent mixed queries under the PR 1
// multi-fault schedule ---

struct ClientTally {
  std::vector<std::chrono::microseconds> latencies;
  std::uint64_t answered = 0;
  std::uint64_t stale = 0;
  std::uint64_t degraded = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;

  void count(const ResponseMeta& meta,
             std::chrono::microseconds client_latency) {
    latencies.push_back(client_latency);
    switch (meta.status) {
      case QueryStatus::kAnswered: ++answered; break;
      case QueryStatus::kStale: ++stale; break;
      case QueryStatus::kDegraded: ++degraded; break;
      case QueryStatus::kOverloaded: ++overloaded; break;
      case QueryStatus::kExpired: ++expired; break;
      case QueryStatus::kError: ++errors; break;
    }
  }

  void merge(const ClientTally& t) {
    latencies.insert(latencies.end(), t.latencies.begin(), t.latencies.end());
    answered += t.answered;
    stale += t.stale;
    degraded += t.degraded;
    overloaded += t.overloaded;
    expired += t.expired;
    errors += t.errors;
  }
};

std::chrono::microseconds percentile(
    std::vector<std::chrono::microseconds> v, double p) {
  if (v.empty()) return std::chrono::microseconds(0);
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

TEST(ServiceSoak, MultiFaultScheduleWithConcurrentClients) {
  constexpr int kClients = 8;
  constexpr auto kDeadline = std::chrono::microseconds(2'000'000);
  constexpr Seconds kScheduleEnd = 130.0;

  CmuHarness::Options ho;
  ho.poll_period = 2.0;
  CmuHarness h(ho);
  snmp::FaultInjector& fx = h.fault_injector();
  // The PR 1 multi-fault schedule: a loss burst, two agent
  // crash/restarts and a counter reset, all while queries fly.
  fx.loss_burst({10.0, 40.0}, 0.30);
  fx.crash(snmp::agent_address("timberline"), {50.0, 70.0});
  fx.counter_reset(snmp::agent_address("aspen"), 80.0);
  fx.crash(snmp::agent_address("whiteface"), {90.0, 120.0});
  h.start(6.0);
  netsim::CbrTraffic cbr(h.sim(), "m-5", "m-8", mbps(20), 4.0);

  QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 64;
  so.default_deadline = kDeadline;
  so.staleness_slo = 1.0;  // below the poll period: stale answers occur
  so.poll_interval = 3ms;
  auto svc = h.serve(so);

  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      const std::vector<std::string> hosts = h.hosts();
      int i = 0;
      while (svc->model_now() < kScheduleEnd && i < 20'000) {
        const auto t0 = std::chrono::steady_clock::now();
        ResponseMeta meta;
        if (i % 3 == 0) {
          core::FlowQuery fq;
          fq.fixed = {core::FlowRequest{
              hosts[static_cast<std::size_t>(i) % hosts.size()],
              hosts[static_cast<std::size_t>(i + 4) % hosts.size()],
              mbps(5)}};
          fq.variable = {core::FlowRequest{"m-1", "m-8", 1}};
          FlowInfoQuery q;
          q.query = std::move(fq);
          meta = svc->flow_info(std::move(q)).meta;
        } else {
          GraphQuery q = graph_query(
              {hosts[static_cast<std::size_t>(i) % hosts.size()],
               hosts[static_cast<std::size_t>(i + 1 + c) % hosts.size()]});
          meta = svc->get_graph(std::move(q)).meta;
        }
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0);
        tally.count(meta, us);
        ++i;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc->stop();

  // Tally across clients.
  ClientTally all;
  for (const ClientTally& t : tallies) all.merge(t);
  const std::uint64_t total = all.answered + all.stale + all.overloaded +
                              all.expired + all.errors;
  ASSERT_EQ(total, all.latencies.size());
  ASSERT_GT(total, 100u) << "clients barely ran";

  // Every query returned a structured answer; none were malformed, so
  // none may be errors, and the queue (64) dwarfs the client count (8),
  // so nothing should be shed or expired.
  EXPECT_EQ(all.errors, 0u);
  EXPECT_EQ(all.overloaded, 0u);
  EXPECT_EQ(all.expired, 0u);
  EXPECT_GT(all.answered + all.stale, 0u);

  // Deadline SLO: p99 <= deadline; nothing hung past deadline + grace.
  const auto p99 = percentile(all.latencies, 0.99);
  EXPECT_LE(p99.count(), kDeadline.count());
  const auto worst = *std::max_element(all.latencies.begin(),
                                       all.latencies.end());
  EXPECT_LE(worst.count(), kDeadline.count() + 1'000'000);

  // The fault schedule really ran under the poller: health transitions
  // were observed and the collector recovered.
  EXPECT_GE(svc->model_now(), kScheduleEnd);
  bool saw_unreachable = false;
  for (const collector::HealthTransition& t : h.collector().health_log())
    if (t.to == collector::AgentHealth::kUnreachable) saw_unreachable = true;
  EXPECT_TRUE(saw_unreachable);

  // Snapshot isolation held: every poll published a fresh version.
  EXPECT_GT(svc->snapshots().version(), 30u);
}

/// `clients` threads, each issuing `per_client` two-host graph queries
/// over the CMU hosts; returns every client's tally merged.
ClientTally run_graph_clients(CmuHarness& h, QueryService& svc, int clients,
                              int per_client) {
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      const std::vector<std::string>& hosts = h.hosts();
      for (int i = 0; i < per_client; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        GraphQuery q = graph_query(
            {hosts[static_cast<std::size_t>(i + c) % hosts.size()],
             hosts[static_cast<std::size_t>(i + c + 3) % hosts.size()]});
        const ResponseMeta meta = svc.get_graph(std::move(q)).meta;
        tally.count(meta,
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ClientTally all;
  for (const ClientTally& t : tallies) all.merge(t);
  return all;
}

/// `clients` against 2 workers and a queue of 8: offered concurrency
/// far above the admission bound, so shedding is the designed steady
/// state.
void expect_overload_sheds_within_slo(int clients, int per_client) {
  constexpr auto kDeadline = std::chrono::microseconds(2'000'000);

  CmuHarness h;
  h.start(6.0);
  QueryService::Options so;
  so.workers = 2;
  so.queue_capacity = 8;
  so.default_deadline = kDeadline;
  so.staleness_slo = 1e9;  // staleness is not under test here
  so.poll_interval = 5ms;
  auto svc = h.serve(so);
  const ClientTally all = run_graph_clients(h, *svc, clients, per_client);

  ASSERT_EQ(all.answered + all.stale + all.overloaded + all.expired +
                all.errors,
            static_cast<std::uint64_t>(clients) *
                static_cast<std::uint64_t>(per_client));
  EXPECT_EQ(all.errors, 0u);
  // More clients than the queue holds: the shed rate must be nonzero.
  EXPECT_GT(all.overloaded, 0u);
  // And real work still got done.
  EXPECT_GT(all.answered + all.stale, 0u);
  // Admitted-query latency stays bounded: p99 of everything (shed
  // returns are ~instant and only pull the quantile down; expired are
  // capped at the deadline) within the deadline SLO.
  const auto p99 = percentile(all.latencies, 0.99);
  EXPECT_LE(p99.count(), kDeadline.count());
  // The admission high-water mark respected the bound.
  EXPECT_LE(svc->admission().high_water(), so.queue_capacity);
  svc->stop();

  // The harness-wired per-status counters agree exactly with what the
  // clients observed: every query is counted once, with the status its
  // caller saw.
  auto status_count = [&](const char* status) {
    return h.metrics()
        .counter("remos_service_queries_total", {{"status", status}})
        .value();
  };
  EXPECT_EQ(status_count("answered"), all.answered);
  EXPECT_EQ(status_count("stale"), all.stale);
  EXPECT_EQ(status_count("overloaded"), all.overloaded);
  EXPECT_EQ(status_count("expired"), all.expired);
  EXPECT_EQ(status_count("error"), all.errors);
}

TEST(ServiceSoak, SustainedOverloadShedsButAdmittedStayWithinSlo) {
  expect_overload_sheds_within_slo(/*clients=*/24, /*per_client=*/60);
}

TEST(ServiceSoak, TwiceOverloadShedsWithZeroErrors) {
  expect_overload_sheds_within_slo(/*clients=*/16, /*per_client=*/80);
}

// Client concurrency matched to the worker pool, under background
// traffic: nothing may be shed and nothing may fail.
TEST(ServiceSoak, AtCapacityNothingShedsOrErrors) {
  CmuHarness h;
  h.start(6.0);
  netsim::CbrTraffic background(h.sim(), "m-5", "m-8", mbps(20), 4.0);
  QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 64;
  so.default_deadline = 2s;
  so.staleness_slo = 1e9;
  so.poll_interval = 5ms;
  auto svc = h.serve(so);
  const ClientTally all = run_graph_clients(h, *svc, /*clients=*/4,
                                            /*per_client=*/250);
  svc->stop();
  EXPECT_EQ(all.overloaded, 0u);
  EXPECT_EQ(all.errors, 0u);
  EXPECT_EQ(svc->stats().shed, 0u);
}

}  // namespace
}  // namespace remos::service
