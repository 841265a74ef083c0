// The batch query plane (ISSUE 8): flow_info_batch at every layer.
//
// The differential oracle this suite enforces:
//   - an independent-mode batch is bit-for-bit N sequential flow_info
//     calls against the same pinned snapshot (the batch only amortizes
//     shared work, it must not change a single double);
//   - a shared-mode batch equals the hand-built combined FlowQuery
//     (sub-query flow lists concatenated), scattered back by offsets;
//   - the service coalescer folds concurrent single flow_info calls into
//     one batch solve without changing answers, deadlines, or tenant
//     admission accounting (slots conserved, sheds charged at arrival).
//
// Plus the FlowInfoEndpoint satellite: QueryService, RemosClient,
// FailoverCoordinator and the degenerate ModelerEndpoint all answer the
// same three questions through one abstract surface; and a shared batch
// of disjoint pairs at fat-tree scale matches lone queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "core/flows.hpp"
#include "core/remos_api.hpp"
#include "netsim/generators.hpp"
#include "netsim/traffic.hpp"
#include "service/endpoint.hpp"
#include "service/failover.hpp"
#include "service/query_service.hpp"
#include "service/remos_client.hpp"
#include "service/replication.hpp"
#include "util/error.hpp"
#include "models.hpp"

namespace remos::service {
namespace {

using namespace std::chrono_literals;
using apps::CmuHarness;
using core::FlowBatchQuery;
using core::FlowQuery;
using core::FlowRequest;
using core::Timeframe;

// --- bit-for-bit comparison helpers -----------------------------------
// Measurement has no operator== (quartiles do); compare field by field
// with EXPECT_EQ so any drift names the exact double that moved.

void expect_measurement_eq(const Measurement& a, const Measurement& b,
                           const std::string& what) {
  EXPECT_TRUE(a.quartiles == b.quartiles) << what << ": quartiles differ";
  EXPECT_EQ(a.mean, b.mean) << what << ": mean";
  EXPECT_EQ(a.samples, b.samples) << what << ": samples";
  EXPECT_EQ(a.accuracy, b.accuracy) << what << ": accuracy";
}

void expect_flow_eq(const core::FlowResult& a, const core::FlowResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.request.src, b.request.src) << what;
  EXPECT_EQ(a.request.dst, b.request.dst) << what;
  EXPECT_EQ(a.request.requested, b.request.requested) << what;
  EXPECT_EQ(a.satisfied, b.satisfied) << what << ": satisfied";
  EXPECT_EQ(a.routable, b.routable) << what << ": routable";
  expect_measurement_eq(a.bandwidth, b.bandwidth, what + ".bandwidth");
  expect_measurement_eq(a.latency, b.latency, what + ".latency");
}

void expect_result_eq(const core::FlowQueryResult& a,
                      const core::FlowQueryResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.fixed.size(), b.fixed.size()) << what;
  ASSERT_EQ(a.multicast.size(), b.multicast.size()) << what;
  ASSERT_EQ(a.variable.size(), b.variable.size()) << what;
  ASSERT_EQ(a.independent.has_value(), b.independent.has_value()) << what;
  for (std::size_t i = 0; i < a.fixed.size(); ++i)
    expect_flow_eq(a.fixed[i], b.fixed[i],
                   what + ".fixed[" + std::to_string(i) + "]");
  for (std::size_t i = 0; i < a.variable.size(); ++i)
    expect_flow_eq(a.variable[i], b.variable[i],
                   what + ".variable[" + std::to_string(i) + "]");
  for (std::size_t i = 0; i < a.multicast.size(); ++i) {
    const core::MulticastResult& ma = a.multicast[i];
    const core::MulticastResult& mb = b.multicast[i];
    const std::string tag = what + ".multicast[" + std::to_string(i) + "]";
    EXPECT_EQ(ma.request.src, mb.request.src) << tag;
    EXPECT_EQ(ma.request.dsts, mb.request.dsts) << tag;
    EXPECT_EQ(ma.satisfied, mb.satisfied) << tag;
    EXPECT_EQ(ma.routable, mb.routable) << tag;
    expect_measurement_eq(ma.bandwidth, mb.bandwidth, tag + ".bandwidth");
    expect_measurement_eq(ma.latency, mb.latency, tag + ".latency");
  }
  if (a.independent)
    expect_flow_eq(*a.independent, *b.independent, what + ".independent");
}

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

FlowInfoQuery tiny_flow(double req_mbps) {
  FlowQuery fq;
  fq.fixed = {FlowRequest{"a", "b", mbps(req_mbps)}};
  FlowInfoQuery q;
  q.query = std::move(fq);
  return q;
}

std::size_t occupy_all_slots(QueryService& svc, int tenant) {
  std::size_t held = 0;
  while (svc.admission().try_acquire(tenant)) ++held;
  return held;
}

void release_slots(QueryService& svc, int tenant, std::size_t held) {
  for (std::size_t i = 0; i < held; ++i) svc.admission().release(tenant);
}

/// Polls until the admission plane drains (coalescer flush jobs release
/// parked slots asynchronously).
void wait_for_drain(const QueryService& svc) {
  for (int i = 0; i < 2000 && svc.admission().in_flight() > 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(svc.admission().in_flight(), 0u);
}

// --- Modeler: the batch differential oracle ---------------------------

class ModelerBatch : public ::testing::Test {
 protected:
  ModelerBatch() { harness_.start(10.0); }
  CmuHarness harness_;
};

TEST_F(ModelerBatch, IndependentBatchMatchesSequentialBitForBit) {
  // Four deliberately diverse sub-queries: a lone fixed flow, a variable
  // trio sharing one bottleneck, a mixed three-class query, and one on a
  // history timeframe (distinct graph-build group).
  FlowQuery q0;
  q0.fixed = {FlowRequest{"m-1", "m-8", mbps(5)}};

  FlowQuery q1;
  q1.variable = {FlowRequest{"m-4", "m-5", mbps(10)},
                 FlowRequest{"m-4", "m-7", mbps(15)},
                 FlowRequest{"m-4", "m-8", mbps(30)}};

  FlowQuery q2;
  q2.fixed = {FlowRequest{"m-2", "m-7", mbps(3)}};
  q2.variable = {FlowRequest{"m-2", "m-6", mbps(8)}};
  q2.independent = FlowRequest{"m-3", "m-6", 0};

  FlowQuery q3;
  q3.fixed = {FlowRequest{"m-4", "m-5", mbps(5)}};
  q3.timeframe = Timeframe::history(5.0);

  FlowBatchQuery batch;
  batch.mode = FlowBatchQuery::Mode::kIndependent;
  batch.queries = {q0, q1, q2, q3};

  // Sequential oracle first, batch second: both against the same live
  // modeler, with the simulator paused (no polling between the calls).
  const core::Modeler& m = harness_.modeler();
  std::vector<core::FlowQueryResult> seq;
  for (const FlowQuery& q : batch.queries) seq.push_back(m.flow_info(q));

  const core::FlowBatchResult br = m.flow_info_batch(batch);
  ASSERT_EQ(br.results.size(), 4u);
  ASSERT_EQ(br.errors.size(), 4u);
  EXPECT_TRUE(br.all_ok());
  for (std::size_t i = 0; i < seq.size(); ++i)
    expect_result_eq(br.results[i], seq[i],
                     "sub[" + std::to_string(i) + "]");
}

TEST_F(ModelerBatch, IndependentModeIsolatesMalformedSubQueries) {
  FlowQuery good;
  good.fixed = {FlowRequest{"m-1", "m-8", mbps(5)}};
  FlowQuery bad;  // src == dst: flow_info's documented InvalidArgument
  bad.fixed = {FlowRequest{"m-4", "m-4", mbps(5)}};

  FlowBatchQuery batch;
  batch.mode = FlowBatchQuery::Mode::kIndependent;
  batch.queries = {good, bad, good};

  const core::FlowBatchResult br =
      harness_.modeler().flow_info_batch(batch);
  EXPECT_FALSE(br.all_ok());
  EXPECT_TRUE(br.errors[0].empty());
  EXPECT_NE(br.errors[1].find("src == dst"), std::string::npos)
      << br.errors[1];
  EXPECT_TRUE(br.errors[2].empty());
  // The healthy slots still carry the sequential answer.
  const core::FlowQueryResult lone = harness_.modeler().flow_info(good);
  expect_result_eq(br.results[0], lone, "sub[0]");
  expect_result_eq(br.results[2], lone, "sub[2]");
  // The malformed slot is empty, not garbage.
  EXPECT_TRUE(br.results[1].fixed.empty());
}

TEST_F(ModelerBatch, SharedBatchEqualsHandBuiltCombinedQuery) {
  // Two co-scheduled applications.  The shared-mode contract: solving
  // them as a batch IS solving the one combined simultaneous query.
  FlowQuery a;
  a.fixed = {FlowRequest{"m-1", "m-8", mbps(5)}};
  a.variable = {FlowRequest{"m-4", "m-5", mbps(10)}};
  FlowQuery b;
  b.fixed = {FlowRequest{"m-2", "m-7", mbps(3)}};
  b.variable = {FlowRequest{"m-4", "m-7", mbps(20)}};
  b.independent = FlowRequest{"m-6", "m-3", 0};

  FlowQuery combined;
  combined.fixed = {a.fixed[0], b.fixed[0]};
  combined.variable = {a.variable[0], b.variable[0]};
  combined.independent = b.independent;

  const core::Modeler& m = harness_.modeler();
  const core::FlowQueryResult cr = m.flow_info(combined);

  FlowBatchQuery batch;
  batch.mode = FlowBatchQuery::Mode::kShared;
  batch.queries = {a, b};
  const core::FlowBatchResult br = m.flow_info_batch(batch);
  ASSERT_TRUE(br.all_ok());
  ASSERT_EQ(br.results.size(), 2u);

  // Scatter check: each sub-query's slice of the combined answer, in
  // order, bit for bit.
  ASSERT_EQ(br.results[0].fixed.size(), 1u);
  ASSERT_EQ(br.results[1].fixed.size(), 1u);
  expect_flow_eq(br.results[0].fixed[0], cr.fixed[0], "a.fixed");
  expect_flow_eq(br.results[1].fixed[0], cr.fixed[1], "b.fixed");
  expect_flow_eq(br.results[0].variable[0], cr.variable[0], "a.variable");
  expect_flow_eq(br.results[1].variable[0], cr.variable[1], "b.variable");
  EXPECT_FALSE(br.results[0].independent.has_value());
  ASSERT_TRUE(br.results[1].independent.has_value());
  expect_flow_eq(*br.results[1].independent, *cr.independent,
                 "b.independent");
}

TEST_F(ModelerBatch, SharedBatchRejectsContradictions) {
  const core::Modeler& m = harness_.modeler();
  EXPECT_THROW(m.flow_info_batch(FlowBatchQuery{}), InvalidArgument);

  FlowQuery now;
  now.fixed = {FlowRequest{"m-1", "m-8", mbps(5)}};
  FlowQuery past = now;
  past.timeframe = Timeframe::history(5.0);
  FlowBatchQuery mixed;
  mixed.mode = FlowBatchQuery::Mode::kShared;
  mixed.queries = {now, past};
  EXPECT_THROW(m.flow_info_batch(mixed), InvalidArgument);

  FlowQuery indep = now;
  indep.independent = FlowRequest{"m-3", "m-6", 0};
  FlowBatchQuery two_indep;
  two_indep.mode = FlowBatchQuery::Mode::kShared;
  two_indep.queries = {indep, indep};
  EXPECT_THROW(m.flow_info_batch(two_indep), InvalidArgument);

  // Independent mode shrugs at both: per-sub isolation, no shared-mode
  // preconditions.
  mixed.mode = FlowBatchQuery::Mode::kIndependent;
  EXPECT_TRUE(m.flow_info_batch(mixed).all_ok());
}

// --- QueryService: the explicit batch endpoint ------------------------

TEST(ServiceBatch, OneAdmissionUnitOneAnswer) {
  QueryService::Options o;
  o.workers = 2;
  o.queue_capacity = 8;
  o.cache_capacity = 64;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowBatchInfoQuery q;
  q.batch.mode = FlowBatchQuery::Mode::kIndependent;
  q.batch.queries = {tiny_flow(10).query, tiny_flow(20).query,
                     tiny_flow(200).query};
  const FlowBatchResponse r = svc.flow_info_batch(q);
  ASSERT_EQ(r.meta.status, QueryStatus::kAnswered) << r.meta.error;
  ASSERT_EQ(r.results.size(), 3u);
  EXPECT_TRUE(r.results[0].fixed[0].satisfied);
  EXPECT_TRUE(r.results[1].fixed[0].satisfied);
  EXPECT_FALSE(r.results[2].fixed[0].satisfied) << "200 Mbps on a 100 link";
  EXPECT_EQ(svc.stats().batch_queries, 1u);
  EXPECT_EQ(svc.admission().in_flight(), 0u);

  // The identical batch again: an O(1) fresh hit under the batch
  // fingerprint, no second solve.
  const FlowBatchResponse again = svc.flow_info_batch(q);
  EXPECT_EQ(again.meta.status, QueryStatus::kAnswered);
  EXPECT_TRUE(again.meta.from_cache);
  ASSERT_EQ(again.results.size(), 3u);
  expect_result_eq(again.results[2], r.results[2], "cached sub[2]");
}

TEST(ServiceBatch, IndependentBatchWarmsSingleQueryFingerprints) {
  QueryService::Options o;
  o.workers = 2;
  o.cache_capacity = 64;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowBatchInfoQuery batch;
  batch.batch.mode = FlowBatchQuery::Mode::kIndependent;
  batch.batch.queries = {tiny_flow(10).query, tiny_flow(20).query};
  const FlowBatchResponse br = svc.flow_info_batch(batch);
  ASSERT_TRUE(br.meta.ok()) << br.meta.error;

  // A later lone flow_info for either sub-query never reaches a worker:
  // the batch already stored its answer under the single-query key.
  const FlowInfoResponse single = svc.flow_info(tiny_flow(20));
  EXPECT_EQ(single.meta.status, QueryStatus::kAnswered);
  EXPECT_TRUE(single.meta.from_cache);
  expect_result_eq(single.result, br.results[1], "warmed sub[1]");
}

TEST(ServiceBatch, SharedContradictionComesBackStructured) {
  QueryService svc;
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowBatchInfoQuery q;
  q.batch.mode = FlowBatchQuery::Mode::kShared;
  q.batch.queries = {tiny_flow(5).query, tiny_flow(5).query};
  q.batch.queries[1].timeframe = Timeframe::history(5.0);
  const FlowBatchResponse r = svc.flow_info_batch(q);
  EXPECT_EQ(r.meta.status, QueryStatus::kError);
  EXPECT_NE(r.meta.error.find("one timeframe"), std::string::npos)
      << r.meta.error;
  EXPECT_EQ(svc.admission().in_flight(), 0u);
}

// --- QueryService: the coalescing window ------------------------------

TEST(Coalescer, ConcurrentSinglesMatchDirectAnswers) {
  // Two services over the same published model: one with the window off
  // (the oracle), one coalescing.  Every coalesced answer must be
  // bit-for-bit the direct answer.
  QueryService direct;
  direct.start();
  direct.publish(tiny_model(0.0), 0.0);

  QueryService::Options o;
  o.workers = 2;
  o.coalesce_window = 2ms;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  constexpr int kCallers = 8;
  std::vector<FlowInfoResponse> got(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i)
    callers.emplace_back(
        [&svc, &got, i] { got[static_cast<std::size_t>(i)] =
                              svc.flow_info(tiny_flow(10 + i)); });
  for (std::thread& t : callers) t.join();

  for (int i = 0; i < kCallers; ++i) {
    const FlowInfoResponse& r = got[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.meta.status, QueryStatus::kAnswered) << r.meta.error;
    const FlowInfoResponse oracle = direct.flow_info(tiny_flow(10 + i));
    expect_result_eq(r.result, oracle.result,
                     "caller[" + std::to_string(i) + "]");
  }

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.coalesced_queries, static_cast<std::uint64_t>(kCallers))
      << "every untraced flow_info should take the coalesced path";
  EXPECT_GE(s.coalesced_batches, 1u);
  EXPECT_LE(s.coalesced_batches, static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(direct.stats().coalesced_queries, 0u);
  wait_for_drain(svc);
}

TEST(Coalescer, TracedQueriesBypassTheWindow) {
  QueryService::Options o;
  o.coalesce_window = 2ms;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowInfoQuery q = tiny_flow(10);
  q.trace = true;
  const FlowInfoResponse r = svc.flow_info(std::move(q));
  EXPECT_EQ(r.meta.status, QueryStatus::kAnswered) << r.meta.error;
  EXPECT_FALSE(r.meta.trace.empty()) << "traced query lost its span tree";
  EXPECT_EQ(svc.stats().coalesced_queries, 0u);
}

TEST(Coalescer, DeadlineExpiresInsideTheWindowWithoutLeakingSlots) {
  QueryService::Options o;
  o.workers = 2;
  o.coalesce_window = 50ms;  // far past the caller's budget
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  FlowInfoQuery q = tiny_flow(10);
  q.deadline = 2ms;
  const FlowInfoResponse r = svc.flow_info(std::move(q));
  EXPECT_EQ(r.meta.status, QueryStatus::kExpired);
  EXPECT_GE(svc.stats().expired, 1u);
  // The parked entry's admission slot comes back when the flush fires.
  wait_for_drain(svc);
}

TEST(Coalescer, ShedsAtArrivalBeforeParking) {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  o.coalesce_window = 5ms;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);
  ASSERT_GE(held, 1u);
  const FlowInfoResponse r = svc.flow_info(tiny_flow(10));
  EXPECT_EQ(r.meta.status, QueryStatus::kOverloaded)
      << "coalescing must not smuggle queries past admission";
  release_slots(svc, TenantAdmission::kDefaultTenant, held);

  // With the slots back, the same query parks and answers.
  const FlowInfoResponse ok = svc.flow_info(tiny_flow(10));
  EXPECT_EQ(ok.meta.status, QueryStatus::kAnswered) << ok.meta.error;
  wait_for_drain(svc);
}

/// Runs `queries` as concurrent flow_info callers parked in ONE window of
/// a not-yet-started coalescing service: the worker pool starts only once
/// every caller holds its admission slot and has had time to park, so
/// the first parker's flush job finds them all.
std::vector<FlowInfoResponse> answer_in_one_window(
    QueryService& svc, std::vector<FlowInfoQuery> queries) {
  std::vector<FlowInfoResponse> got(queries.size());
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].deadline = 10s;  // parked until start(); never expires here
    callers.emplace_back(
        [&svc, &got, &queries, i] { got[i] = svc.flow_info(queries[i]); });
  }
  while (svc.admission().in_flight() < queries.size())
    std::this_thread::yield();
  std::this_thread::sleep_for(20ms);
  svc.start();
  for (std::thread& t : callers) t.join();
  return got;
}

/// Every Coalescer case ends idle with the ServiceStats invariant intact:
/// no slot held, and every submitted query has exactly one outcome.
void expect_idle_and_balanced(const QueryService& svc) {
  wait_for_drain(svc);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, s.answered + s.stale + s.degraded + s.shed +
                             s.expired + s.errors);
}

QueryService::Options coalescing(std::size_t cache_capacity = 0) {
  QueryService::Options o;
  o.workers = 2;
  o.coalesce_window = 2ms;
  o.cache_capacity = cache_capacity;
  return o;
}

TEST(Coalescer, EachEntryKeepsItsOwnStalenessSlo) {
  QueryService svc(coalescing());
  svc.publish(tiny_model(0.0), 0.0);
  svc.note_model_now(5.0);  // the only snapshot is now 5 s old

  FlowInfoQuery strict = tiny_flow(10);
  strict.max_staleness = 1.0;
  FlowInfoQuery lax = tiny_flow(20);
  lax.max_staleness = 100.0;
  const auto got = answer_in_one_window(svc, {strict, lax});

  EXPECT_EQ(svc.stats().coalesced_batches, 1u) << "callers shared a window";
  EXPECT_EQ(got[0].meta.status, QueryStatus::kStale) << got[0].meta.error;
  EXPECT_EQ(got[1].meta.status, QueryStatus::kAnswered) << got[1].meta.error;
  for (const FlowInfoResponse& r : got) {
    EXPECT_DOUBLE_EQ(r.meta.snapshot_age, 5.0);
    ASSERT_EQ(r.result.fixed.size(), 1u);
  }
  expect_idle_and_balanced(svc);
}

TEST(Coalescer, OneMalformedEntryFailsAlone) {
  QueryService svc(coalescing());
  svc.publish(tiny_model(0.0), 0.0);

  FlowInfoQuery bad;
  bad.query.fixed = {FlowRequest{"a", "a", mbps(5)}};
  const auto got =
      answer_in_one_window(svc, {tiny_flow(10), bad, tiny_flow(20)});

  EXPECT_EQ(svc.stats().coalesced_batches, 1u) << "callers shared a window";
  EXPECT_EQ(got[1].meta.status, QueryStatus::kError);
  EXPECT_NE(got[1].meta.error.find("src == dst"), std::string::npos)
      << got[1].meta.error;
  for (std::size_t i : {0u, 2u}) {
    EXPECT_EQ(got[i].meta.status, QueryStatus::kAnswered) << got[i].meta.error;
    ASSERT_EQ(got[i].result.fixed.size(), 1u);
    EXPECT_TRUE(got[i].result.fixed[0].satisfied);
  }
  expect_idle_and_balanced(svc);
}

TEST(Coalescer, StoppedServiceFailsTheQuery) {
  QueryService svc(coalescing());
  svc.publish(tiny_model(0.0), 0.0);
  svc.start();
  svc.stop();

  const FlowInfoResponse r = svc.flow_info(tiny_flow(10));
  EXPECT_EQ(r.meta.status, QueryStatus::kError);
  EXPECT_EQ(r.meta.error, "service stopped");
  EXPECT_EQ(svc.stats().errors, 1u);
  expect_idle_and_balanced(svc);
}

TEST(Coalescer, AnswersFeedTheCacheAndItsBrownout) {
  QueryService svc(coalescing(16));
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  const FlowInfoResponse first = svc.flow_info(tiny_flow(10));
  ASSERT_EQ(first.meta.status, QueryStatus::kAnswered) << first.meta.error;
  EXPECT_FALSE(first.meta.from_cache);
  EXPECT_EQ(svc.stats().coalesced_queries, 1u);

  // The coalesced answer was stored: the same query is a fresh hit.
  const FlowInfoResponse hit = svc.flow_info(tiny_flow(10));
  EXPECT_EQ(hit.meta.status, QueryStatus::kAnswered);
  EXPECT_TRUE(hit.meta.from_cache);
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  expect_result_eq(hit.result, first.result, "fresh hit");

  // A newer snapshot makes the entry brownout material only; with every
  // slot held, the query is served from it as kDegraded, not shed.
  svc.publish(tiny_model(1.0), 1.0);
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);
  const FlowInfoResponse brown = svc.flow_info(tiny_flow(10));
  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  EXPECT_EQ(brown.meta.status, QueryStatus::kDegraded);
  EXPECT_TRUE(brown.meta.from_cache);
  EXPECT_EQ(brown.meta.snapshot_version, first.meta.snapshot_version);
  EXPECT_EQ(svc.stats().degraded, 1u);
  EXPECT_EQ(svc.stats().coalesced_queries, 1u);
  expect_idle_and_balanced(svc);
}

// --- FlowInfoEndpoint: one surface, four implementations --------------

/// Exercises all three endpoint methods through the abstract base; every
/// implementation owes a structured ok() response on a healthy plane.
/// Budgets are deliberately lavish: this test is about the surface, and
/// a parallel ctest run must not be able to expire it.
void probe_endpoint(FlowInfoEndpoint& e, const std::string& src,
                    const std::string& dst, const std::string& who) {
  GraphQuery gq;
  gq.nodes = {src, dst};
  gq.deadline = std::chrono::seconds(10);
  gq.max_staleness = 1e9;
  const GraphResponse g = e.get_graph(std::move(gq));
  EXPECT_TRUE(g.meta.ok()) << who << ": " << g.meta.error;
  EXPECT_GE(g.graph.node_count(), 2u) << who;

  FlowQuery fq;
  fq.fixed = {FlowRequest{src, dst, mbps(5)}};
  FlowInfoQuery fi;
  fi.query = fq;
  fi.deadline = std::chrono::seconds(10);
  fi.max_staleness = 1e9;
  const FlowInfoResponse f = e.flow_info(std::move(fi));
  EXPECT_TRUE(f.meta.ok()) << who << ": " << f.meta.error;
  ASSERT_EQ(f.result.fixed.size(), 1u) << who;

  FlowBatchInfoQuery bq;
  bq.batch.mode = FlowBatchQuery::Mode::kIndependent;
  bq.batch.queries = {fq, fq};
  bq.deadline = std::chrono::seconds(10);
  bq.max_staleness = 1e9;
  const FlowBatchResponse b = e.flow_info_batch(std::move(bq));
  EXPECT_TRUE(b.meta.ok()) << who << ": " << b.meta.error;
  ASSERT_EQ(b.results.size(), 2u) << who;
  // Shape only, not bit-for-bit: against a live poller the lone call and
  // the batch can straddle a snapshot publish.  The pinned-snapshot
  // differential oracle lives in the ModelerBatch / Coalescer suites.
  ASSERT_EQ(b.results[0].fixed.size(), 1u) << who;
  EXPECT_TRUE(b.results[0].fixed[0].routable) << who;
  EXPECT_EQ(b.results[0].fixed[0].request.src, src) << who;
}

TEST(Endpoint, AllSurfacesAnswerThroughTheBase) {
  CmuHarness harness;
  harness.start(10.0);

  // The degenerate synchronous surface over the bare modeler.
  ModelerEndpoint bare(harness.modeler());
  probe_endpoint(bare, "m-4", "m-5", "ModelerEndpoint");

  // The concurrent service, and a retry-budgeted client in front of it.
  QueryService::Options so;
  so.workers = 2;
  auto service = harness.serve(so);
  probe_endpoint(*service, "m-4", "m-5", "QueryService");

  RemosClient client(*service, {});
  probe_endpoint(client, "m-4", "m-5", "RemosClient");
}

TEST(Endpoint, FailoverCoordinatorRoutesBatchesAsOneUnit) {
  ReplicatedService::Options o;
  o.replicas = 2;
  o.service.workers = 2;
  ReplicatedService rs(o);
  rs.start();
  rs.publish(tiny_model(1.0), 1.0);

  probe_endpoint(rs.coordinator(), "a", "b", "FailoverCoordinator");
  // One batch = one routed query against one replica's snapshot.
  EXPECT_GE(rs.coordinator().stats().queries, 3u);
}

// --- The batch plane at fat-tree scale --------------------------------

// Hosts come in creation order, so (hosts[2j], hosts[2j+1]) share an
// edge switch and, in a shared batch, contend on nothing but their own
// access links: sharing the solve must not move any answer.
TEST(ServiceBatch, SharedBatchesOfDisjointPairsMatchLoneQueriesOnFatTrees) {
  for (const std::size_t k : {8u, 16u}) {
    netsim::FatTreeParams p;
    p.k = k;
    const netsim::Topology topo = netsim::make_fat_tree(p);
    const std::vector<netsim::NodeId> hosts = topo.compute_nodes();
    std::vector<FlowQuery> pairs;
    for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
      FlowQuery q;
      q.fixed = {FlowRequest{topo.name_of(hosts[i]),
                             topo.name_of(hosts[i + 1]), mbps(100)}};
      pairs.push_back(std::move(q));
    }
    QueryService::Options o;
    o.workers = 4;
    o.default_deadline = 10s;
    o.staleness_slo = 1e9;
    QueryService svc(o);
    svc.start();
    svc.publish(test::quiet_model(topo), 1.0);

    std::vector<core::FlowResult> lone;
    for (const FlowQuery& q : pairs) {
      FlowInfoQuery fq;
      fq.query = q;
      const FlowInfoResponse r = svc.flow_info(std::move(fq));
      ASSERT_TRUE(r.meta.ok()) << r.meta.error;
      lone.push_back(r.result.fixed.at(0));
    }
    for (const std::size_t batch : {8u, 64u}) {
      double dev = 0;
      const auto track = [&dev](const Measurement& a, const Measurement& b) {
        for (const auto field :
             {&QuartileSummary::min, &QuartileSummary::q1,
              &QuartileSummary::median, &QuartileSummary::q3,
              &QuartileSummary::max})
          dev = std::max(dev, std::abs(a.quartiles.*field -
                                       b.quartiles.*field));
        dev = std::max(dev, std::abs(a.mean - b.mean));
      };
      for (std::size_t first = 0; first < pairs.size(); first += batch) {
        FlowBatchInfoQuery bq;
        bq.batch.mode = FlowBatchQuery::Mode::kShared;
        bq.batch.queries.assign(
            pairs.begin() + static_cast<std::ptrdiff_t>(first),
            pairs.begin() + static_cast<std::ptrdiff_t>(first + batch));
        const FlowBatchResponse br = svc.flow_info_batch(std::move(bq));
        ASSERT_TRUE(br.meta.ok()) << br.meta.error;
        ASSERT_EQ(br.results.size(), batch);
        for (std::size_t j = 0; j < batch; ++j) {
          const core::FlowResult& got = br.results[j].fixed.at(0);
          const core::FlowResult& want = lone[first + j];
          EXPECT_EQ(got.satisfied, want.satisfied) << first + j;
          EXPECT_EQ(got.routable, want.routable) << first + j;
          track(got.bandwidth, want.bandwidth);
          track(got.latency, want.latency);
        }
      }
      EXPECT_LE(dev, 1e-9 * mbps(1000)) << "k=" << k << " batch " << batch;
    }
    EXPECT_EQ(svc.stats().errors, 0u);
    svc.stop();
  }
}

}  // namespace
}  // namespace remos::service
