// Tenant-aware overload control (ISSUE 7): weighted fair admission,
// AIMD budget adaptation, the snapshot-versioned result cache with its
// brownout ladder, and the client-side retry budget.
//
// The acceptance bar:
//   - fairness invariants for TenantAdmission under an 8-thread
//     acquire/release storm: no slot leaks or double releases, admit
//     ratios proportional to weights, TSan-clean;
//   - result-cache correctness: fresh hits only on an exact (snapshot
//     version, canonical fingerprint) match, version bumps invalidate,
//     brownout answers carry kDegraded plus an explicit accuracy
//     discount -- never a stale answer presented as fresh;
//   - the retry wrapper never amplifies offered load beyond 1.3x base
//     even at total shed;
//   - a hot-tenant storm soak (one tenant at 10x fair load, the PR 1
//     fault schedule active): victims keep >= 95% goodput and their
//     latency class, and the hot tenant absorbs >= 90% of the sheds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "obs/obs.hpp"
#include "service/query_service.hpp"
#include "service/remos_client.hpp"
#include "service/result_cache.hpp"
#include "service/tenant_admission.hpp"
#include "snmp/fault_injector.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "timing.hpp"

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

GraphQuery graph_query(std::vector<std::string> nodes) {
  GraphQuery q;
  q.nodes = std::move(nodes);
  return q;
}

/// Smallest known used_ab accuracy across a response's links.
double min_used_accuracy(const GraphResponse& r) {
  double acc = 1.0;
  for (const core::GraphLink& l : r.graph.links())
    if (l.used_ab.known()) acc = std::min(acc, l.used_ab.accuracy);
  return acc;
}

/// Fills every admission slot through the service's mutable admission
/// surface so the next submit deterministically hits the shed path.
/// Returns the number of slots held (release them when done).
std::size_t occupy_all_slots(QueryService& svc, int tenant) {
  std::size_t held = 0;
  while (svc.admission().try_acquire(tenant)) ++held;
  return held;
}

void release_slots(QueryService& svc, int tenant, std::size_t held) {
  for (std::size_t i = 0; i < held; ++i) svc.admission().release(tenant);
}

// --- TenantAdmission: weighted slices ---------------------------------

TEST(TenantAdmission, WeightedSlicesFollowTheFormula) {
  TenantAdmission adm({40, 0.75, 8});
  const int a = adm.register_tenant("a", 2.0);
  const int b = adm.register_tenant("b", 1.0);
  // Weights: default 1 + a 2 + b 1 = 4; reserved budget 40 * 0.75 = 30.
  EXPECT_EQ(adm.tenant_stats(TenantAdmission::kDefaultTenant).reserved_slots,
            7u);  // floor(30 * 1/4)
  EXPECT_EQ(adm.tenant_stats(a).reserved_slots, 15u);  // floor(30 * 2/4)
  EXPECT_EQ(adm.tenant_stats(b).reserved_slots, 7u);
  EXPECT_EQ(adm.pool_size(), 40u - 29u);
  EXPECT_EQ(adm.capacity(), 40u);
  EXPECT_EQ(adm.tenant_count(), 3u);
}

TEST(TenantAdmission, MinimumOneSlotFloorCollapsesThePool) {
  // Budget 4, reserved fraction 0.5: six tenants' floors (1 slot each)
  // overshoot the budget, so the shared pool collapses to zero -- but
  // every tenant can still make progress through its guaranteed slot.
  TenantAdmission adm({4, 0.5, 8});
  std::vector<int> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(adm.register_tenant(concat("t", i), 1.0));
  EXPECT_EQ(adm.pool_size(), 0u);
  for (int id : ids) {
    EXPECT_EQ(adm.tenant_stats(id).reserved_slots, 1u);
    EXPECT_TRUE(adm.try_acquire(id));
  }
  for (int id : ids) adm.release(id);
  EXPECT_EQ(adm.in_flight(), 0u);
}

TEST(TenantAdmission, HotTenantSaturatesSlicePlusPoolVictimSliceHolds) {
  // Strict partition plus remainder pool: default/a/b each get
  // floor(8/3) = 2 reserved, pool = 2.
  TenantAdmission adm({8, 1.0, 8});
  const int hot = adm.register_tenant("hot", 1.0);
  const int victim = adm.register_tenant("victim", 1.0);

  // The hot tenant grabs its slice (2) plus the whole pool (2) ...
  int hot_got = 0;
  while (adm.try_acquire(hot)) ++hot_got;
  EXPECT_EQ(hot_got, 4);
  EXPECT_EQ(adm.tenant_stats(hot).shed, 1u);

  // ... yet the victim's reserved slice is untouched: isolation by
  // construction.  Its third acquire sheds (slice full, pool drained).
  EXPECT_TRUE(adm.try_acquire(victim));
  EXPECT_TRUE(adm.try_acquire(victim));
  EXPECT_FALSE(adm.try_acquire(victim));
  EXPECT_EQ(adm.tenant_stats(victim).admitted, 2u);

  adm.release(victim);
  adm.release(victim);
  for (int i = 0; i < hot_got; ++i) adm.release(hot);
  EXPECT_EQ(adm.in_flight(), 0u);
  EXPECT_EQ(adm.pool_in_use(), 0u);
}

TEST(TenantAdmission, UnknownTenantFallsBackToDefault) {
  TenantAdmission adm({4, 0.75, 4});
  EXPECT_TRUE(adm.try_acquire(99));
  EXPECT_EQ(adm.tenant_stats(TenantAdmission::kDefaultTenant).admitted, 1u);
  adm.release(99);
  EXPECT_EQ(adm.in_flight(), 0u);
}

TEST(TenantAdmission, ValidatesOptionsAndRegistration) {
  EXPECT_THROW(TenantAdmission({0, 0.75, 4}), InvalidArgument);
  EXPECT_THROW(TenantAdmission({8, 1.5, 4}), InvalidArgument);
  EXPECT_THROW(TenantAdmission({8, 0.75, 0}), InvalidArgument);
  TenantAdmission adm({8, 0.75, 2});  // default + 1 more
  EXPECT_THROW(adm.register_tenant("bad", 0.0), InvalidArgument);
  EXPECT_THROW(adm.register_tenant("bad", -1.0), InvalidArgument);
  adm.register_tenant("ok", 1.0);
  EXPECT_THROW(adm.register_tenant("overflow", 1.0), InvalidArgument);
  EXPECT_THROW(adm.set_budget(0), InvalidArgument);
}

TEST(TenantAdmission, BudgetResizeRecomputesSlicesAndDrainsNaturally) {
  TenantAdmission adm({16, 1.0, 4});
  const int a = adm.register_tenant("a", 1.0);
  int got = 0;
  while (adm.try_acquire(a)) ++got;
  ASSERT_GT(got, 4);

  // Shrink below the current in-flight: nothing breaks, no new
  // admissions land, and releases drain the excess naturally.
  adm.set_budget(2);
  EXPECT_EQ(adm.capacity(), 2u);
  EXPECT_FALSE(adm.try_acquire(a));
  for (int i = 0; i < got; ++i) adm.release(a);
  EXPECT_EQ(adm.in_flight(), 0u);
  EXPECT_EQ(adm.pool_in_use(), 0u);
  EXPECT_TRUE(adm.try_acquire(a));
  adm.release(a);

  // Growing re-opens admissions immediately.
  adm.set_budget(64);
  EXPECT_EQ(adm.capacity(), 64u);
  got = 0;
  while (adm.try_acquire(a)) ++got;
  EXPECT_GT(got, 16);
  for (int i = 0; i < got; ++i) adm.release(a);
}

// --- TenantAdmission: concurrency invariants --------------------------

TEST(TenantAdmission, ConcurrentAcquireReleaseStormLeaksNothing) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  TenantAdmission adm({12, 0.75, 4});
  const int a = adm.register_tenant("a", 2.0);
  const int b = adm.register_tenant("b", 1.0);
  const int tenants[3] = {TenantAdmission::kDefaultTenant, a, b};

  std::atomic<std::uint64_t> attempts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int id = tenants[(t + i) % 3];
        attempts.fetch_add(1, std::memory_order_relaxed);
        if (adm.try_acquire(id)) {
          if (i % 64 == 0) std::this_thread::yield();
          adm.release(id);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Conservation: every admitted slot came back, the pool is empty, and
  // the high-water mark never broke the budget.
  EXPECT_EQ(adm.in_flight(), 0u);
  EXPECT_EQ(adm.pool_in_use(), 0u);
  for (int id : tenants) EXPECT_EQ(adm.tenant_stats(id).in_flight, 0u);
  EXPECT_LE(adm.high_water(), adm.capacity());
  EXPECT_EQ(adm.admitted() + adm.shed(), attempts.load());
}

TEST(TenantAdmission, AdmitRatiosTrackWeightsUnderContention) {
  // Strict partition, heavy:light weights 4:1.  Four threads per tenant
  // race acquire-until-fail sweeps, hold everything they won across a
  // fixed sleep, then release.  Slots are therefore occupied nearly all
  // of the wall time, so sustained admissions per tenant converge on
  // slice_size x elapsed / hold_time -- proportional to the slice no
  // matter how the scheduler interleaves the threads (a per-thread
  // iteration clock would let a solo thread fake the same throughput).
  constexpr int kThreadsPerTenant = 4;
  constexpr int kCycles = 400;
  constexpr auto kHold = std::chrono::microseconds(100);
  TenantAdmission adm({12, 1.0, 4});
  const int heavy = adm.register_tenant("heavy", 4.0);
  const int light = adm.register_tenant("light", 1.0);
  // Weights: default 1 + heavy 4 + light 1 = 6; heavy floor(12*4/6) = 8,
  // light floor(12*1/6) = 2, default 2, pool 0.
  ASSERT_EQ(adm.tenant_stats(heavy).reserved_slots, 8u);
  ASSERT_EQ(adm.tenant_stats(light).reserved_slots, 2u);
  ASSERT_EQ(adm.pool_size(), 0u);

  std::vector<std::thread> threads;
  for (int t = 0; t < 2 * kThreadsPerTenant; ++t) {
    const int id = t < kThreadsPerTenant ? heavy : light;
    threads.emplace_back([&, id] {
      for (int c = 0; c < kCycles; ++c) {
        std::size_t held = 0;
        while (adm.try_acquire(id)) ++held;
        std::this_thread::sleep_for(kHold);
        for (std::size_t j = 0; j < held; ++j) adm.release(id);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::uint64_t heavy_admitted = adm.tenant_stats(heavy).admitted;
  const std::uint64_t light_admitted = adm.tenant_stats(light).admitted;
  EXPECT_EQ(adm.in_flight(), 0u);
  EXPECT_EQ(adm.pool_in_use(), 0u);
  // Starvation-free, and the 4x-weighted tenant sustains clearly more
  // than 2x the admissions (the ideal ratio is 4).
  EXPECT_GT(light_admitted, 0u);
  EXPECT_GT(heavy_admitted, 2 * light_admitted)
      << "heavy=" << heavy_admitted << " light=" << light_admitted;
}

// --- AimdController ---------------------------------------------------

TEST(AimdController, ShrinksOnSlowWindowsGrowsOnFastOnes) {
  TenantAdmission adm({8, 0.75, 4});
  AimdController::Options o;
  o.min_budget = 2;
  o.max_budget = 16;
  o.additive_step = 2;
  o.decrease_factor = 0.5;
  o.window = 4;
  o.target_ratio = 0.5;
  AimdController ctrl(o, 1000us);  // target p99 = 500us

  // A fast window: additive increase from the adopted budget (8).
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(ctrl.on_complete(100us, adm));
  EXPECT_TRUE(ctrl.on_complete(100us, adm));
  EXPECT_EQ(adm.capacity(), 10u);
  EXPECT_EQ(ctrl.increases(), 1u);

  // A slow window: multiplicative decrease.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(ctrl.on_complete(900us, adm));
  EXPECT_TRUE(ctrl.on_complete(900us, adm));
  EXPECT_EQ(adm.capacity(), 5u);
  EXPECT_EQ(ctrl.decreases(), 1u);
}

TEST(AimdController, BudgetStaysInsideTheConfiguredBounds) {
  TenantAdmission adm({8, 0.75, 4});
  AimdController::Options o;
  o.min_budget = 2;
  o.max_budget = 16;
  o.additive_step = 2;
  o.decrease_factor = 0.5;
  o.window = 4;
  AimdController ctrl(o, 1000us);

  for (int w = 0; w < 10; ++w)
    for (int i = 0; i < 4; ++i) ctrl.on_complete(900us, adm);
  EXPECT_EQ(adm.capacity(), o.min_budget);

  for (int w = 0; w < 20; ++w)
    for (int i = 0; i < 4; ++i) ctrl.on_complete(10us, adm);
  EXPECT_EQ(adm.capacity(), o.max_budget);
}

TEST(AimdController, ValidatesOptions) {
  AimdController::Options o;
  o.min_budget = 0;
  EXPECT_THROW(AimdController(o, 1000us), InvalidArgument);
  o = {};
  o.max_budget = o.min_budget - 1;
  EXPECT_THROW(AimdController(o, 1000us), InvalidArgument);
  o = {};
  o.window = 0;
  EXPECT_THROW(AimdController(o, 1000us), InvalidArgument);
  o = {};
  o.decrease_factor = 1.0;
  EXPECT_THROW(AimdController(o, 1000us), InvalidArgument);
  o = {};
  EXPECT_THROW(AimdController(o, 0us), InvalidArgument);
}

TEST(AimdController, AdaptiveServiceGrowsBudgetWhenKeepingUp) {
  QueryService::Options o;
  o.workers = 2;
  o.queue_capacity = 16;
  o.adaptive = true;
  o.aimd.min_budget = 8;
  o.aimd.max_budget = 128;
  o.aimd.additive_step = 4;
  o.aimd.window = 64;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  // Sequential microsecond-class queries: every window's p99 sits far
  // below the 50ms target, so the controller only ever grows the budget.
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(svc.get_graph(graph_query({"a", "b"})).meta.ok());
  svc.stop();

  ASSERT_NE(svc.aimd(), nullptr);
  EXPECT_GE(svc.aimd()->increases(), 1u);
  EXPECT_EQ(svc.aimd()->decreases(), 0u);
  EXPECT_GT(svc.stats().admission_budget, o.queue_capacity);
  EXPECT_EQ(svc.stats().admission_budget, svc.admission().capacity());
}

// --- ResultCache: canonical fingerprints ------------------------------

TEST(ResultCache, CanonicalKeyNormalizesWhatDoesNotChangeTheAnswer) {
  // Node order and duplicates do not change a graph answer.
  EXPECT_EQ(canonical_key(graph_query({"b", "a"})),
            canonical_key(graph_query({"a", "b"})));
  EXPECT_EQ(canonical_key(graph_query({"a", "a", "b"})),
            canonical_key(graph_query({"a", "b"})));
  EXPECT_NE(canonical_key(graph_query({"a", "b"})),
            canonical_key(graph_query({"a", "c"})));

  // Deadline, staleness budget and tracing shape *how* the answer is
  // produced, not *what* it is: excluded from the fingerprint.
  GraphQuery q1 = graph_query({"a", "b"});
  GraphQuery q2 = graph_query({"a", "b"});
  q2.deadline = 5ms;
  q2.max_staleness = 1.0;
  q2.trace = true;
  q2.tenant = 3;
  EXPECT_EQ(canonical_key(q1), canonical_key(q2));

  // Timeframe and logical options do change the answer.
  GraphQuery q3 = graph_query({"a", "b"});
  q3.timeframe = core::Timeframe::future(30.0);
  EXPECT_NE(canonical_key(q1), canonical_key(q3));
  GraphQuery q4 = graph_query({"a", "b"});
  q4.options.collapse_chains = !q4.options.collapse_chains;
  EXPECT_NE(canonical_key(q1), canonical_key(q4));
}

TEST(ResultCache, FlowKeyPreservesAdmissionOrder) {
  // Fixed flows are admitted sequentially: [a>b, b>a] and [b>a, a>b]
  // are different questions when capacity is tight.
  FlowInfoQuery fwd;
  fwd.query.fixed = {core::FlowRequest{"a", "b", mbps(5)},
                     core::FlowRequest{"b", "a", mbps(5)}};
  FlowInfoQuery rev;
  rev.query.fixed = {core::FlowRequest{"b", "a", mbps(5)},
                     core::FlowRequest{"a", "b", mbps(5)}};
  EXPECT_NE(canonical_key(fwd), canonical_key(rev));

  FlowInfoQuery same = fwd;
  same.deadline = 1ms;
  same.trace = true;
  EXPECT_EQ(canonical_key(fwd), canonical_key(same));

  // The same flows in a different role are a different question.
  FlowInfoQuery variable;
  variable.query.variable = fwd.query.fixed;
  EXPECT_NE(canonical_key(fwd), canonical_key(variable));
}

// --- ResultCache: service integration ---------------------------------

QueryService::Options cached_options() {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  o.cache_capacity = 8;
  o.brownout_halflife = 30.0;
  o.staleness_slo = 1e9;  // staleness flagging is separately tested
  return o;
}

TEST(ResultCache, FreshHitRequiresExactVersionMatch) {
  QueryService svc(cached_options());
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  const GraphResponse miss = svc.get_graph(graph_query({"a", "b"}));
  ASSERT_EQ(miss.meta.status, QueryStatus::kAnswered);
  EXPECT_FALSE(miss.meta.from_cache);
  EXPECT_EQ(miss.meta.snapshot_version, 1u);

  // Same canonical fingerprint, same version: O(1) fresh hit that
  // consumes no admission slot.
  const std::uint64_t admitted_before = svc.admission().admitted();
  const GraphResponse hit = svc.get_graph(graph_query({"b", "a"}));
  EXPECT_EQ(hit.meta.status, QueryStatus::kAnswered);
  EXPECT_TRUE(hit.meta.from_cache);
  EXPECT_EQ(hit.meta.snapshot_version, 1u);
  EXPECT_EQ(svc.admission().admitted(), admitted_before);
  EXPECT_EQ(svc.stats().cache_hits, 1u);

  // A version bump invalidates the fresh path: the next query executes
  // against the new snapshot and re-primes the cache at v2.
  svc.publish(tiny_model(1.0), 1.0);
  const GraphResponse refreshed = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_FALSE(refreshed.meta.from_cache);
  EXPECT_EQ(refreshed.meta.snapshot_version, 2u);
  const GraphResponse hit2 = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_TRUE(hit2.meta.from_cache);
  EXPECT_EQ(hit2.meta.snapshot_version, 2u);
  svc.stop();
}

TEST(ResultCache, FreshHitOfAnAgedSnapshotStaysFlaggedStale) {
  QueryService::Options o = cached_options();
  o.staleness_slo = 10.0;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  ASSERT_EQ(svc.get_graph(graph_query({"a", "b"})).meta.status,
            QueryStatus::kAnswered);

  // The model clock advances past the SLO with no new snapshot: the
  // cached payload is still the current version's answer, but it must
  // be re-flagged kStale -- a cache hit never hides staleness.
  svc.note_model_now(50.0);
  const GraphResponse hit = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_TRUE(hit.meta.from_cache);
  EXPECT_EQ(hit.meta.status, QueryStatus::kStale);
  EXPECT_NEAR(hit.meta.snapshot_age, 50.0, 1e-9);
  svc.stop();
}

TEST(ResultCache, BrownoutServesDiscountedCachedAnswerUnderOverload) {
  QueryService svc(cached_options());
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  const GraphResponse fresh = svc.get_graph(graph_query({"a", "b"}));
  ASSERT_EQ(fresh.meta.status, QueryStatus::kAnswered);
  const double fresh_acc = min_used_accuracy(fresh);
  ASSERT_GT(fresh_acc, 0.0);

  // v2 exists (the v1 cache entry is no longer fresh) and the model
  // clock sits exactly one half-life past v1's capture time.
  svc.publish(tiny_model(10.0), 10.0);
  svc.note_model_now(30.0);

  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);
  ASSERT_EQ(held, 2u);
  // occupy_all_slots probes until try_acquire fails, so it already
  // charged one shed to the tenant; measure the query's shed as a delta.
  const std::uint64_t sheds_before =
      svc.admission().tenant_stats(TenantAdmission::kDefaultTenant).shed;

  // Admission is full, but the v1 answer exists: the brownout rung
  // serves it as kDegraded with accuracy halved (age 30s, half-life
  // 30s) -- never presented as a fresh answer.
  const GraphResponse browned = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(browned.meta.status, QueryStatus::kDegraded);
  EXPECT_TRUE(browned.meta.from_cache);
  EXPECT_TRUE(browned.meta.ok());
  EXPECT_EQ(browned.meta.snapshot_version, 1u);
  EXPECT_DOUBLE_EQ(min_used_accuracy(browned), 0.5 * fresh_acc);

  // The admission-level shed is still attributed to the tenant even
  // though the caller got an answer (the soak's shed-share accounting
  // depends on this).
  EXPECT_EQ(
      svc.admission().tenant_stats(TenantAdmission::kDefaultTenant).shed,
      sheds_before + 1);
  EXPECT_EQ(svc.stats().degraded, 1u);

  // A fingerprint the cache has never answered cannot brown out: it is
  // shed with a structured kOverloaded.
  const GraphResponse shed = svc.get_graph(graph_query({"a", "r"}));
  EXPECT_EQ(shed.meta.status, QueryStatus::kOverloaded);
  EXPECT_FALSE(shed.meta.from_cache);

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  const GraphResponse after = svc.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(after.meta.status, QueryStatus::kAnswered);
  EXPECT_EQ(after.meta.snapshot_version, 2u);
  svc.stop();

  // Client-visible outcome identity still holds with the new statuses.
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, s.answered + s.stale + s.degraded + s.shed +
                             s.expired + s.errors);
}

TEST(ResultCache, TracedQueriesBypassTheCache) {
  QueryService svc(cached_options());
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  GraphQuery q = graph_query({"a", "b"});
  q.trace = true;
  const GraphResponse first = svc.get_graph(q);
  ASSERT_TRUE(first.meta.ok());
  EXPECT_FALSE(first.meta.from_cache);
  EXPECT_FALSE(first.meta.trace.spans.empty());
  GraphQuery again = graph_query({"a", "b"});
  again.trace = true;
  const GraphResponse second = svc.get_graph(again);
  EXPECT_FALSE(second.meta.from_cache);
  EXPECT_FALSE(second.meta.trace.spans.empty());
  ASSERT_NE(svc.graph_cache(), nullptr);
  EXPECT_EQ(svc.graph_cache()->size(), 0u);
  svc.stop();
}

TEST(ResultCache, ZeroCapacityDisablesCachingAndBrownout) {
  QueryService svc;  // defaults: cache_capacity = 0
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  EXPECT_FALSE(svc.get_graph(graph_query({"a", "b"})).meta.from_cache);
  EXPECT_FALSE(svc.get_graph(graph_query({"a", "b"})).meta.from_cache);
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  ASSERT_NE(svc.graph_cache(), nullptr);
  EXPECT_FALSE(svc.graph_cache()->enabled());
  svc.stop();
}

TEST(ResultCache, InsertKeepsOnlyTheNewestVersionPerFingerprint) {
  // A slow worker finishing against an old snapshot must not roll the
  // cache back below a newer entry.
  SnapshotStore store;
  store.publish(tiny_model(0.0), 0.0);
  store.publish(tiny_model(1.0), 1.0);
  ResultCache<GraphResponse> cache({4});
  GraphResponse v2;
  v2.meta.snapshot_version = 2;
  cache.insert("k", v2, 2, 1.0, store.acquire(2));
  GraphResponse v1;
  v1.meta.snapshot_version = 1;
  cache.insert("k", v1, 1, 0.0, store.acquire(1));  // dropped: older
  const auto hit = cache.find("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->version, 2u);
  EXPECT_EQ(hit->response.meta.snapshot_version, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, LruEvictsTheColdestFingerprint) {
  SnapshotStore store;
  store.publish(tiny_model(0.0), 0.0);
  ResultCache<GraphResponse> cache({2});
  cache.insert("a", GraphResponse{}, 1, 0.0, store.acquire(1));
  cache.insert("b", GraphResponse{}, 1, 0.0, store.acquire(1));
  ASSERT_TRUE(cache.find("a").has_value());  // touch: "b" is now coldest
  cache.insert("c", GraphResponse{}, 1, 0.0, store.acquire(1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.find("a").has_value());
  EXPECT_FALSE(cache.find("b").has_value());
  EXPECT_TRUE(cache.find("c").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

// --- RemosClient: retry budgets ---------------------------------------

TEST(RemosClient, RetriesShedQueriesAndStopsAtMaxAttempts) {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  QueryService svc(o);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);

  RemosClient::Options co;
  co.max_attempts = 3;
  co.base_backoff = 50us;
  RemosClient client(svc, co);
  const GraphResponse r = client.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(r.meta.status, QueryStatus::kOverloaded);
  const RemosClient::Stats s = client.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.attempts, 3u);
  EXPECT_EQ(s.retries, 2u);

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  svc.stop();
}

TEST(RemosClient, NeverAmplifiesBeyondTheRetryBudget) {
  // Worst case: every attempt is shed.  The retry budget caps total
  // server-visible load at (1 + ratio) x base plus the banked burst --
  // inside the 1.3x amplification ceiling at this request count.
  constexpr std::uint64_t kRequests = 200;
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  QueryService svc(o);
  svc.start();
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);

  RemosClient::Options co;
  co.max_attempts = 3;
  co.retry_budget_ratio = 0.2;
  co.retry_budget_cap = 10.0;
  co.base_backoff = 20us;
  RemosClient client(svc, co);
  for (std::uint64_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(client.get_graph(graph_query({"a", "b"})).meta.status,
              QueryStatus::kOverloaded);

  const RemosClient::Stats s = client.stats();
  EXPECT_EQ(s.requests, kRequests);
  EXPECT_GT(s.attempts, kRequests);  // some retries happened ...
  EXPECT_LE(static_cast<double>(s.attempts),
            1.3 * static_cast<double>(kRequests));  // ... boundedly
  EXPECT_GT(s.suppressed, 0u);  // the budget ran dry and said so

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  svc.stop();
}

TEST(RemosClient, ZeroBudgetSuppressesEveryRetry) {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  QueryService svc(o);
  svc.start();
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);

  RemosClient::Options co;
  co.retry_budget_ratio = 0.0;
  co.retry_budget_cap = 0.0;
  RemosClient client(svc, co);
  for (int i = 0; i < 10; ++i) client.get_graph(graph_query({"a", "b"}));
  const RemosClient::Stats s = client.stats();
  EXPECT_EQ(s.attempts, s.requests);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.suppressed, 10u);

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  svc.stop();
}

TEST(RemosClient, BackoffThatOutlivesTheDeadlineIsNotSlept) {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 2;
  QueryService svc(o);
  svc.start();
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);

  RemosClient::Options co;
  co.max_attempts = 5;
  co.base_backoff = 10ms;  // dwarfs the 3ms deadline below
  co.jitter = 0.1;
  RemosClient client(svc, co);
  GraphQuery q = graph_query({"a", "b"});
  q.deadline = 3ms;
  const auto t0 = std::chrono::steady_clock::now();
  const GraphResponse r = client.get_graph(q);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.meta.status, QueryStatus::kOverloaded);
  const RemosClient::Stats s = client.stats();
  EXPECT_EQ(s.attempts, 1u);  // no doomed retry was issued
  EXPECT_EQ(s.suppressed, 1u);
  EXPECT_LT(took, 100ms);  // returned promptly, not after the backoff

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  svc.stop();
}

TEST(RemosClient, AnswersAndBrownoutsAreNotRetried) {
  QueryService svc(cached_options());
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  RemosClient client(svc, {});
  ASSERT_EQ(client.get_graph(graph_query({"a", "b"})).meta.status,
            QueryStatus::kAnswered);
  EXPECT_EQ(client.stats().attempts, 1u);

  // Force the brownout rung: v2 published, all slots held, v1 cached.
  svc.publish(tiny_model(1.0), 1.0);
  const std::size_t held =
      occupy_all_slots(svc, TenantAdmission::kDefaultTenant);
  const GraphResponse browned = client.get_graph(graph_query({"a", "b"}));
  EXPECT_EQ(browned.meta.status, QueryStatus::kDegraded);
  // kDegraded is an answer, not a failure: exactly one more attempt.
  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_EQ(client.stats().retries, 0u);

  release_slots(svc, TenantAdmission::kDefaultTenant, held);
  svc.stop();
}

TEST(RemosClient, StampsItsTenantOnEveryQuery) {
  QueryService::Options o;
  o.workers = 1;
  o.queue_capacity = 8;
  QueryService svc(o);
  const int app = svc.register_tenant("app", 2.0);
  svc.start();
  svc.publish(tiny_model(0.0), 0.0);

  RemosClient::Options co;
  co.tenant = app;
  RemosClient client(svc, co);
  GraphQuery q = graph_query({"a", "b"});
  q.tenant = TenantAdmission::kDefaultTenant;  // overwritten by the client
  ASSERT_TRUE(client.get_graph(q).meta.ok());
  EXPECT_EQ(svc.admission().tenant_stats(app).admitted, 1u);
  EXPECT_EQ(
      svc.admission().tenant_stats(TenantAdmission::kDefaultTenant).admitted,
      0u);
  svc.stop();
}

TEST(RemosClient, ValidatesOptions) {
  QueryService svc;
  RemosClient::Options co;
  co.max_attempts = 0;
  EXPECT_THROW(RemosClient(svc, co), InvalidArgument);
  co = {};
  co.retry_budget_ratio = -0.1;
  EXPECT_THROW(RemosClient(svc, co), InvalidArgument);
  co = {};
  co.jitter = 1.5;
  EXPECT_THROW(RemosClient(svc, co), InvalidArgument);
}

// --- The hot-tenant storm soak ----------------------------------------

// TSan slows every query by 5-20x but the soak's latency gates are wall
// clock; stretch deadlines and floors so the *ratios* stay meaningful
// instead of measuring sanitizer overhead.
#ifdef REMOS_TSAN
constexpr int kTimeScale = 10;
#else
constexpr int kTimeScale = 1;
#endif

constexpr int kVictims = 7;
constexpr int kQueriesPerVictim = 400;
constexpr auto kVictimSpacing = 150us;
constexpr auto kVictimDeadline = kTimeScale * 50ms;

std::chrono::microseconds percentile(
    std::vector<std::chrono::microseconds> v, double p) {
  if (v.empty()) return std::chrono::microseconds(0);
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

struct SoakResult {
  std::vector<std::chrono::microseconds> victim_p99;  // per victim
  std::vector<std::uint64_t> victim_ok;               // ok() outcomes
  std::vector<std::uint64_t> victim_total;
  std::uint64_t victim_sheds = 0;  // admission-level, across victims
  std::uint64_t hot_sheds = 0;
  std::uint64_t total_sheds = 0;
  RemosClient::Stats hot;
  ServiceStats stats;
};

/// One soak configuration: 7 paced victim tenants (and, when `with_hot`,
/// one unpaced hot tenant hammering varied fingerprints through a
/// retrying client) against a 16-slot strictly-sliced service while the
/// PR 1 fault schedule runs under the poller.
SoakResult run_soak(bool with_hot) {
  CmuHarness::Options ho;
  ho.poll_period = 2.0;
  CmuHarness h(ho);
  snmp::FaultInjector& fx = h.fault_injector();
  fx.loss_burst({10.0, 40.0}, 0.30);
  fx.crash(snmp::agent_address("timberline"), {50.0, 70.0});
  fx.counter_reset(snmp::agent_address("aspen"), 80.0);
  fx.crash(snmp::agent_address("whiteface"), {90.0, 120.0});
  h.start(6.0);

  QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 16;
  so.reserved_fraction = 1.0;  // strict weighted slices: isolation
  so.default_deadline = kTimeScale * 100ms;
  so.staleness_slo = 1e9;
  so.poll_interval = 3ms;
  so.cache_capacity = 256;
  so.brownout_halflife = 30.0;
  auto svc = h.serve(so);

  std::vector<int> victims;
  for (int v = 0; v < kVictims; ++v)
    victims.push_back(
        svc->register_tenant(concat("victim-", v), 1.0));
  const int hot_id = svc->register_tenant("hot", 1.0);

  const std::vector<std::string> hosts = h.hosts();
  std::vector<std::vector<std::chrono::microseconds>> latencies(kVictims);
  std::vector<std::uint64_t> ok(kVictims, 0);

  std::atomic<bool> victims_done{false};
  std::vector<std::thread> threads;
  for (int v = 0; v < kVictims; ++v) {
    threads.emplace_back([&, v] {
      auto& lat = latencies[static_cast<std::size_t>(v)];
      lat.reserve(kQueriesPerVictim);
      for (int i = 0; i < kQueriesPerVictim; ++i) {
        GraphQuery q = graph_query(
            {hosts[static_cast<std::size_t>(v) % hosts.size()],
             hosts[static_cast<std::size_t>(v + 1 + i % 3) % hosts.size()]});
        q.tenant = victims[static_cast<std::size_t>(v)];
        q.deadline = kVictimDeadline;
        const auto t0 = std::chrono::steady_clock::now();
        const ResponseMeta meta = svc->get_graph(std::move(q)).meta;
        lat.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0));
        if (meta.ok()) ++ok[static_cast<std::size_t>(v)];
        std::this_thread::sleep_for(kVictimSpacing);
      }
    });
  }

  RemosClient::Options co;
  co.tenant = hot_id;
  co.max_attempts = 3;
  co.base_backoff = 100us;
  RemosClient hot_client(*svc, co);
  std::vector<std::thread> hot_threads;
  if (with_hot) {
    // Ten unpaced threads: in-flight hot demand (10) exceeds everything
    // the hot tenant can hold (1 reserved + 7 pool slots), so admission
    // genuinely sheds.  Each thread draws pseudo-random node triples
    // from an 8^3 = 512 fingerprint space against the 256-entry cache:
    // roughly half the queries find a cached-but-stale entry (the
    // poller bumps the snapshot version every few ms, so fresh hits are
    // rare) and brown out when shed, while the rest miss outright and
    // land their pressure on admission -- the worst case for the
    // victims the slices are supposed to isolate.
    for (int t = 0; t < 10; ++t) {
      hot_threads.emplace_back([&, t] {
        std::uint64_t s = 0x9e3779b97f4a7c15ull * static_cast<unsigned>(t + 1);
        while (!victims_done.load(std::memory_order_acquire)) {
          s ^= s << 13;
          s ^= s >> 7;
          s ^= s << 17;
          GraphQuery q;
          q.nodes = {hosts[(s >> 3) % hosts.size()],
                     hosts[(s >> 17) % hosts.size()],
                     hosts[(s >> 31) % hosts.size()]};
          hot_client.get_graph(std::move(q));
        }
      });
    }
  }

  for (std::thread& t : threads) t.join();
  victims_done.store(true, std::memory_order_release);
  for (std::thread& t : hot_threads) t.join();

  SoakResult r;
  for (int v = 0; v < kVictims; ++v) {
    r.victim_p99.push_back(
        percentile(latencies[static_cast<std::size_t>(v)], 0.99));
    r.victim_ok.push_back(ok[static_cast<std::size_t>(v)]);
    r.victim_total.push_back(
        latencies[static_cast<std::size_t>(v)].size());
    r.victim_sheds +=
        svc->admission().tenant_stats(victims[static_cast<std::size_t>(v)])
            .shed;
  }
  r.hot_sheds = svc->admission().tenant_stats(hot_id).shed;
  r.total_sheds = svc->admission().shed();
  r.hot = hot_client.stats();
  svc->stop();
  r.stats = svc->stats();
  return r;
}

TEST(OverloadSoak, HotTenantStormDoesNotStarveTheVictims) {
  const SoakResult base = run_soak(/*with_hot=*/false);
  const SoakResult storm = run_soak(/*with_hot=*/true);

  // The hot tenant really was hot: unpaced, it offered far more load
  // than any single victim's quota, and overload really occurred.
  EXPECT_GT(storm.hot.requests,
            static_cast<std::uint64_t>(kQueriesPerVictim));
  EXPECT_GT(storm.total_sheds, 50u);

  for (int v = 0; v < kVictims; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    ASSERT_EQ(storm.victim_total[i],
              static_cast<std::uint64_t>(kQueriesPerVictim));
    // Goodput: >= 95% of every victim's queries produced a payload
    // (answered, stale, or brownout-degraded).
    EXPECT_GE(static_cast<double>(storm.victim_ok[i]),
              0.95 * static_cast<double>(storm.victim_total[i]))
        << "victim " << v << " lost goodput";
    // Latency class: within 2x the hot-free baseline p99.  The 10ms
    // floor absorbs queueing behind admitted hot jobs plus scheduler
    // noise on sub-millisecond baselines -- weighted admission bounds
    // *concurrency*, not queue position, so a victim can legitimately
    // wait out one queue drain (~16 jobs).  The meaningful failure this
    // guards is victims being pushed toward their 50ms deadline, still
    // 2.5x above the gate.
    const auto floor_p99 =
        std::max(base.victim_p99[i],
                 kTimeScale * std::chrono::microseconds(10'000));
    EXPECT_LE(storm.victim_p99[i].count(), 2 * floor_p99.count())
        << "victim " << v << " baseline p99 " << base.victim_p99[i].count()
        << "us, storm p99 " << storm.victim_p99[i].count() << "us";
    EXPECT_LE(storm.victim_p99[i], kVictimDeadline);
  }

  // The hot tenant absorbed >= 90% of all sheds: overload pain lands on
  // its source.
  ASSERT_GT(storm.total_sheds, 0u);
  EXPECT_GE(static_cast<double>(storm.hot_sheds),
            0.90 * static_cast<double>(storm.total_sheds))
      << "hot=" << storm.hot_sheds << " victims=" << storm.victim_sheds
      << " total=" << storm.total_sheds;

  // The retrying hot client never amplified its offered load beyond the
  // 1.3x ceiling, shed rate notwithstanding.
  EXPECT_LE(static_cast<double>(storm.hot.attempts),
            1.3 * static_cast<double>(storm.hot.requests));

  // The ladder actually ran: fresh cache hits and brownout answers both
  // occurred, and the outcome identity held.
  EXPECT_GT(storm.stats.cache_hits, 0u);
  EXPECT_GT(storm.stats.degraded, 0u);
  EXPECT_EQ(storm.stats.submitted,
            storm.stats.answered + storm.stats.stale + storm.stats.degraded +
                storm.stats.shed + storm.stats.expired + storm.stats.errors);
}

}  // namespace
}  // namespace remos::service
