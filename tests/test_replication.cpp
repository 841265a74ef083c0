// The replicated snapshot plane (ISSUE 6): delta sync with gap
// detection -> full resync, redelivery idempotence, crash/restart state
// wipe, and the failover coordinator holding query success through a
// mid-storm fault schedule.
//
// The acceptance bar:
//   - a kill-a-replica soak: >= 8 client threads querying through the
//     FailoverCoordinator while the replication channel corrupts,
//     partitions and crash/restarts replicas; >= 99% of queries succeed
//     within their deadline, no gap between answers exceeds 1 s, and
//     every resynced replica converges bit-for-bit (by canonical
//     fingerprint) to the primary's newest snapshot;
//   - unit coverage for gap-detect -> resync and duplicate/reorder
//     idempotence, and delta apply and full resync cost at 256 and 1024
//     hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "obs/obs.hpp"
#include "service/failover.hpp"
#include "service/replication.hpp"
#include "util/strings.hpp"
#include "models.hpp"
#include "timing.hpp"

namespace remos::service {
namespace {

using namespace std::chrono_literals;
using Window = ChannelFaultInjector::Window;

collector::NetworkModel waxman_model(std::size_t hosts, std::uint64_t seed) {
  netsim::WaxmanParams wx;
  wx.hosts = hosts;
  wx.routers = std::max<std::size_t>(4, hosts / 4);
  wx.seed = seed;
  return test::quiet_model(make_waxman(wx));
}

/// One measurement round: fresh samples on `count` rotating links, and
/// every fifth round the next link's status toggles (structural churn).
void churn(collector::NetworkModel& model, int round, Seconds now,
           std::size_t count = 1) {
  auto& links = model.links();
  for (std::size_t k = 0; k < count; ++k) {
    collector::ModelLink& l =
        links[(static_cast<std::size_t>(round) * count + k) % links.size()];
    l.history.record(
        collector::Sample{now, mbps(5 + round % 7), mbps(1 + round % 3)});
    l.last_update = now;
  }
  if (round % 5 == 0) {
    collector::ModelLink& toggled =
        links[static_cast<std::size_t>(round / 5) % links.size()];
    toggled.up = !toggled.up;
  }
}

ReplicatedService::Options small_options(std::size_t replicas) {
  ReplicatedService::Options o;
  o.replicas = replicas;
  o.service.workers = 2;
  o.service.queue_capacity = 16;
  o.full_every = 1000;  // unit tests control full frames explicitly
  return o;
}

void expect_converged(ReplicatedService& rs) {
  ASSERT_GT(rs.primary_version(), 0u);
  for (std::size_t i = 0; i < rs.replica_count(); ++i) {
    EXPECT_EQ(rs.replica(i).applied_version(), rs.primary_version())
        << "replica " << i << " behind";
    EXPECT_EQ(rs.replica(i).fingerprint(), rs.primary_fingerprint())
        << "replica " << i << " diverged";
    EXPECT_FALSE(rs.replica(i).needs_full());
  }
}

TEST(Replication, CleanChannelConvergesByDeltas) {
  ReplicatedService rs(small_options(2));
  collector::NetworkModel model = waxman_model(16, 3);
  for (int round = 1; round <= 10; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  for (std::size_t i = 0; i < 2; ++i) {
    const ReplicaStore::Stats s = rs.replica(i).stats();
    EXPECT_EQ(s.fulls_applied, 1u);  // only v1 ships full
    EXPECT_EQ(s.deltas_applied, 9u);
    EXPECT_EQ(s.gaps, 0u);
    EXPECT_EQ(s.rejected, 0u);
  }
  EXPECT_EQ(rs.bus_stats().dropped, 0u);
}

TEST(Replication, PeriodicFullFramesAnchorTheDeltaStream) {
  ReplicatedService::Options o = small_options(1);
  o.full_every = 3;  // versions 1, 4, 7 ship full
  ReplicatedService rs(o);
  collector::NetworkModel model = waxman_model(12, 4);
  for (int round = 1; round <= 7; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_EQ(s.fulls_applied, 3u);
  EXPECT_EQ(s.deltas_applied, 4u);
}

TEST(Replication, DuplicatedFramesAreIgnoredIdempotently) {
  ReplicatedService::Options o = small_options(1);
  ReplicatedService rs(o);
  rs.faults().duplicate(Window{}, 1.0);  // every frame delivered twice
  collector::NetworkModel model = waxman_model(12, 5);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_EQ(s.gaps, 0u);
  EXPECT_GE(s.ignored_stale, 4u) << "second deliveries must be ignored";
  EXPECT_GE(rs.bus_stats().duplicated, 4u);
}

TEST(Replication, ReorderedFramesGapDetectAndResync) {
  ReplicatedService rs(small_options(1));
  // Every frame is held and delivered after its successor while the
  // window is open; the tail of the run is clean so the stream settles.
  rs.faults().reorder(Window{0.0, 4.5}, 1.0);
  collector::NetworkModel model = waxman_model(12, 6);
  for (int round = 1; round <= 8; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.gaps, 1u) << "out-of-order deltas must flag a gap";
  EXPECT_GE(rs.bus_stats().reordered, 1u);
}

TEST(Replication, DropWindowCausesGapThenTargetedFullResync) {
  ReplicatedService rs(small_options(1));
  rs.faults().drop(Window{1.5, 3.5}, 1.0);  // v2, v3 vanish
  collector::NetworkModel model = waxman_model(12, 7);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.gaps, 1u);
  EXPECT_GE(s.resyncs, 1u) << "the gap must be repaired by a full frame";
  EXPECT_GE(rs.bus_stats().dropped, 2u);
}

TEST(Replication, CorruptedAndTruncatedFramesAreRejectedThenRepaired) {
  ReplicatedService rs(small_options(1));
  rs.faults().corrupt(Window{1.5, 3.5}, 1.0);
  rs.faults().truncate(Window{1.5, 3.5}, 0.5);
  collector::NetworkModel model = waxman_model(12, 8);
  for (int round = 1; round <= 6; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  expect_converged(rs);
  const ReplicaStore::Stats s = rs.replica(0).stats();
  EXPECT_GE(s.rejected, 2u)
      << "in-flight corruption must be refused, never applied";
  EXPECT_GE(rs.bus_stats().mutated, 2u);
}

TEST(Replication, CrashWipesStateAndRestartFullResyncs) {
  ReplicatedService rs(small_options(2));
  rs.faults().crash(1, Window{2.5, 4.5});
  collector::NetworkModel model = waxman_model(12, 9);
  for (int round = 1; round <= 7; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
    if (round == 3 || round == 4) {
      EXPECT_FALSE(rs.replica(1).serving());
      EXPECT_TRUE(rs.replica(0).serving());
    }
  }
  expect_converged(rs);
  const ReplicaStore::Stats crashed = rs.replica(1).stats();
  EXPECT_EQ(crashed.restarts, 1u);
  EXPECT_GE(crashed.resyncs, 1u)
      << "restart wipes volatile state; recovery needs a full frame";
  const ReplicaStore::Stats untouched = rs.replica(0).stats();
  EXPECT_EQ(untouched.restarts, 0u);
  EXPECT_EQ(untouched.gaps, 0u);
  EXPECT_GE(rs.bus_stats().blackholed, 2u);
}

TEST(Failover, RoutesAroundACrashedReplica) {
  ReplicatedService rs(small_options(3));
  rs.start();
  rs.faults().crash(0, Window{3.5, 1e9});
  collector::NetworkModel model = waxman_model(12, 10);
  for (int round = 1; round <= 5; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  EXPECT_FALSE(rs.coordinator().healthy(0));
  EXPECT_TRUE(rs.coordinator().healthy(1));
  EXPECT_TRUE(rs.coordinator().healthy(2));
  EXPECT_EQ(rs.coordinator().healthy_count(), 2u);

  for (int i = 0; i < 21; ++i) {
    if (i % 3 == 0) {
      core::FlowQuery fq;
      fq.fixed = {core::FlowRequest{"h0", "h5", mbps(5)}};
      FlowInfoQuery q;
      q.query = std::move(fq);
      const FlowInfoResponse resp = rs.coordinator().flow_info(std::move(q));
      EXPECT_TRUE(resp.meta.ok()) << resp.meta.error;
    } else {
      GraphQuery q;
      q.nodes = {"h0", concat("h", 1 + i % 5)};
      const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
      EXPECT_TRUE(resp.meta.ok()) << resp.meta.error;
    }
  }
  const FailoverCoordinator::Stats fs = rs.coordinator().stats();
  EXPECT_EQ(fs.queries, 21u);
  EXPECT_GE(fs.rerouted, 1u)
      << "round-robin picks of the dead replica must be rerouted";
  EXPECT_EQ(fs.unrouted, 0u);
  rs.stop();
}

TEST(Failover, NoServingReplicaIsAStructuredError) {
  ReplicatedService rs(small_options(2));
  rs.start();
  collector::NetworkModel model = waxman_model(12, 11);
  rs.publish(model, 1.0);
  rs.faults().crash(0, Window{1.5, 1e9});
  rs.faults().crash(1, Window{1.5, 1e9});
  rs.publish(model, 2.0);
  EXPECT_EQ(rs.coordinator().healthy_count(), 0u);

  GraphQuery q;
  q.nodes = {"h0", "h1"};
  const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(resp.meta.status, QueryStatus::kError);
  EXPECT_FALSE(resp.meta.error.empty());
  EXPECT_GE(rs.coordinator().stats().unrouted, 1u);
  rs.stop();
}

TEST(Failover, SubSliceDeadlineFailsFast) {
  // A total deadline that cannot cover even one min_attempt_slice is
  // rejected before any replica is touched: a synthesized kExpired with
  // a structured error beats issuing a doomed near-zero-budget attempt.
  obs::Observability obs;
  ReplicatedService::Options o = small_options(1);
  o.failover.min_attempt_slice = std::chrono::microseconds(50'000);
  ReplicatedService rs(o, obs.view());
  rs.start();
  collector::NetworkModel model = waxman_model(12, 21);
  rs.publish(model, 1.0);

  GraphQuery q;
  q.nodes = {"h0", "h1"};
  q.deadline = std::chrono::microseconds(49'999);
  const GraphResponse resp = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(resp.meta.status, QueryStatus::kExpired);
  EXPECT_NE(resp.meta.error.find("minimum attempt slice"),
            std::string::npos);
  EXPECT_EQ(rs.coordinator().stats().fast_expired, 1u);
  // Fast means fast: the replica's service never saw the query.
  EXPECT_EQ(rs.replica(0).service().stats().submitted, 0u);
  EXPECT_EQ(
      obs.metrics.counter("remos_failover_fast_expired_total", {}).value(),
      1u);

  // The boundary is strict (<): a deadline of exactly one slice is
  // viable -- the clamp trims max_attempts down to the one attempt the
  // budget covers, and the query is answered.
  GraphQuery exact;
  exact.nodes = {"h0", "h1"};
  exact.deadline = std::chrono::microseconds(50'000);
  const GraphResponse answered = rs.coordinator().get_graph(std::move(exact));
  EXPECT_TRUE(answered.meta.ok());
  EXPECT_EQ(rs.coordinator().stats().fast_expired, 1u);
  EXPECT_EQ(rs.replica(0).service().stats().submitted, 1u);
  rs.stop();
}

TEST(Failover, UnroutedAndDegradedFallbackAreExported) {
  // The two "the plane is hurting" outcomes -- no routable replica at
  // all, and a stale-fallback answer from an unhealthy replica -- must
  // reach the metrics registry, not just the in-process Stats struct:
  // they are exactly what an operator alerts on.
  obs::Observability obs;
  ReplicatedService::Options o = small_options(1);
  o.failover.max_lag_versions = 4;
  ReplicatedService rs(o, obs.view());
  rs.start();

  // Nothing published yet: the replica has never synced, so the query
  // has nowhere to go.
  GraphQuery q;
  q.nodes = {"h0", "h1"};
  const GraphResponse none = rs.coordinator().get_graph(std::move(q));
  EXPECT_EQ(none.meta.status, QueryStatus::kError);
  EXPECT_EQ(rs.coordinator().stats().unrouted, 1u);
  EXPECT_EQ(obs.metrics.counter("remos_failover_unrouted_total", {}).value(),
            1u);

  // Three healthy rounds, then partition the replica and publish until
  // its lag breaches max_lag_versions: unhealthy, but still serving its
  // last applied snapshot.
  collector::NetworkModel model = waxman_model(12, 22);
  for (int round = 1; round <= 3; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  rs.faults().partition(0, Window{3.5, 1e9});
  for (int round = 4; round <= 12; ++round) {
    churn(model, round, round);
    rs.publish(model, round);
  }
  EXPECT_EQ(rs.coordinator().healthy_count(), 0u);
  EXPECT_TRUE(rs.replica(0).serving());

  GraphQuery q2;
  q2.nodes = {"h0", "h1"};
  const GraphResponse fallback = rs.coordinator().get_graph(std::move(q2));
  EXPECT_TRUE(fallback.meta.ok()) << fallback.meta.error;
  EXPECT_EQ(rs.coordinator().stats().degraded_fallback, 1u);
  EXPECT_EQ(
      obs.metrics.counter("remos_failover_degraded_fallback_total", {})
          .value(),
      1u);
  rs.stop();
}

// --- the kill-a-replica soak -----------------------------------------

struct Storm {
  int clients = 8;
  int rounds = 120;
  std::size_t hosts = 24;
  Seconds crash_end = 90.0;  // replica 2 is down from round 60 to here
  Seconds staleness_slo = 20.0;
};

void expect_failover_holds(const Storm& storm) {
  constexpr auto kDeadline = 2'000'000us;
  const int hosts = static_cast<int>(storm.hosts);

  ReplicatedService::Options o;
  o.replicas = 3;
  o.service.workers = 2;
  o.service.queue_capacity = 64;
  o.service.default_deadline = kDeadline;
  o.service.staleness_slo = storm.staleness_slo;
  o.full_every = 16;
  o.failover.max_lag_versions = 8;
  o.failover.max_attempts = 3;
  ReplicatedService rs(o);

  // The storm: channel-wide corruption and loss bursts, replica 1
  // partitioned, replica 2 crash/restarted -- all overlapping, all
  // finished well before the last round so the tail of the run must
  // reconverge.
  rs.faults().corrupt(Window{20.0, 50.0}, 0.30);
  rs.faults().drop(Window{40.0, 70.0}, 0.20);
  rs.faults().partition(1, Window{30.0, 60.0});
  rs.faults().crash(2, Window{60.0, storm.crash_end});

  rs.start();
  // Seed every replica with version 1 before any client runs, so the
  // soak measures mid-storm behavior rather than cold-start races.
  collector::NetworkModel seed_model = waxman_model(storm.hosts, 12);
  rs.publish(seed_model, 0.5);
  std::atomic<bool> done{false};
  std::thread publisher([&, model = std::move(seed_model)]() mutable {
    for (int round = 1; round <= storm.rounds; ++round) {
      churn(model, round, round);
      rs.publish(model, round);
      std::this_thread::sleep_for(2ms);
    }
    done.store(true, std::memory_order_release);
  });

  using Clock = std::chrono::steady_clock;
  struct Tally {
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::vector<std::chrono::microseconds> latencies;
    std::vector<Clock::time_point> answered_at;
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(storm.clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < storm.clients; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto t0 = Clock::now();
        ResponseMeta meta;
        if ((i + c) % 3 == 0) {
          core::FlowQuery fq;
          fq.fixed = {core::FlowRequest{
              concat("h", i % hosts),
              concat("h", (i + 7 + c) % hosts), mbps(5)}};
          FlowInfoQuery q;
          q.query = std::move(fq);
          meta = rs.coordinator().flow_info(std::move(q)).meta;
        } else {
          GraphQuery q;
          q.nodes = {concat("h", i % hosts),
                     concat("h", (i + 1 + c) % hosts)};
          meta = rs.coordinator().get_graph(std::move(q)).meta;
        }
        const auto t1 = Clock::now();
        tally.latencies.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0));
        if (meta.ok()) {
          ++tally.ok;
          tally.answered_at.push_back(t1);
        } else {
          ++tally.failed;
        }
        ++i;
      }
    });
  }
  publisher.join();
  for (std::thread& t : clients) t.join();
  rs.stop();

  Tally all;
  for (Tally& t : tallies) {
    all.ok += t.ok;
    all.failed += t.failed;
    all.latencies.insert(all.latencies.end(), t.latencies.begin(),
                         t.latencies.end());
    all.answered_at.insert(all.answered_at.end(), t.answered_at.begin(),
                           t.answered_at.end());
  }
  const std::uint64_t total = all.ok + all.failed;
  ASSERT_GT(total, 500u) << "clients barely ran";

  // The acceptance bar: >= 99% of queries succeed within their deadline
  // even while a replica is down and the channel is corrupting frames.
  const double success =
      static_cast<double>(all.ok) / static_cast<double>(total);
  EXPECT_GE(success, 0.99) << all.failed << " of " << total << " failed";
  std::sort(all.latencies.begin(), all.latencies.end());
  const auto p99 =
      all.latencies[std::min(all.latencies.size() - 1,
                             static_cast<std::size_t>(
                                 0.99 * static_cast<double>(
                                            all.latencies.size())))];
  EXPECT_LE(p99.count(), kDeadline.count()) << "p99 blew the deadline SLO";

  // Failover blackout: the longest stretch during which no query
  // succeeded anywhere, which well-routed failover keeps short even
  // while a replica is down.
  std::sort(all.answered_at.begin(), all.answered_at.end());
  Clock::duration blackout{0};
  for (std::size_t i = 1; i < all.answered_at.size(); ++i)
    blackout =
        std::max(blackout, all.answered_at[i] - all.answered_at[i - 1]);
  if (remos::test::kTimingChecked) {
    EXPECT_LE(blackout, 1000ms)
        << std::chrono::duration_cast<std::chrono::milliseconds>(blackout)
               .count()
        << " ms without an answer";
  }

  // The storm really happened and the coordinator really steered around
  // it.
  EXPECT_GT(rs.faults().faults_injected(), 0u);
  EXPECT_GE(rs.replica(2).stats().restarts, 1u);
  EXPECT_GE(rs.coordinator().stats().rerouted, 1u);

  // Bit-for-bit convergence: after the clean tail, every replica's
  // canonical fingerprint equals the primary's newest snapshot.
  expect_converged(rs);
}

TEST(ReplicationSoak, FailoverHoldsQuerySuccessThroughTheStorm) {
  expect_failover_holds(Storm{});
}

TEST(ReplicationSoak, FailoverHoldsThroughALongCrashOnALargerNetwork) {
  Storm storm;
  storm.clients = 4;
  storm.rounds = 150;
  storm.hosts = 32;
  storm.crash_end = 110.0;
  storm.staleness_slo = 30.0;
  expect_failover_holds(storm);
}

// --- the wire at size -------------------------------------------------

double micros_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ReplicationTiming, Waxman256DeltaSyncConvergesAndAppliesUnderFiveMs) {
  collector::NetworkModel primary = waxman_model(256, 7);
  collector::NetworkModel replica = primary;
  collector::NetworkModel base = primary;
  const std::size_t per_round = std::max<std::size_t>(
      1, primary.links().size() / 20);  // 5% of the links each round
  std::vector<double> apply_us;
  for (int round = 2; round <= 65; ++round) {
    churn(primary, round, round, per_round);
    const std::vector<std::uint8_t> wire = collector::encode_delta(
        base, static_cast<std::uint64_t>(round) - 1, primary,
        static_cast<std::uint64_t>(round), round);
    const auto t0 = std::chrono::steady_clock::now();
    collector::apply_delta(replica, collector::decode_frame(wire));
    apply_us.push_back(micros_since(t0));
    ASSERT_EQ(collector::model_fingerprint(replica),
              collector::model_fingerprint(primary))
        << "round " << round;
    base = primary;
  }
  std::sort(apply_us.begin(), apply_us.end());
  if (remos::test::kTimingChecked) {
    EXPECT_LE(apply_us[apply_us.size() / 2], 5000.0);
  }
}

TEST(ReplicationTiming, FatTree1024FullResyncRebuildsUnderFiveSeconds) {
  netsim::FatTreeParams ft;
  ft.k = 16;
  const collector::NetworkModel primary = test::quiet_model(make_fat_tree(ft));
  const auto t0 = std::chrono::steady_clock::now();
  const collector::NetworkModel rebuilt = collector::materialize(
      collector::decode_frame(collector::encode_full(primary, 5, 9.0)));
  const double seconds = micros_since(t0) / 1e6;
  EXPECT_EQ(collector::model_fingerprint(rebuilt),
            collector::model_fingerprint(primary));
  if (remos::test::kTimingChecked) {
    EXPECT_LE(seconds, 5.0);
  }
}

}  // namespace
}  // namespace remos::service
