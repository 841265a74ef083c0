// Replica failover, end to end: a primary Modeler streams versioned
// snapshot frames (deltas, periodic full anchors) to three in-process
// replicas over a deliberately hostile channel while client threads keep
// querying through the FailoverCoordinator.  Mid-run the channel
// corrupts and drops frames, partitions replica 1, and crash/restarts
// replica 2 -- and the queries keep getting answered, because the
// coordinator reroutes around the casualties.  At the end every replica
// must have converged bit-for-bit (canonical fingerprint) with the
// primary; the example exits nonzero if the story did not hold.
//
//   ./replica_failover
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "collector/network_model.hpp"
#include "collector/snapshot_codec.hpp"
#include "netsim/generators.hpp"
#include "netsim/topology.hpp"
#include "service/failover.hpp"
#include "service/replication.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;
using namespace std::chrono_literals;
using Window = service::ChannelFaultInjector::Window;

collector::NetworkModel build_model(const netsim::Topology& topo) {
  collector::NetworkModel model;
  for (const netsim::Node& n : topo.nodes())
    model.upsert_node(n.name, n.kind == netsim::NodeKind::kNetwork)
        .internal_bw = n.internal_bw;
  for (const netsim::Link& l : topo.links()) {
    collector::ModelLink& ml = model.upsert_link(
        topo.name_of(l.a), topo.name_of(l.b), l.capacity, l.latency);
    ml.last_update = 1.0;
    ml.history.record(collector::Sample{1.0, 0.0, 0.0});
  }
  return model;
}

}  // namespace

int main() {
  // A 32-host Waxman testbed, replicated three ways.
  service::ReplicatedService::Options o;
  o.replicas = 3;
  o.service.workers = 2;
  o.service.queue_capacity = 64;
  o.service.default_deadline = 2'000'000us;
  o.service.staleness_slo = 30.0;
  o.full_every = 16;
  service::ReplicatedService rs(o);

  // The storm script, in model-clock seconds (one publish round = 1s):
  // frames corrupted 30% of the time in [20,50), dropped 20% in [40,70),
  // replica 1 partitioned through [30,60), replica 2 down through
  // [60,90) and then restarted cold.
  rs.faults().corrupt(Window{20.0, 50.0}, 0.30);
  rs.faults().drop(Window{40.0, 70.0}, 0.20);
  rs.faults().partition(1, Window{30.0, 60.0});
  rs.faults().crash(2, Window{60.0, 90.0});

  rs.start();
  netsim::WaxmanParams wx;
  wx.hosts = 32;
  wx.routers = 8;
  wx.seed = 12;
  collector::NetworkModel model = build_model(make_waxman(wx));
  rs.publish(model, 0.5);

  constexpr int kRounds = 120;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int round = 1; round <= kRounds; ++round) {
      auto& links = model.links();
      collector::ModelLink& l = links[static_cast<std::size_t>(round) %
                                      links.size()];
      l.history.record(collector::Sample{static_cast<Seconds>(round),
                                         mbps(5 + round % 7),
                                         mbps(1 + round % 3)});
      l.last_update = round;
      rs.publish(model, round);
      std::this_thread::sleep_for(2ms);
    }
    done.store(true, std::memory_order_release);
  });

  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        service::GraphQuery q;
        q.nodes = {concat("h", i % 32),
                   concat("h", (i + 5 + c) % 32)};
        if (rs.coordinator().get_graph(std::move(q)).meta.ok())
          ok.fetch_add(1, std::memory_order_relaxed);
        else
          failed.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  publisher.join();
  for (std::thread& t : clients) t.join();
  rs.stop();

  const auto& bus = rs.bus_stats();
  std::cout << "publisher: " << kRounds << " rounds, version "
            << rs.primary_version() << "\n"
            << "channel:   " << bus.sent << " frames sent, " << bus.dropped
            << " dropped, " << bus.mutated << " corrupted, "
            << bus.blackholed << " blackholed\n"
            << "queries:   " << ok.load() << " answered, " << failed.load()
            << " failed (" << rs.coordinator().stats().rerouted
            << " rerouted around sick replicas)\n";

  bool converged = true;
  for (std::size_t i = 0; i < rs.replica_count(); ++i) {
    const service::ReplicaStore& r = rs.replica(i);
    const bool match = r.fingerprint() == rs.primary_fingerprint() &&
                       r.applied_version() == rs.primary_version();
    converged = converged && match;
    std::cout << "replica " << i << ": v" << r.applied_version() << ", "
              << r.stats().deltas_applied << " deltas + "
              << r.stats().fulls_applied << " fulls, " << r.stats().gaps
              << " gaps, " << r.stats().resyncs << " resyncs, "
              << r.stats().restarts << " restarts -> "
              << (match ? "fingerprint converged" : "DIVERGED") << "\n";
  }

  const double total = static_cast<double>(ok.load() + failed.load());
  const double success =
      total == 0 ? 0.0 : static_cast<double>(ok.load()) / total;
  const bool passed = converged && success >= 0.99 &&
                      rs.replica(2).stats().restarts >= 1;
  std::cout << (passed ? "\nfailover held: " : "\nFAILOVER BROKE: ")
            << static_cast<int>(success * 100)
            << "% of queries answered through the storm\n";
  return passed ? 0 : 1;
}
