// Cross-cutting property tests: invariants that must hold on randomized
// inputs regardless of topology or query mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "collector/static_collector.hpp"
#include "core/modeler.hpp"
#include "netsim/simulator.hpp"
#include "netsim/testbeds.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace remos {
namespace {

using core::FlowQuery;
using core::FlowRequest;
using core::Timeframe;

/// Random two-tier model: hosts behind routers in a ring, random
/// capacities, optionally some links carrying measured background load.
collector::NetworkModel random_model(Rng& rng, bool with_usage) {
  collector::NetworkModel m;
  const std::size_t routers = 2 + rng.below(4);
  const std::size_t hosts = 2 + rng.below(10);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_node(concat("r", r), true);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_link(concat("r", r),
                  concat("r", (r + 1) % routers),
                  mbps(rng.uniform(50, 1000)), millis(0.2));
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string name = concat("h", h);
    m.upsert_node(name, false);
    m.upsert_link(name, concat("r", rng.below(routers)),
                  mbps(rng.uniform(10, 100)), millis(0.2));
  }
  if (with_usage) {
    for (auto& link : m.links()) {
      if (!rng.chance(0.5)) continue;
      for (int i = 0; i < 8; ++i) {
        collector::Sample s;
        s.at = i + 1.0;
        s.used_ab = rng.uniform(0, link.capacity);
        s.used_ba = rng.uniform(0, link.capacity);
        link.history.record(s);
      }
    }
  }
  return m;
}

std::vector<std::string> host_names(const collector::NetworkModel& m) {
  std::vector<std::string> out;
  for (const auto& [name, n] : m.nodes())
    if (!n.is_router) out.push_back(name);
  return out;
}

class FlowSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowSolverProperty, GrantsRespectClassSemantics) {
  Rng rng(GetParam());
  const collector::NetworkModel model = random_model(rng, true);
  collector::StaticCollector source(model);
  core::Modeler modeler(source);
  const auto hosts = host_names(model);
  if (hosts.size() < 2) GTEST_SKIP();

  auto pick_pair = [&] {
    const std::size_t a = rng.below(hosts.size());
    std::size_t b = rng.below(hosts.size());
    while (b == a) b = rng.below(hosts.size());
    return FlowRequest{hosts[a], hosts[b], 0};
  };

  FlowQuery q;
  const std::size_t nfixed = rng.below(3);
  for (std::size_t i = 0; i < nfixed; ++i) {
    FlowRequest f = pick_pair();
    f.requested = mbps(rng.uniform(1, 80));
    q.fixed.push_back(f);
  }
  const std::size_t nvar = rng.below(4);
  for (std::size_t i = 0; i < nvar; ++i) {
    FlowRequest f = pick_pair();
    f.requested = rng.uniform(0.5, 8.0);
    q.variable.push_back(f);
  }
  q.independent = pick_pair();
  q.timeframe = rng.chance(0.5) ? Timeframe::history(100.0)
                                : Timeframe::statics();

  const auto r = modeler.flow_info(q);

  // Fixed flows never exceed their request, and a satisfied flow got it
  // all (at the median scenario).
  for (std::size_t i = 0; i < r.fixed.size(); ++i) {
    if (!r.fixed[i].routable) continue;
    const auto& qt = r.fixed[i].bandwidth.quartiles;
    EXPECT_LE(qt.max, q.fixed[i].requested * (1 + 1e-9));
    if (r.fixed[i].satisfied) {
      EXPECT_NEAR(qt.median, q.fixed[i].requested,
                  1e-6 * q.fixed[i].requested);
    }
    // Quartiles of a grant are ordered.
    EXPECT_LE(qt.min, qt.median);
    EXPECT_LE(qt.median, qt.max);
    EXPECT_GE(qt.min, -1e-9);
  }
  for (const auto& f : r.variable) {
    if (!f.routable) continue;
    EXPECT_GE(f.bandwidth.quartiles.min, -1e-9);
    EXPECT_LE(f.bandwidth.quartiles.min, f.bandwidth.quartiles.max);
  }
  ASSERT_TRUE(r.independent.has_value());
  EXPECT_GE(r.independent->bandwidth.quartiles.min, -1e-9);
}

TEST_P(FlowSolverProperty, MoreBackgroundNeverHelps) {
  // Monotonicity: a flow's grant under measured load is never better
  // than on the idle network.
  Rng rng(GetParam() + 1000);
  collector::NetworkModel loaded = random_model(rng, true);
  collector::NetworkModel idle = loaded;
  for (auto& l : idle.links()) l.history = collector::LinkHistory{};

  const auto hosts = host_names(loaded);
  if (hosts.size() < 2) GTEST_SKIP();
  FlowQuery q;
  q.independent = FlowRequest{hosts[0], hosts[1], 0};
  q.timeframe = Timeframe::history(100.0);

  collector::StaticCollector c_loaded(loaded), c_idle(idle);
  const auto r_loaded = core::Modeler(c_loaded).flow_info(q);
  const auto r_idle = core::Modeler(c_idle).flow_info(q);
  if (!r_loaded.independent->routable) GTEST_SKIP();
  EXPECT_LE(r_loaded.independent->bandwidth.quartiles.median,
            r_idle.independent->bandwidth.quartiles.median + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSolverProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// Simulator conservation: every byte a flow reports sent appears on every
// link of its path, and per-directed-link totals equal the sum of the
// flows that crossed them.
class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConservationProperty, OctetsMatchFlowAccounting) {
  Rng rng(GetParam());
  netsim::Simulator sim(netsim::make_cmu_testbed());
  const auto hosts = sim.topology().compute_nodes();

  struct Planned {
    netsim::NodeId src, dst;
    Bytes volume;
  };
  std::vector<Planned> plan;
  const std::size_t n = 2 + rng.below(6);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = hosts[rng.below(hosts.size())];
    auto dst = hosts[rng.below(hosts.size())];
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    plan.push_back(Planned{src, dst, rng.uniform(1e5, 5e6)});
  }
  for (const Planned& p : plan) {
    netsim::FlowOptions opts;
    opts.volume = p.volume;
    opts.weight = rng.uniform(0.5, 2.0);
    const Seconds at = rng.uniform(0.0, 2.0);
    sim.schedule(at,
                 [&sim, p, opts] { sim.start_flow(p.src, p.dst, opts); });
  }
  sim.run_until(120.0);  // long enough for everything to drain
  EXPECT_EQ(sim.active_flow_count(), 0u);

  // Every completed flow contributed exactly its volume to each directed
  // link on its (static) route -- and nothing else touched the network.
  std::map<std::pair<netsim::LinkId, bool>, double> expected;
  for (const Planned& p : plan) {
    const auto& path = sim.routing().route(p.src, p.dst);
    for (std::size_t i = 0; i < path.links.size(); ++i) {
      const auto& link = sim.topology().link(path.links[i]);
      expected[{link.id, path.nodes[i] == link.a}] += p.volume;
    }
  }
  for (const auto& link : sim.topology().links()) {
    for (const bool from_a : {true, false}) {
      const auto it = expected.find({link.id, from_a});
      const double want = it == expected.end() ? 0.0 : it->second;
      EXPECT_NEAR(sim.link_tx_bytes(link.id, from_a), want,
                  1.0 + 1e-9 * want)
          << sim.topology().name_of(from_a ? link.a : link.b) << " -> "
          << sim.topology().name_of(from_a ? link.b : link.a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace remos
