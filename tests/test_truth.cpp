// Ground truth: every Remos answer describes the path the simulator
// routes.
//
// Each network is discovered over SNMP, as a deployment discovers it,
// and sampled ordered host pairs -- both directions of each pair -- are
// checked against the simulator's RoutingTable:
//   - the routes the logical build walks, on an uncollapsed graph, visit
//     exactly the simulator's nodes over exactly its links;
//   - the Modeler's route on the collapsed graph keeps the same path: its
//     nodes are the simulator's minus the hidden ones, and each logical
//     link hides exactly the simulator's nodes between its ends;
//   - flow_info's latency median equals RoutingTable::path_latency;
//   - on the idle, polled network, a lone independent flow's bandwidth
//     median equals the simulator's max-min rate for that flow.
// Fat-tree, dumbbell and Waxman run at about 64, 256 and 1024 hosts
// (fat-trees have k^3/4 hosts, so k = 6, 10 and 16), plus the CMU
// testbed, whose 56 ordered host pairs are all checked.  Scoring a
// network representation against ground truth follows Eyraud-Dubois et
// al.  Labeled `truth`: run with `ctest -L truth`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "collector/snmp_collector.hpp"
#include "core/logical.hpp"
#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "netsim/simulator.hpp"
#include "netsim/testbeds.hpp"
#include "snmp/agent.hpp"
#include "snmp/mib2.hpp"
#include "snmp/transport.hpp"
#include "util/rng.hpp"

namespace remos {
namespace {

using netsim::NodeKind;

/// A simulated network with an SNMP agent on every node, discovered by
/// one collector seeded at `seed_router`.
class Discovered {
 public:
  Discovered(netsim::Topology topology, const std::string& seed_router)
      : sim_(std::move(topology)), collector_(transport_, {seed_router}) {
    transport_.set_clock([this] { return sim_.now(); });
    for (const netsim::Node& node : sim_.topology().nodes()) {
      snmp::HostStats* stats = nullptr;
      if (node.kind == NodeKind::kCompute) {
        stats_.push_back(std::make_unique<snmp::HostStats>());
        stats = stats_.back().get();
        hosts_.push_back(node.name);
      }
      auto agent = std::make_unique<snmp::Agent>();
      snmp::populate_node_mib(*agent, sim_, node.id, stats);
      agent->bind(transport_, snmp::agent_address(node.name));
      agents_.push_back(std::move(agent));
    }
    collector_.discover();
  }

  const netsim::Simulator& sim() const { return sim_; }
  const collector::NetworkModel& model() const { return collector_.model(); }
  const std::vector<std::string>& hosts() const { return hosts_; }

  /// Simulator route src -> dst as node names.
  std::vector<std::string> truth_nodes(const std::string& src,
                                       const std::string& dst) const {
    const netsim::Topology& t = sim_.topology();
    std::vector<std::string> out;
    for (netsim::NodeId n : sim_.routing().route(t.id_of(src), t.id_of(dst))
                                .nodes)
      out.push_back(t.name_of(n));
    return out;
  }

  Seconds truth_latency(const std::string& src, const std::string& dst) const {
    const netsim::Topology& t = sim_.topology();
    return sim_.routing().path_latency(t.id_of(src), t.id_of(dst));
  }

  /// Lets the idle network run and polls it twice, so every link carries
  /// a measured utilization (zero: nothing flows).
  void poll_idle() {
    for (int i = 0; i < 2; ++i) {
      sim_.run_for(1.0);
      collector_.poll();
    }
  }

  /// The simulator's max-min rate for an unbounded flow src -> dst that
  /// runs alone.
  BitsPerSec truth_rate(const std::string& src, const std::string& dst) {
    const netsim::FlowId flow = sim_.start_flow(src, dst);
    const BitsPerSec rate = sim_.flow_rate(flow);
    sim_.stop_flow(flow);
    return rate;
  }

 private:
  netsim::Simulator sim_;
  snmp::Transport transport_;
  std::vector<std::unique_ptr<snmp::HostStats>> stats_;
  std::vector<std::unique_ptr<snmp::Agent>> agents_;
  collector::SnmpCollector collector_;
  std::vector<std::string> hosts_;
};

/// At least 2000 ordered host pairs, both directions of each sampled
/// pair; every ordered pair when there are fewer.
std::vector<std::pair<std::string, std::string>> sample_pairs(
    const std::vector<std::string>& hosts, std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::size_t n = hosts.size();
  if (n * (n - 1) <= 2000) {
    for (const std::string& a : hosts)
      for (const std::string& b : hosts)
        if (a != b) out.emplace_back(a, b);
    return out;
  }
  Rng rng(seed);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  while (out.size() < 2000) {
    std::size_t i = rng.below(n);
    std::size_t j = rng.below(n);
    if (i == j) continue;
    if (i > j) std::swap(i, j);
    if (!seen.insert({i, j}).second) continue;
    out.emplace_back(hosts[i], hosts[j]);
    out.emplace_back(hosts[j], hosts[i]);
  }
  return out;
}

core::LogicalView view_of(const collector::NetworkModel& model,
                          const std::string& a, const std::string& b,
                          bool collapse) {
  core::LogicalOptions options;
  options.collapse_chains = collapse;
  return core::build_logical_view(model, {a, b}, core::Timeframe::statics(),
                                  0, *core::make_default_predictor(),
                                  options);
}

struct Network {
  std::string name;
  std::function<netsim::Topology()> make;
  std::string seed_router;
};

/// Prints a network as its name.  gtest's default prints the object's
/// bytes, heap pointers included, and that text lands in every test name
/// that ctest discovers, so the names would change from build to build.
void PrintTo(const Network& net, std::ostream* os) { *os << net.name; }

netsim::Topology fat_tree(std::size_t k) {
  netsim::FatTreeParams p;
  p.k = k;
  return netsim::make_fat_tree(p);
}

netsim::Topology dumbbell(std::size_t hosts) {
  netsim::DumbbellParams p;
  p.hosts_per_side = hosts / 2;
  p.trunk_hops = 3;  // interior trunk routers collapse into one link
  return netsim::make_dumbbell(p);
}

netsim::Topology waxman(std::size_t hosts) {
  netsim::WaxmanParams p;
  p.hosts = hosts;
  p.routers = hosts / 4;
  return netsim::make_waxman(p);
}

class TruthTest : public ::testing::TestWithParam<Network> {};

TEST_P(TruthTest, ModelerRoutesAsTheSimulatorDoes) {
  const Network& net = GetParam();
  const Discovered d(net.make(), net.seed_router);
  const collector::NetworkModel& model = d.model();
  ASSERT_EQ(model.nodes().size(), d.sim().topology().node_count());
  const core::Modeler modeler(model);

  const auto pairs = sample_pairs(d.hosts(), 0x7E57);
  ASSERT_GE(pairs.size(), std::min<std::size_t>(
                              2000, d.hosts().size() * (d.hosts().size() - 1)));
  std::size_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    const std::vector<std::string> truth = d.truth_nodes(a, b);

    // Uncollapsed: the walked route is the simulator's, link for link.
    const core::LogicalView flat = view_of(model, a, b, false);
    const auto flat_path = flat.route(a, b);
    ASSERT_TRUE(flat_path) << a << " -> " << b;
    const bool same_path = flat_path->nodes == truth;

    // Collapsed, as the Modeler builds it: the same path with chains
    // folded into logical links.
    const core::LogicalView view = view_of(model, a, b, true);
    const auto path = view.route(a, b);
    ASSERT_TRUE(path) << a << " -> " << b;
    bool same_folded = path->nodes.front() == a;
    std::size_t at = 0;  // index into truth of path->nodes[k]
    for (std::size_t k = 0; same_folded && k < path->hops(); ++k) {
      const core::GraphLink& l = view.graph.links()[path->link_indices[k]];
      const auto next = std::find(truth.begin() + static_cast<long>(at) + 1,
                                  truth.end(), path->nodes[k + 1]);
      if (next == truth.end()) {
        same_folded = false;
        break;
      }
      std::vector<std::string> hidden(truth.begin() + static_cast<long>(at) + 1,
                                      next);
      std::sort(hidden.begin(), hidden.end());
      same_folded = hidden == l.abstracts;
      at = static_cast<std::size_t>(next - truth.begin());
    }
    same_folded = same_folded && at + 1 == truth.size();

    // The Modeler's answer prices that path.
    core::FlowQuery q;
    q.fixed.push_back({a, b, mbps(1)});
    q.timeframe = core::Timeframe::statics();
    const core::FlowResult r = modeler.flow_info(q).fixed.front();
    const bool same_latency =
        r.routable && std::abs(r.latency.quartiles.median -
                               d.truth_latency(a, b)) <= 1e-9;

    if (!same_path || !same_folded || !same_latency) {
      if (++mismatches <= 5)
        ADD_FAILURE() << net.name << ": " << a << " -> " << b
                      << (same_path ? "" : " walked path differs")
                      << (same_folded ? "" : " collapsed path differs")
                      << (same_latency ? "" : " latency differs");
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << pairs.size() << " ordered pairs";
}

TEST_P(TruthTest, LoneFlowBandwidthIsTheSimulatorsMaxMinRate) {
  // Idle half of the bandwidth gate: with nothing else on the network, a
  // lone independent flow's median bandwidth over current measurements is
  // the rate the simulator's max-min allocation gives that flow alone.
  const Network& net = GetParam();
  Discovered d(net.make(), net.seed_router);
  d.poll_idle();
  const core::Modeler modeler(d.model());

  const auto pairs = sample_pairs(d.hosts(), 0xBA5E);
  ASSERT_GE(pairs.size(), std::min<std::size_t>(
                              200, d.hosts().size() * (d.hosts().size() - 1)));
  std::size_t mismatches = 0;
  for (const auto& [a, b] : pairs) {
    core::FlowQuery q;
    q.independent = core::FlowRequest{a, b, 0};
    q.timeframe = core::Timeframe::current();
    const core::FlowResult r = *modeler.flow_info(q).independent;
    const BitsPerSec truth = d.truth_rate(a, b);
    ASSERT_GT(truth, 0) << a << " -> " << b;
    const double got = r.bandwidth.quartiles.median;
    if (!r.routable || std::abs(got - truth) > 1e-9 * truth) {
      if (++mismatches <= 5)
        ADD_FAILURE() << net.name << ": " << a << " -> " << b << " answered "
                      << got << " b/s, simulator " << truth << " b/s";
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << pairs.size() << " ordered pairs";
}

INSTANTIATE_TEST_SUITE_P(
    Networks, TruthTest,
    ::testing::Values(
        Network{"cmu", [] { return netsim::make_cmu_testbed(); }, "aspen"},
        Network{"fattree54", [] { return fat_tree(6); }, "c0-0"},
        Network{"fattree250", [] { return fat_tree(10); }, "c0-0"},
        Network{"fattree1024", [] { return fat_tree(16); }, "c0-0"},
        Network{"dumbbell64", [] { return dumbbell(64); }, "t0"},
        Network{"dumbbell256", [] { return dumbbell(256); }, "t0"},
        Network{"dumbbell1024", [] { return dumbbell(1024); }, "t0"},
        Network{"waxman64", [] { return waxman(64); }, "w0"},
        Network{"waxman256", [] { return waxman(256); }, "w0"},
        Network{"waxman1024", [] { return waxman(1024); }, "w0"}),
    [](const ::testing::TestParamInfo<Network>& param) {
      return param.param.name;
    });

TEST(Truth, MultiFlowWaxmanQueriesPriceEveryFlowOnItsSimulatorPath) {
  // Several endpoints in one query collapse chains across the union of
  // their routes, and a collapsed chain counts as one hop: re-routing on
  // that graph would pick some flows a path no packet takes.  Each flow
  // must be priced on its own walked path instead.
  const Discovered d(waxman(1024), "w0");
  const core::Modeler modeler(d.model());
  Rng rng(0xF10);
  for (int query = 0; query < 10; ++query) {
    core::FlowQuery q;
    q.timeframe = core::Timeframe::statics();
    while (q.fixed.size() < 8) {
      const std::string& a = d.hosts()[rng.below(d.hosts().size())];
      const std::string& b = d.hosts()[rng.below(d.hosts().size())];
      if (a != b) q.fixed.push_back({a, b, mbps(1)});
    }
    const core::FlowQueryResult r = modeler.flow_info(q);
    ASSERT_EQ(r.fixed.size(), q.fixed.size());
    for (const core::FlowResult& f : r.fixed) {
      ASSERT_TRUE(f.routable) << f.request.src << " -> " << f.request.dst;
      EXPECT_NEAR(f.latency.quartiles.median,
                  d.truth_latency(f.request.src, f.request.dst), 1e-9)
          << "query " << query << ": " << f.request.src << " -> "
          << f.request.dst;
    }
  }
}

TEST(Truth, SimulatorIndexAndGraphBreakExactTiesAlike) {
  // One network in the simulator's, the collector's and the logical
  // graph's form: equal hops and latency through w2 and w10, where name
  // order ("w10" < "w2") and insertion order disagree.  All three adapters
  // of the routing core pick w10.
  netsim::Topology t;
  collector::NetworkModel m;
  core::NetworkGraph g;
  for (const auto& [name, router] :
       {std::pair<std::string, bool>{"a", false}, {"b", false},
        {"w2", true}, {"w10", true}}) {
    t.add_node(name, router ? NodeKind::kNetwork : NodeKind::kCompute);
    m.upsert_node(name, router);
    core::GraphNode n;
    n.name = name;
    n.is_compute = !router;
    g.add_node(n);
  }
  for (const auto& [x, y] : {std::pair<std::string, std::string>{"a", "w2"},
                             {"w2", "b"}, {"a", "w10"}, {"w10", "b"}}) {
    t.add_link(x, y, mbps(100), micros(100));
    m.upsert_link(x, y, mbps(100), micros(100));
    core::GraphLink l;
    l.a = x;
    l.b = y;
    l.latency = Measurement::exact(micros(100));
    g.add_link(l);
  }
  const std::vector<std::string> expected{"a", "w10", "b"};

  const netsim::RoutingTable table(t);
  EXPECT_EQ(table.route(t.id_of("a"), t.id_of("b")).nodes[1], t.id_of("w10"));

  const collector::RoutingIndex& index = m.routing_index();
  const auto& row = index.row_from(index.id_of("a"));
  EXPECT_EQ(index.name_of(row.parent[static_cast<std::size_t>(
                index.id_of("b"))]),
            "w10");

  EXPECT_EQ(view_of(m, "a", "b", false).route("a", "b")->nodes, expected);
  const core::LogicalView folded = view_of(m, "a", "b", true);
  const auto path = folded.route("b", "a");
  ASSERT_TRUE(path);
  ASSERT_EQ(path->hops(), 1u);
  EXPECT_EQ(folded.graph.links()[path->link_indices[0]].abstracts,
            std::vector<std::string>{"w10"});

  EXPECT_EQ(g.route("a", "b")->nodes, expected);
}

}  // namespace
}  // namespace remos
