#include <gtest/gtest.h>

#include "netsim/routing.hpp"
#include "netsim/testbeds.hpp"
#include "util/error.hpp"

namespace remos::netsim {
namespace {

class CmuRouting : public ::testing::Test {
 protected:
  CmuRouting() : topo_(make_cmu_testbed()), routes_(topo_) {}
  NodeId id(const std::string& n) const { return topo_.id_of(n); }

  Topology topo_;
  RoutingTable routes_;
};

TEST_F(CmuRouting, SelfRouteIsTrivial) {
  const Path& p = routes_.route(id("m-1"), id("m-1"));
  EXPECT_EQ(p.hops(), 0u);
  ASSERT_EQ(p.nodes.size(), 1u);
  EXPECT_EQ(p.nodes[0], id("m-1"));
}

TEST_F(CmuRouting, SameRouterPairIsTwoHops) {
  const Path& p = routes_.route(id("m-4"), id("m-5"));
  EXPECT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.nodes[1], id("timberline"));
}

TEST_F(CmuRouting, CrossRouterPairIsThreeHops) {
  // The paper: "any node can be reached from any other node with at most
  // 3 hops".
  const Path& p = routes_.route(id("m-6"), id("m-8"));
  EXPECT_EQ(p.hops(), 3u);
  EXPECT_EQ(p.nodes[1], id("timberline"));
  EXPECT_EQ(p.nodes[2], id("whiteface"));
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a != b) {
        EXPECT_LE(routes_.route(id(a), id(b)).hops(), 3u);
      }
    }
  }
}

TEST_F(CmuRouting, RoutesNeverTransitComputeNodes) {
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a == b) continue;
      const Path& p = routes_.route(id(a), id(b));
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i)
        EXPECT_EQ(topo_.node(p.nodes[i]).kind, NodeKind::kNetwork)
            << a << "->" << b;
    }
  }
}

TEST_F(CmuRouting, PathNodeAndLinkSequencesAgree) {
  for (const auto& a : CmuNames::hosts()) {
    for (const auto& b : CmuNames::hosts()) {
      if (a == b) continue;
      const Path& p = routes_.route(id(a), id(b));
      ASSERT_EQ(p.nodes.size(), p.links.size() + 1);
      EXPECT_EQ(p.nodes.front(), id(a));
      EXPECT_EQ(p.nodes.back(), id(b));
      for (std::size_t i = 0; i < p.links.size(); ++i) {
        const Link& l = topo_.link(p.links[i]);
        EXPECT_EQ(l.other(p.nodes[i]), p.nodes[i + 1]);
      }
    }
  }
}

TEST_F(CmuRouting, RoutesAreSymmetricInLength) {
  for (const auto& a : CmuNames::hosts())
    for (const auto& b : CmuNames::hosts())
      EXPECT_EQ(routes_.route(id(a), id(b)).hops(),
                routes_.route(id(b), id(a)).hops());
}

TEST_F(CmuRouting, LatencyAndCapacityAccessors) {
  EXPECT_DOUBLE_EQ(routes_.path_latency(id("m-4"), id("m-5")),
                   2 * millis(0.2));
  EXPECT_DOUBLE_EQ(routes_.path_latency(id("m-6"), id("m-8")),
                   3 * millis(0.2));
  EXPECT_DOUBLE_EQ(routes_.path_capacity(id("m-6"), id("m-8")), mbps(100));
}

TEST_F(CmuRouting, ReachableAndErrors) {
  EXPECT_TRUE(routes_.reachable(id("m-1"), id("m-8")));
  EXPECT_THROW(routes_.route(static_cast<NodeId>(99), id("m-1")),
               NotFoundError);
}

TEST(Routing, UnreachablePartitionReported) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  RoutingTable routes(t);
  EXPECT_FALSE(routes.reachable(a, b));
  EXPECT_THROW(routes.route(a, b), NotFoundError);
}

TEST(Routing, PrefersFewerHopsOverLatency) {
  // Direct 2-link path through r1 (slow) vs 3-link path through r2,r3
  // (fast): hop-count-first routing picks the 2-link path.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId r1 = t.add_node("r1", NodeKind::kNetwork);
  const NodeId r2 = t.add_node("r2", NodeKind::kNetwork);
  const NodeId r3 = t.add_node("r3", NodeKind::kNetwork);
  t.add_link(a, r1, mbps(10), millis(50));
  t.add_link(r1, b, mbps(10), millis(50));
  t.add_link(a, r2, mbps(10), millis(1));
  t.add_link(r2, r3, mbps(10), millis(1));
  t.add_link(r3, b, mbps(10), millis(1));
  RoutingTable routes(t);
  EXPECT_EQ(routes.route(a, b).hops(), 2u);
}

TEST(Routing, BreaksHopTiesByLatency) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId slow = t.add_node("slow", NodeKind::kNetwork);
  const NodeId fast = t.add_node("fast", NodeKind::kNetwork);
  t.add_link(a, slow, mbps(10), millis(10));
  t.add_link(slow, b, mbps(10), millis(10));
  t.add_link(a, fast, mbps(10), millis(1));
  t.add_link(fast, b, mbps(10), millis(1));
  RoutingTable routes(t);
  const Path& p = routes.route(a, b);
  ASSERT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.nodes[1], fast);
}

TEST(Routing, ExactTiesGoToThePredecessorWithTheSmallerName) {
  // Equal hops and latency through w2 and w10: the name rank decides, and
  // "w10" sorts before "w2" although its id (and number) is larger.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId w2 = t.add_node("w2", NodeKind::kNetwork);
  const NodeId w10 = t.add_node("w10", NodeKind::kNetwork);
  t.add_link(a, w2, mbps(10), millis(1));
  t.add_link(w2, b, mbps(10), millis(1));
  t.add_link(a, w10, mbps(10), millis(1));
  t.add_link(w10, b, mbps(10), millis(1));
  RoutingTable routes(t);
  EXPECT_EQ(routes.route(a, b).nodes[1], w10);
  EXPECT_EQ(routes.route(b, a).nodes[1], w10);
}

TEST(Routing, ExactLatencyTiesAreComparedInWholeNanoseconds) {
  // 0.1 ms + 0.2 ms and 0.15 ms + 0.15 ms differ in the last bit as
  // doubles but are the same 300000 ns: a tie, so the smaller name (x)
  // wins instead of floating-point noise.
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId y = t.add_node("y", NodeKind::kNetwork);
  const NodeId x = t.add_node("x", NodeKind::kNetwork);
  t.add_link(a, y, mbps(10), millis(0.15));
  t.add_link(y, b, mbps(10), millis(0.15));
  t.add_link(a, x, mbps(10), millis(0.1));
  t.add_link(x, b, mbps(10), millis(0.2));
  ASSERT_NE(millis(0.1) + millis(0.2), millis(0.15) + millis(0.15));
  RoutingTable routes(t);
  EXPECT_EQ(routes.route(a, b).nodes[1], x);
}

TEST(Routing, HostsDoNotForwardEvenOnTheShorterPath) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId h = t.add_node("h", NodeKind::kCompute);
  const NodeId r1 = t.add_node("r1", NodeKind::kNetwork);
  const NodeId r2 = t.add_node("r2", NodeKind::kNetwork);
  t.add_link(a, h, mbps(10), millis(1));
  t.add_link(h, b, mbps(10), millis(1));
  t.add_link(a, r1, mbps(10), millis(1));
  t.add_link(r1, r2, mbps(10), millis(1));
  t.add_link(r2, b, mbps(10), millis(1));
  RoutingTable routes(t);
  const Path p = routes.route(a, b);
  ASSERT_EQ(p.hops(), 3u);
  EXPECT_EQ(p.nodes[1], r1);
  EXPECT_EQ(p.nodes[2], r2);
  EXPECT_EQ(routes.route(a, h).hops(), 1u);  // a host may still source
}

TEST(Routing, DisabledLinksAreRoutedAround) {
  Topology t;
  const NodeId a = t.add_node("a", NodeKind::kCompute);
  const NodeId b = t.add_node("b", NodeKind::kCompute);
  const NodeId fast = t.add_node("fast", NodeKind::kNetwork);
  const NodeId slow = t.add_node("slow", NodeKind::kNetwork);
  const LinkId cut = t.add_link(a, fast, mbps(10), millis(1));
  t.add_link(fast, b, mbps(10), millis(1));
  const LinkId a_slow = t.add_link(a, slow, mbps(10), millis(10));
  t.add_link(slow, b, mbps(10), millis(10));
  std::vector<bool> enabled(t.link_count(), true);
  enabled[static_cast<std::size_t>(cut)] = false;
  const RoutingTable detour(t, enabled);
  EXPECT_EQ(detour.route(a, b).nodes[1], slow);
  enabled[static_cast<std::size_t>(a_slow)] = false;
  const RoutingTable cut_off(t, enabled);
  EXPECT_FALSE(cut_off.reachable(a, b));
}

}  // namespace
}  // namespace remos::netsim
