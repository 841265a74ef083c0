#include "netsim/generators.hpp"

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace remos::netsim {

namespace {

// Quantizes a latency to whole microseconds so generated topologies
// print cleanly (topology_io emits milliseconds with 3 decimals).
Seconds quantize_us(Seconds s) {
  return std::round(s * 1e6) / 1e6;
}

}  // namespace

Topology make_fat_tree(const FatTreeParams& p) {
  if (p.k < 2 || p.k % 2 != 0)
    throw InvalidArgument("make_fat_tree: k must be even and >= 2");
  if (p.host_rate <= 0 || p.edge_aggr_rate <= 0 || p.aggr_core_rate <= 0)
    throw InvalidArgument("make_fat_tree: rates must be positive");
  if (p.hop_latency < 0)
    throw InvalidArgument("make_fat_tree: negative latency");

  const std::size_t half = p.k / 2;
  Topology t;

  // Core switches: (k/2)^2, indexed (i, j); core (i, j) connects to the
  // i-th aggregation switch of every pod.
  std::vector<std::vector<NodeId>> core(half, std::vector<NodeId>(half));
  for (std::size_t i = 0; i < half; ++i)
    for (std::size_t j = 0; j < half; ++j)
      core[i][j] = t.add_node(concat("c", i, "-", j), NodeKind::kNetwork);

  for (std::size_t pod = 0; pod < p.k; ++pod) {
    std::vector<NodeId> aggr(half), edge(half);
    for (std::size_t i = 0; i < half; ++i)
      aggr[i] = t.add_node(concat("a", pod, "-", i), NodeKind::kNetwork);
    for (std::size_t i = 0; i < half; ++i)
      edge[i] = t.add_node(concat("e", pod, "-", i), NodeKind::kNetwork);
    // Full bipartite edge <-> aggregation inside the pod.
    for (std::size_t e = 0; e < half; ++e)
      for (std::size_t a = 0; a < half; ++a)
        t.add_link(edge[e], aggr[a], p.edge_aggr_rate, p.hop_latency);
    // Aggregation i <-> core row i.
    for (std::size_t a = 0; a < half; ++a)
      for (std::size_t j = 0; j < half; ++j)
        t.add_link(aggr[a], core[a][j], p.aggr_core_rate, p.hop_latency);
    // Hosts under each edge switch.
    for (std::size_t e = 0; e < half; ++e)
      for (std::size_t h = 0; h < half; ++h) {
        const NodeId host =
            t.add_node(concat("h", pod, "-", e, "-", h), NodeKind::kCompute);
        t.add_link(host, edge[e], p.host_rate, p.hop_latency);
      }
  }
  return t;
}

Topology make_dumbbell(const DumbbellParams& p) {
  if (p.hosts_per_side < 1)
    throw InvalidArgument("make_dumbbell: hosts_per_side must be >= 1");
  if (p.trunk_hops < 1)
    throw InvalidArgument("make_dumbbell: trunk_hops must be >= 1");
  if (p.access_rate <= 0 || p.trunk_rate <= 0)
    throw InvalidArgument("make_dumbbell: rates must be positive");
  if (p.access_latency < 0 || p.trunk_latency < 0)
    throw InvalidArgument("make_dumbbell: negative latency");

  Topology t;
  const NodeId sl = t.add_node("sl", NodeKind::kNetwork);
  const NodeId sr = t.add_node("sr", NodeKind::kNetwork);

  // Trunk chain sl - t0 - ... - sr with trunk_hops links; each link
  // carries an equal share of the end-to-end trunk latency.
  const Seconds per_hop =
      quantize_us(p.trunk_latency / static_cast<double>(p.trunk_hops));
  NodeId prev = sl;
  for (std::size_t i = 0; i + 1 < p.trunk_hops; ++i) {
    const NodeId mid = t.add_node(concat("t", i), NodeKind::kNetwork);
    t.add_link(prev, mid, p.trunk_rate, per_hop);
    prev = mid;
  }
  t.add_link(prev, sr, p.trunk_rate, per_hop);

  for (std::size_t i = 0; i < p.hosts_per_side; ++i) {
    const NodeId l = t.add_node(concat("l", i), NodeKind::kCompute);
    t.add_link(l, sl, p.access_rate, p.access_latency);
  }
  for (std::size_t i = 0; i < p.hosts_per_side; ++i) {
    const NodeId r = t.add_node(concat("r", i), NodeKind::kCompute);
    t.add_link(r, sr, p.access_rate, p.access_latency);
  }
  return t;
}

Topology make_waxman(const WaxmanParams& p) {
  if (p.hosts < 1) throw InvalidArgument("make_waxman: hosts must be >= 1");
  if (p.routers < 2)
    throw InvalidArgument("make_waxman: routers must be >= 2");
  if (p.alpha <= 0 || p.alpha > 1 || p.beta <= 0)
    throw InvalidArgument("make_waxman: alpha in (0,1], beta > 0 required");
  if (p.host_rate <= 0)
    throw InvalidArgument("make_waxman: host_rate must be positive");
  if (p.host_latency < 0 || p.diagonal_latency < 0)
    throw InvalidArgument("make_waxman: negative latency");

  Rng rng(p.seed ^ 0x9e3779b97f4a7c15ULL);
  Topology t;

  std::vector<NodeId> routers(p.routers);
  std::vector<double> x(p.routers), y(p.routers);
  for (std::size_t i = 0; i < p.routers; ++i) {
    routers[i] = t.add_node(concat("w", i), NodeKind::kNetwork);
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }

  const double diagonal = std::sqrt(2.0);
  constexpr double kTrunkMbps[] = {155.0, 622.0, 2488.0};
  auto trunk_rate = [&] { return mbps(kTrunkMbps[rng.below(3)]); };
  auto distance = [&](std::size_t i, std::size_t j) {
    const double dx = x[i] - x[j];
    const double dy = y[i] - y[j];
    return std::sqrt(dx * dx + dy * dy);
  };
  auto trunk_latency = [&](double d) {
    return quantize_us(p.diagonal_latency * d / diagonal);
  };

  // Union-find over routers for the connectivity repair below.
  std::vector<std::size_t> parent(p.routers);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };

  for (std::size_t i = 0; i < p.routers; ++i) {
    for (std::size_t j = i + 1; j < p.routers; ++j) {
      const double d = distance(i, j);
      const double prob = p.alpha * std::exp(-d / (p.beta * diagonal));
      if (!rng.chance(prob)) continue;
      t.add_link(routers[i], routers[j], trunk_rate(), trunk_latency(d));
      parent[find(i)] = find(j);
    }
  }

  // Repair: every component beyond the first gets one deterministic link
  // from its lowest-index router to the lowest-index router overall.
  const std::size_t root = find(0);
  for (std::size_t i = 1; i < p.routers; ++i) {
    if (find(i) == root) continue;
    t.add_link(routers[0], routers[i], trunk_rate(),
               trunk_latency(distance(0, i)));
    parent[find(i)] = root;
  }

  for (std::size_t i = 0; i < p.hosts; ++i) {
    const NodeId h = t.add_node(concat("h", i), NodeKind::kCompute);
    t.add_link(h, routers[i % p.routers], p.host_rate, p.host_latency);
  }
  return t;
}

}  // namespace remos::netsim
