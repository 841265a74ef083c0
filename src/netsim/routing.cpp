#include "netsim/routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace remos::netsim {

std::int64_t latency_ns(Seconds latency) {
  return std::llround(latency * 1e9);
}

ShortestPaths::ShortestPaths(std::vector<char> forwards,
                             std::vector<std::uint32_t> rank,
                             const std::vector<Edge>& edges)
    : forwards_(std::move(forwards)), rank_(std::move(rank)) {
  const std::size_t n = forwards_.size();
  if (!rank_.empty() && rank_.size() != n)
    throw InvalidArgument("ShortestPaths: rank size mismatch");
  rows_.resize(n);

  // CSR adjacency: count degrees, then place both directions of each edge.
  offset_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.a < 0 || e.b < 0 || static_cast<std::size_t>(e.a) >= n ||
        static_cast<std::size_t>(e.b) >= n)
      throw InvalidArgument("ShortestPaths: edge endpoint out of range");
    ++offset_[static_cast<std::size_t>(e.a) + 1];
    ++offset_[static_cast<std::size_t>(e.b) + 1];
  }
  std::partial_sum(offset_.begin(), offset_.end(), offset_.begin());
  arcs_.resize(offset_[n]);
  std::vector<std::uint32_t> cursor(offset_.begin(), offset_.end() - 1);
  for (const Edge& e : edges) {
    arcs_[cursor[static_cast<std::size_t>(e.a)]++] =
        Arc{e.b, e.link, e.latency_ns};
    arcs_[cursor[static_cast<std::size_t>(e.b)]++] =
        Arc{e.a, e.link, e.latency_ns};
  }
}

ShortestPaths::Row ShortestPaths::compute_row(std::int32_t src) const {
  const std::size_t n = forwards_.size();
  if (src < 0 || static_cast<std::size_t>(src) >= n)
    throw InvalidArgument("ShortestPaths: node id out of range");
  constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();
  Row row;
  row.parent.assign(n, kNoNode);
  row.via_link.assign(n, 0);
  std::vector<std::uint32_t> hops(n, kUnreached);
  std::vector<std::int64_t> latency(n, 0);
  const auto s = static_cast<std::size_t>(src);
  row.parent[s] = src;
  hops[s] = 0;

  // FIFO order visits hop layers in turn, so when u (layer h-1) expands,
  // a neighbour at layer h is still choosing among final candidates.
  std::vector<std::int32_t> order;
  order.reserve(n);
  order.push_back(src);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::int32_t u = order[head];
    const auto ui = static_cast<std::size_t>(u);
    if (u != src && !forwards_[ui]) continue;  // hosts do not forward
    const std::uint32_t h = hops[ui] + 1;
    for (std::uint32_t k = offset_[ui]; k < offset_[ui + 1]; ++k) {
      const Arc& arc = arcs_[k];
      const auto v = static_cast<std::size_t>(arc.to);
      if (hops[v] < h) continue;  // settled in an earlier layer
      const std::int64_t cand = latency[ui] + arc.latency_ns;
      if (hops[v] == kUnreached) {
        hops[v] = h;
        order.push_back(arc.to);
      } else {
        const std::int32_t p = row.parent[v];
        const bool wins =
            cand < latency[v] ||
            (cand == latency[v] &&
             (rank_of(u) < rank_of(p) ||
              (u == p && arc.link < row.via_link[v])));
        if (!wins) continue;
      }
      row.parent[v] = u;
      row.via_link[v] = arc.link;
      latency[v] = cand;
    }
  }
  return row;
}

const ShortestPaths::Row& ShortestPaths::row_from(std::int32_t src) const {
  if (src < 0 || static_cast<std::size_t>(src) >= forwards_.size())
    throw InvalidArgument("ShortestPaths: node id out of range");
  const auto s = static_cast<std::size_t>(src);
  lock();
  if (rows_[s]) {
    const Row& ready = *rows_[s];
    unlock();
    return ready;
  }
  unlock();

  // Build outside the lock; losing a race just wastes one redundant row.
  auto row = std::make_unique<Row>(compute_row(src));
  lock();
  if (!rows_[s]) rows_[s] = std::move(row);
  const Row& ready = *rows_[s];
  unlock();
  return ready;
}

RoutingTable::RoutingTable(const Topology& topology)
    : RoutingTable(topology,
                   std::vector<bool>(topology.link_count(), true)) {}

RoutingTable::RoutingTable(const Topology& topology,
                           const std::vector<bool>& link_enabled)
    : topology_(&topology) {
  if (link_enabled.size() != topology.link_count())
    throw InvalidArgument("RoutingTable: link_enabled size mismatch");
  const std::size_t n = topology.node_count();
  std::vector<char> forwards(n);
  std::vector<NodeId> by_name(n);
  for (std::size_t i = 0; i < n; ++i) {
    forwards[i] = topology.nodes()[i].kind == NodeKind::kNetwork;
    by_name[i] = static_cast<NodeId>(i);
  }
  std::sort(by_name.begin(), by_name.end(), [&](NodeId x, NodeId y) {
    return topology.name_of(x) < topology.name_of(y);
  });
  std::vector<std::uint32_t> rank(n);
  for (std::size_t r = 0; r < n; ++r)
    rank[static_cast<std::size_t>(by_name[r])] = static_cast<std::uint32_t>(r);
  std::vector<ShortestPaths::Edge> edges;
  for (const Link& l : topology.links())
    if (link_enabled[static_cast<std::size_t>(l.id)])
      edges.push_back({l.a, l.b, static_cast<std::uint32_t>(l.id),
                       latency_ns(l.latency)});
  paths_ = std::make_unique<ShortestPaths>(std::move(forwards),
                                           std::move(rank), edges);
}

Path RoutingTable::route(NodeId src, NodeId dst) const {
  check(src, dst);
  Path p;
  if (src == dst) {
    p.nodes = {src};
    return p;
  }
  const ShortestPaths::Row& row = paths_->row_from(src);
  if (row.parent[static_cast<std::size_t>(dst)] == ShortestPaths::kNoNode)
    throw NotFoundError("no route from " + topology_->name_of(src) + " to " +
                        topology_->name_of(dst));
  for (NodeId cur = dst; cur != src;
       cur = row.parent[static_cast<std::size_t>(cur)]) {
    p.nodes.push_back(cur);
    p.links.push_back(
        static_cast<LinkId>(row.via_link[static_cast<std::size_t>(cur)]));
  }
  p.nodes.push_back(src);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

bool RoutingTable::reachable(NodeId src, NodeId dst) const {
  check(src, dst);
  if (src == dst) return true;
  return paths_->row_from(src).parent[static_cast<std::size_t>(dst)] !=
         ShortestPaths::kNoNode;
}

Seconds RoutingTable::path_latency(NodeId src, NodeId dst) const {
  Seconds total = 0;
  for (LinkId l : route(src, dst).links) total += topology_->link(l).latency;
  return total;
}

BitsPerSec RoutingTable::path_capacity(NodeId src, NodeId dst) const {
  BitsPerSec cap = std::numeric_limits<BitsPerSec>::infinity();
  for (LinkId l : route(src, dst).links)
    cap = std::min(cap, topology_->link(l).capacity);
  return cap;
}

void RoutingTable::check(NodeId src, NodeId dst) const {
  const std::size_t n = paths_->node_count();
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= n ||
      static_cast<std::size_t>(dst) >= n)
    throw NotFoundError("RoutingTable: node id out of range");
}

}  // namespace remos::netsim
