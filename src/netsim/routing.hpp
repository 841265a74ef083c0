// Static shortest-path routing: the one routing core, and the simulator's
// route table over it.
//
// Every route in the system comes from ShortestPaths: the simulator's
// forwarding (RoutingTable, below), the collector's routing index
// (collector::RoutingIndex) and routes on a logical graph
// (core::NetworkGraph::routes_from).  Each caller only builds the core's
// input, so the path a query describes is the path traffic takes.
//
// Policy, in order: fewest hops; then least total latency, summed in
// integer nanoseconds so that equal paths tie exactly however each side
// rounded its latencies; then the predecessor with the smaller name rank
// (and, between parallel links, the smaller link index).  Compute nodes
// never forward traffic -- interior path nodes must be network nodes
// (hosts are stub-attached, as on the CMU testbed).
//
// Scale plane: instead of materializing all n^2 Path objects up front,
// the core keeps one row per *source* -- predecessor node + predecessor
// link for every destination -- computed on first use and memoized.  A
// route is reconstructed from its source's row in O(path length).  A core
// describes the network it was built from and is never patched: topology
// changes (link up/down) build a fresh one, which drops every row at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/topology.hpp"

namespace remos::netsim {

/// Latency in the unit routing compares it in: whole nanoseconds.
std::int64_t latency_ns(Seconds latency);

/// Shortest-path rows over dense integer node ids 0..n-1.
///
/// Because hop count decides first, a row is one breadth-first pass over
/// hop layers: every node of layer h is final before any node of layer
/// h+1 is expanded, so each layer-(h+1) node picks its predecessor among
/// final candidates without a heap.  A row costs O(V+E).  Row memoization
/// is guarded by a tiny acquire/release spinlock, so concurrent readers
/// can share one core.
class ShortestPaths {
 public:
  /// An undirected edge over an enabled link.
  struct Edge {
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::uint32_t link = 0;  // the caller's link index, reported in rows
    std::int64_t latency_ns = 0;
  };

  /// One source's routes: parent[v] is the predecessor of v on the route
  /// from the source (kNoNode if unreachable, the source for itself);
  /// via_link[v] is the caller's index of the link taken into v.
  struct Row {
    std::vector<std::int32_t> parent;
    std::vector<std::uint32_t> via_link;
  };

  static constexpr std::int32_t kNoNode = -1;

  /// `forwards[v]` is false for nodes that only source and sink traffic.
  /// `rank[v]` orders nodes for exact ties; empty means ids are already
  /// in name order.
  ShortestPaths(std::vector<char> forwards, std::vector<std::uint32_t> rank,
                const std::vector<Edge>& edges);

  ShortestPaths(const ShortestPaths&) = delete;
  ShortestPaths& operator=(const ShortestPaths&) = delete;

  std::size_t node_count() const { return forwards_.size(); }

  /// The memoized row from `src` (computed on first use).
  const Row& row_from(std::int32_t src) const;

  /// A fresh row from `src`, not memoized (one-shot callers).
  Row compute_row(std::int32_t src) const;

 private:
  struct Arc {
    std::int32_t to = 0;
    std::uint32_t link = 0;
    std::int64_t latency_ns = 0;
  };

  std::uint32_t rank_of(std::int32_t v) const {
    return rank_.empty() ? static_cast<std::uint32_t>(v)
                         : rank_[static_cast<std::size_t>(v)];
  }
  void lock() const {
    while (lock_.test_and_set(std::memory_order_acquire))
      while (lock_.test(std::memory_order_relaxed)) {
      }
  }
  void unlock() const { lock_.clear(std::memory_order_release); }

  std::vector<char> forwards_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> offset_;  // CSR: per-node slice of arcs_
  std::vector<Arc> arcs_;

  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  mutable std::vector<std::unique_ptr<Row>> rows_;
};

/// A route from src to dst: the node sequence (src first, dst last) and
/// the link sequence (one shorter).  Empty links with nodes == {src} means
/// src == dst.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  std::size_t hops() const { return links.size(); }
  bool valid() const { return !nodes.empty(); }
};

/// The simulator's route table: a ShortestPaths core over a Topology's
/// enabled links, with node names ranked for exact ties.
class RoutingTable {
 public:
  explicit RoutingTable(const Topology& topology);

  /// Routes over a partial network: links whose id maps to false in
  /// `link_enabled` are ignored (failure/maintenance scenarios).
  RoutingTable(const Topology& topology,
               const std::vector<bool>& link_enabled);

  /// Route from src to dst, reconstructed from the source's row in
  /// O(path length); throws NotFoundError if dst is unreachable.
  Path route(NodeId src, NodeId dst) const;

  /// True if dst is reachable from src.
  bool reachable(NodeId src, NodeId dst) const;

  /// Total one-way path latency (sum of link latencies).
  Seconds path_latency(NodeId src, NodeId dst) const;

  /// Minimum link capacity along the route (static bottleneck).
  BitsPerSec path_capacity(NodeId src, NodeId dst) const;

 private:
  void check(NodeId src, NodeId dst) const;

  const Topology* topology_;
  std::unique_ptr<ShortestPaths> paths_;
};

}  // namespace remos::netsim
