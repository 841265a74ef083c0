// The network graph the Remos API returns (paper §4.3).
//
// "Remos represents the network as a graph with each edge corresponding
// to a link between nodes; nodes can be either compute nodes or network
// nodes."  This is a *logical* topology: links may summarize whole chains
// or clouds of physical equipment, and every dynamic annotation is a
// quartile Measurement for the query's timeframe.  The graph is a value
// type -- a snapshot answered to one query -- so applications can hold it
// while the network moves on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "netsim/routing.hpp"
#include "util/sharing.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace remos::core {

struct GraphNode {
  std::string name;
  bool is_compute = true;
  /// Aggregate forwarding capacity through the node; unknown() if the
  /// network did not reveal one (then only links constrain traffic).
  Measurement internal_bw;
  /// Compute/memory info (the paper's "simple interface to computation
  /// and memory resources"); valid when has_host_info.
  bool has_host_info = false;
  double cpu_load = 0.0;
  std::uint32_t memory_mb = 0;
};

struct GraphLink {
  std::string a;
  std::string b;
  Measurement capacity;  // physical/logical capacity per direction
  Measurement latency;   // one-way
  /// Bandwidth in use by existing traffic, per direction, for the query
  /// timeframe.  available = capacity - used, clamped at 0.
  Measurement used_ab;
  Measurement used_ba;
  /// Physical network nodes hidden inside this logical link (empty for a
  /// link that exists physically).
  std::vector<std::string> abstracts;
  /// How competing flows split this link (extension; a collapsed chain of
  /// mixed policies reports kUnknown).
  SharingPolicy sharing = SharingPolicy::kUnknown;

  Measurement available_ab() const;
  Measurement available_ba() const;
  /// Available bandwidth in the direction from `from` (must be a or b).
  Measurement available_from(const std::string& from) const;
};

/// A route inside a NetworkGraph.
struct GraphPath {
  std::vector<std::string> nodes;           // src ... dst
  std::vector<std::size_t> link_indices;    // into NetworkGraph::links()
  std::size_t hops() const { return link_indices.size(); }
};

/// Routes from one source, from one run of the routing core
/// (netsim::ShortestPaths): answers path queries to every destination,
/// so all-pairs consumers like DistanceMatrix need n trees, not n^2
/// routes.
class RouteTree {
 public:
  /// Route to `dst`; nullopt if unreachable.
  std::optional<GraphPath> path_to(const std::string& dst) const;

 private:
  friend class NetworkGraph;
  std::vector<std::string> names_;  // node id -> name, sorted
  std::int32_t src_ = 0;
  netsim::ShortestPaths::Row row_;
};

class NetworkGraph {
 public:
  GraphNode& add_node(GraphNode node);
  GraphLink& add_link(GraphLink link);

  bool has_node(const std::string& name) const;
  const GraphNode& node(const std::string& name) const;
  const std::map<std::string, GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphLink>& links() const { return links_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const GraphLink* find_link(const std::string& a, const std::string& b,
                             bool* flipped = nullptr) const;
  std::vector<std::string> neighbors(const std::string& name) const;

  /// Mutable link access for clients that post-process annotations (e.g.
  /// crediting an application's own traffic back before costing).
  std::vector<GraphLink>& mutable_links() { return links_; }

  /// Mutable node access for annotation post-processing (e.g. the service
  /// cache discounting dynamic accuracies on brownout answers).  Renaming
  /// a node through this reference is undefined (the key stays put).
  std::map<std::string, GraphNode>& mutable_nodes() { return nodes_; }

  /// The route by the simulator's policy (netsim::ShortestPaths) over
  /// this graph: fewest hops, then least total median latency, then the
  /// predecessor with the smaller name; compute nodes do not forward.
  /// nullopt if disconnected.  The Modeler does not re-route flows this
  /// way: it reuses the routes the logical build walked (LogicalView).
  std::optional<GraphPath> route(const std::string& src,
                                 const std::string& dst) const;

  /// All routes from src (one routing-core run; see RouteTree).
  RouteTree routes_from(const std::string& src) const;

  /// Median available bandwidth of the route's bottleneck, in the
  /// src->dst direction.  0 if unreachable.
  BitsPerSec bottleneck_available(const std::string& src,
                                  const std::string& dst) const;

  /// Sum of median link latencies along the route; +inf if unreachable.
  Seconds path_latency(const std::string& src, const std::string& dst) const;

  /// Same metrics for an already-computed path (avoids re-routing when a
  /// RouteTree is in hand).
  BitsPerSec bottleneck_available_on(const GraphPath& path) const;
  Seconds path_latency_on(const GraphPath& path) const;

  /// Compute-node names, sorted.
  std::vector<std::string> compute_nodes() const;

  /// Human-readable dump (examples and benches print this).
  std::string to_string() const;

 private:
  std::map<std::string, GraphNode> nodes_;
  std::vector<GraphLink> links_;
};

}  // namespace remos::core
