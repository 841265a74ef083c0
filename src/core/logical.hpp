// Logical-topology generation (paper §4.3).
//
// "The graph presented to the user is intended only to represent how the
// network behaves as seen by the user, and does not necessarily show the
// network's true physical topology."  Given the collector's model and the
// set of nodes a query names, this builder:
//   1. keeps only the subgraph relevant to connecting the queried nodes:
//      the union of the routes between every ordered pair, each walked
//      from its source's row of the model's RoutingIndex (the simulator
//      routes src -> dst from src's row, and on exact ties the reverse
//      walk can differ);
//   2. annotates every element for the requested timeframe (static
//      capacities; current / windowed / predicted usage as quartile
//      Measurements);
//   3. collapses chains through unqueried degree-2 network nodes into
//      single logical links (min capacity, summed latency, element-wise
//      worst-case usage), recording the hidden equipment in
//      GraphLink::abstracts -- the paper's complex-network-as-one-link
//      abstraction.
// The walked routes are kept, mapped onto the logical links (a collapsed
// chain's members map to their merged link), so the flow solver prices
// each flow on the path traffic takes instead of re-routing it on the
// collapsed graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collector/network_model.hpp"
#include "core/graph.hpp"
#include "core/predictor.hpp"
#include "core/timeframe.hpp"

namespace remos::core {

struct LogicalOptions {
  /// Collapse degree-2 network chains into logical links.
  bool collapse_chains = true;
  /// Keep the entire known network instead of pruning to relevance
  /// (useful for whole-network dashboards).
  bool keep_all = false;
  /// Staleness half-life: usage-measurement accuracy is multiplied by
  /// 2^(-age / halflife), where age is how long ago a collector last
  /// confirmed the link.  Data from an unreachable router thus answers
  /// queries with honestly widened accuracy instead of an error (paper
  /// §4.4 "variation in the information is reported to the application").
  /// 0 disables decay.
  Seconds accuracy_halflife = 30.0;
};

/// A logical graph plus the routes between the queried nodes it was
/// built for.
struct LogicalView {
  NetworkGraph graph;
  std::vector<std::string> endpoints;  // queried nodes, sorted
  /// The route of endpoints (i, j) is route_links[route_begin[p] ..
  /// route_begin[p + 1]) with p = i * k + j: graph link indices in
  /// src -> dst order, empty if unreachable.
  std::vector<std::uint32_t> route_begin;
  std::vector<std::uint32_t> route_links;

  /// The route src -> dst on graph's links, as the network routes it;
  /// nullopt if either end was not queried or dst is unreachable.
  std::optional<GraphPath> route(const std::string& src,
                                 const std::string& dst) const;
};

/// Builds the annotated logical graph for `nodes` at `now`, with the
/// route between every ordered pair of them.  Throws NotFoundError if a
/// queried node is unknown to the model.
LogicalView build_logical_view(const collector::NetworkModel& model,
                               const std::vector<std::string>& nodes,
                               const Timeframe& timeframe, Seconds now,
                               const Predictor& predictor,
                               const LogicalOptions& options);

/// The graph of build_logical_view, without the routes.
NetworkGraph build_logical_graph(const collector::NetworkModel& model,
                                 const std::vector<std::string>& nodes,
                                 const Timeframe& timeframe, Seconds now,
                                 const Predictor& predictor,
                                 const LogicalOptions& options);

/// Annotation helper shared with the flow solver: the "used bandwidth"
/// Measurement of one link direction for a timeframe.
///
/// kHistory windows are covered-span aware: windows longer than the raw
/// sample ring are answered from the history's rollup cascade (stitched
/// quartiles), and a window reaching beyond all retention reports the
/// effective covered span through `window_out` (when non-null) with the
/// Measurement's accuracy discounted by the coverage ratio -- a
/// long-horizon Timeframe::history query degrades honestly instead of
/// silently answering from the retained tail.
Measurement used_for_timeframe(const collector::LinkHistory& history,
                               const Timeframe& timeframe, Seconds now,
                               bool ab, const Predictor& predictor,
                               obs::WindowStats* window_out = nullptr);

}  // namespace remos::core
