#include "core/modeler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <map>
#include <set>

#include "netsim/maxmin.hpp"
#include "util/error.hpp"

namespace remos::core {

ModelerObs ModelerObs::resolve(const obs::Obs& o) {
  ModelerObs m;
  if (o.metrics) {
    m.graph_queries =
        o.metrics->counter("remos_modeler_graph_queries_total", {},
                           "Logical-topology queries answered");
    m.flow_queries = o.metrics->counter(
        "remos_modeler_flow_queries_total", {}, "Flow queries answered");
    m.partial_graphs = o.metrics->counter(
        "remos_modeler_partial_graphs_total", {},
        "Graph answers that dropped unknown nodes (partial results)");
    m.unroutable_flows = o.metrics->counter(
        "remos_modeler_unroutable_flows_total", {},
        "Flow results returned with routable=false");
    m.solve_duration = o.metrics->histogram(
        "remos_modeler_solve_duration_seconds",
        obs::default_time_buckets(), {},
        "Max-min scenario sweep duration per flow query");
  }
  return m;
}

Modeler::Modeler(const collector::Collector& collector)
    : single_(&collector) {}

Modeler::Modeler(const collector::CollectorSet& set) : set_(&set) {}

Modeler::Modeler(const collector::NetworkModel& snapshot)
    : snapshot_(&snapshot) {}

void Modeler::set_clock(std::function<Seconds()> clock) {
  clock_ = std::move(clock);
}

void Modeler::set_predictor(std::unique_ptr<Predictor> predictor) {
  if (!predictor) throw InvalidArgument("set_predictor: null predictor");
  predictor_ = std::move(predictor);
}

const collector::NetworkModel& Modeler::model() const {
  if (snapshot_) return *snapshot_;
  if (single_) return single_->model();
  merged_cache_ = set_->merged();
  return merged_cache_;
}

Seconds Modeler::now(const collector::NetworkModel& m) const {
  if (clock_) return clock_();
  Seconds newest = 0;
  for (const collector::ModelLink& l : m.links())
    if (!l.history.empty()) newest = std::max(newest, l.history.latest().at);
  return newest;
}

GraphResult Modeler::get_graph_result(const std::vector<std::string>& nodes,
                                      const Timeframe& timeframe,
                                      const LogicalOptions& options) const {
  GraphResult out;
  if (obs_) obs_->graph_queries.inc();
  try {
    timeframe.validate();
  } catch (const std::exception& e) {
    out.status = obs::GraphStatus::kInvalid;
    out.error = e.what();
    return out;
  }
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  const collector::NetworkModel& m = model();

  // Partition the queried names so one typo degrades the answer instead
  // of aborting it.
  std::vector<std::string> known;
  known.reserve(nodes.size());
  for (const std::string& n : nodes) {
    if (m.has_node(n))
      known.push_back(n);
    else
      out.unknown_nodes.push_back(n);
  }
  if (!nodes.empty() && known.empty()) {
    out.status = obs::GraphStatus::kUnresolved;
    return out;
  }

  {
    obs::TraceBuilder::Scoped span(trace_, "logical_build");
    try {
      out.graph = build_logical_graph(m, known, timeframe, now(m),
                                      *predictor_, options);
    } catch (const std::exception& e) {
      out.status = obs::GraphStatus::kInvalid;
      out.error = e.what();
      out.graph = NetworkGraph{};
      return out;
    }
  }
  if (!out.unknown_nodes.empty()) {
    out.status = obs::GraphStatus::kPartial;
    if (obs_) obs_->partial_graphs.inc();
  }
  return out;
}

NetworkGraph Modeler::get_graph(const std::vector<std::string>& nodes,
                                const Timeframe& timeframe,
                                const LogicalOptions& options) const {
  GraphResult r = get_graph_result(nodes, timeframe, options);
  if (r.status == obs::GraphStatus::kInvalid) throw InvalidArgument(r.error);
  if (!r.unknown_nodes.empty())
    throw NotFoundError("get_graph: unknown node " + r.unknown_nodes.front());
  return std::move(r.graph);
}

namespace {

/// A routed query flow ready for allocation.
struct RoutedFlow {
  const FlowRequest* request;
  std::vector<std::size_t> resources;  // directed link / node resources
  Seconds latency = 0;
  std::size_t min_samples = std::numeric_limits<std::size_t>::max();
  double min_accuracy = 1.0;
  bool routable = false;
};

/// Background-usage scenario index 0..4 maps to the used-bandwidth
/// quartile {min,q1,median,q3,max}; low usage = optimistic scenario.
double used_at(const Measurement& used, std::size_t scenario) {
  if (!used.known()) return 0.0;
  switch (scenario) {
    case 0: return used.quartiles.min;
    case 1: return used.quartiles.q1;
    case 2: return used.quartiles.median;
    case 3: return used.quartiles.q3;
    default: return used.quartiles.max;
  }
}

/// Validates the flow structure and collects the endpoint set (the
/// InvalidArgument throws here are flow_info's documented contract).
std::set<std::string> flow_query_endpoints(const FlowQuery& query) {
  std::vector<const FlowRequest*> all;
  for (const FlowRequest& f : query.fixed) all.push_back(&f);
  for (const FlowRequest& f : query.variable) all.push_back(&f);
  if (query.independent) all.push_back(&*query.independent);
  if (all.empty() && query.multicast.empty())
    throw InvalidArgument("flow_info: no flows in query");

  std::set<std::string> endpoint_set;
  for (const FlowRequest* f : all) {
    if (f->src == f->dst)
      throw InvalidArgument("flow_info: src == dst for " + f->src);
    endpoint_set.insert(f->src);
    endpoint_set.insert(f->dst);
  }
  for (const MulticastRequest& m : query.multicast) {
    if (m.dsts.empty())
      throw InvalidArgument("flow_info: multicast without receivers");
    endpoint_set.insert(m.src);
    for (const std::string& d : m.dsts) {
      if (d == m.src)
        throw InvalidArgument("flow_info: multicast src == dst for " +
                              m.src);
      endpoint_set.insert(d);
    }
  }
  return endpoint_set;
}

/// Fingerprint of what determines a flow query's logical graph: the
/// timeframe and the known endpoint set (already sorted by std::set).
/// Independent-mode batch sub-queries with equal keys share one build.
std::string graph_group_key(const Timeframe& tf,
                            const std::set<std::string>& known) {
  std::string key = std::to_string(static_cast<int>(tf.kind)) + ':' +
                    std::to_string(tf.window) + ':' +
                    std::to_string(tf.horizon);
  for (const std::string& e : known) {
    key += '\x1f';
    key += e;
  }
  return key;
}

}  // namespace

LogicalView Modeler::build_flow_graph(const collector::NetworkModel& m,
                                      const std::set<std::string>& known,
                                      const Timeframe& timeframe) const {
  // The embedded topology lookup counts as a graph query of its own.
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceBuilder::Scoped span(trace_, "logical_build");
  if (known.empty()) return LogicalView{};
  return build_logical_view(m, {known.begin(), known.end()}, timeframe,
                            now(m), *predictor_, LogicalOptions{});
}

FlowQueryResult Modeler::flow_info(const FlowQuery& query) const {
  query.timeframe.validate();
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  if (obs_) obs_->flow_queries.inc();
  // Endpoint set -> logical graph for the query's timeframe.  Endpoints
  // the model does not know make their flows structured routable=false
  // results instead of a NotFoundError escaping the query API
  // mid-session; the logical graph is built over the known names.
  const std::set<std::string> endpoint_set = flow_query_endpoints(query);
  const collector::NetworkModel& m = model();
  std::set<std::string> known;
  for (const std::string& e : endpoint_set)
    if (m.has_node(e)) known.insert(e);
  return solve_on_graph(query, build_flow_graph(m, known, query.timeframe),
                        known);
}

FlowQueryResult Modeler::solve_on_graph(
    const FlowQuery& query, const LogicalView& view,
    const std::set<std::string>& known) const {
  const NetworkGraph& graph = view.graph;
  std::vector<const FlowRequest*> all;
  for (const FlowRequest& f : query.fixed) all.push_back(&f);
  for (const FlowRequest& f : query.variable) all.push_back(&f);
  if (query.independent) all.push_back(&*query.independent);
  const auto resolvable = [&](const FlowRequest& f) {
    return known.contains(f.src) && known.contains(f.dst);
  };

  // Resource table over the logical graph: two directed resources per
  // link, then one per node with a known internal bandwidth.
  const std::size_t nl = graph.links().size();
  std::vector<const Measurement*> dir_used(2 * nl);
  std::vector<double> dir_capacity(2 * nl);
  for (std::size_t i = 0; i < nl; ++i) {
    const GraphLink& l = graph.links()[i];
    dir_capacity[2 * i] = l.capacity.mean;
    dir_capacity[2 * i + 1] = l.capacity.mean;
    dir_used[2 * i] = &l.used_ab;
    dir_used[2 * i + 1] = &l.used_ba;
  }
  std::vector<std::string> constrained_nodes;
  std::vector<double> node_capacity;
  for (const auto& [name, n] : graph.nodes()) {
    if (n.internal_bw.known()) {
      constrained_nodes.push_back(name);
      node_capacity.push_back(n.internal_bw.mean);
    }
  }

  // Every flow takes the route the logical build walked for its pair.
  const std::size_t route_span =
      trace_ ? trace_->open("route_resolution") : 0;
  std::vector<RoutedFlow> routed(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    RoutedFlow& rf = routed[i];
    rf.request = all[i];
    if (!resolvable(*all[i])) continue;  // unknown endpoint: unroutable
    const auto path = view.route(all[i]->src, all[i]->dst);
    if (!path) continue;
    rf.routable = true;
    for (std::size_t k = 0; k < path->link_indices.size(); ++k) {
      const std::size_t li = path->link_indices[k];
      const GraphLink& l = graph.links()[li];
      const bool forward = path->nodes[k] == l.a;
      rf.resources.push_back(2 * li + (forward ? 0 : 1));
      rf.latency += l.latency.quartiles.median;
      const Measurement& used = forward ? l.used_ab : l.used_ba;
      if (used.known()) {
        rf.min_samples = std::min(rf.min_samples, used.samples);
        rf.min_accuracy = std::min(rf.min_accuracy, used.accuracy);
      }
      rf.min_accuracy = std::min(rf.min_accuracy, l.capacity.accuracy);
    }
    for (const std::string& name : path->nodes) {
      const auto it = std::find(constrained_nodes.begin(),
                                constrained_nodes.end(), name);
      if (it != constrained_nodes.end())
        rf.resources.push_back(
            2 * nl + static_cast<std::size_t>(
                         it - constrained_nodes.begin()));
    }
  }

  // Route the multicast trees: the resource set is the union over the
  // per-receiver paths (each tree link charged once), latency is the
  // farthest receiver's.
  struct RoutedMulticast {
    std::vector<std::size_t> resources;
    Seconds latency = 0;
    double min_accuracy = 1.0;
    bool routable = true;
  };
  std::vector<RoutedMulticast> routed_mc(query.multicast.size());
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    const MulticastRequest& mc = query.multicast[i];
    RoutedMulticast& rm = routed_mc[i];
    if (!known.contains(mc.src)) {
      rm.routable = false;
      continue;
    }
    for (const std::string& dst : mc.dsts)
      if (!known.contains(dst)) rm.routable = false;
    if (!rm.routable) continue;
    std::set<std::size_t> union_resources;
    for (const std::string& dst : mc.dsts) {
      const auto path = view.route(mc.src, dst);
      if (!path) {
        rm.routable = false;
        break;
      }
      Seconds leaf_latency = 0;
      for (std::size_t k = 0; k < path->link_indices.size(); ++k) {
        const std::size_t li = path->link_indices[k];
        const GraphLink& l = graph.links()[li];
        const bool forward = path->nodes[k] == l.a;
        union_resources.insert(2 * li + (forward ? 0 : 1));
        leaf_latency += l.latency.quartiles.median;
        const Measurement& used = forward ? l.used_ab : l.used_ba;
        if (used.known())
          rm.min_accuracy = std::min(rm.min_accuracy, used.accuracy);
      }
      rm.latency = std::max(rm.latency, leaf_latency);
      for (const std::string& name : path->nodes) {
        const auto it = std::find(constrained_nodes.begin(),
                                  constrained_nodes.end(), name);
        if (it != constrained_nodes.end())
          union_resources.insert(
              2 * nl + static_cast<std::size_t>(
                           it - constrained_nodes.begin()));
      }
    }
    rm.resources.assign(union_resources.begin(), union_resources.end());
  }
  if (trace_) trace_->close(route_span);

  // Evaluate the staged allocation under each background scenario.
  const std::size_t solve_span =
      trace_ ? trace_->open("maxmin_solve") : 0;
  const auto solve_t0 = std::chrono::steady_clock::now();
  constexpr std::size_t kScenarios = 5;
  std::vector<std::array<double, kScenarios>> grants(
      all.size(), std::array<double, kScenarios>{});
  std::vector<bool> satisfied_median(all.size(), false);
  std::vector<std::array<double, kScenarios>> mc_grants(
      query.multicast.size(), std::array<double, kScenarios>{});
  std::vector<bool> mc_satisfied(query.multicast.size(), false);

  for (std::size_t s = 0; s < kScenarios; ++s) {
    std::vector<double> residual(2 * nl + constrained_nodes.size());
    for (std::size_t r = 0; r < 2 * nl; ++r)
      residual[r] =
          std::max(0.0, dir_capacity[r] - used_at(*dir_used[r], s));
    for (std::size_t k = 0; k < constrained_nodes.size(); ++k)
      residual[2 * nl + k] = node_capacity[k];

    // Stage 1: fixed flows, in query order (first come, first admitted).
    for (std::size_t i = 0; i < query.fixed.size(); ++i) {
      RoutedFlow& rf = routed[i];
      if (!rf.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : rf.resources)
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant = std::min(rf.request->requested, bottleneck);
      grants[i][s] = grant;
      for (std::size_t r : rf.resources) residual[r] -= grant;
      if (s == 2)
        satisfied_median[i] = grant >= rf.request->requested * (1 - 1e-9);
    }

    // Stage 1b: multicast trees, admitted after the unicast fixed class.
    for (std::size_t i = 0; i < query.multicast.size(); ++i) {
      RoutedMulticast& rm = routed_mc[i];
      if (!rm.routable) continue;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (std::size_t r : rm.resources)
        bottleneck = std::min(bottleneck, residual[r]);
      const double grant =
          std::min(query.multicast[i].requested, bottleneck);
      mc_grants[i][s] = grant;
      for (std::size_t r : rm.resources) residual[r] -= grant;
      if (s == 2)
        mc_satisfied[i] =
            grant >= query.multicast[i].requested * (1 - 1e-9);
    }

    // Stage 2: variable flows, weighted max-min on the residual.
    if (!query.variable.empty()) {
      std::vector<netsim::MaxMinFlow> specs;
      std::vector<std::size_t> index;  // into routed/grants
      for (std::size_t i = 0; i < query.variable.size(); ++i) {
        const std::size_t gi = query.fixed.size() + i;
        if (!routed[gi].routable) continue;
        netsim::MaxMinFlow spec;
        spec.resources = routed[gi].resources;
        spec.weight = std::max(routed[gi].request->requested, 1e-9);
        specs.push_back(std::move(spec));
        index.push_back(gi);
      }
      if (!specs.empty()) {
        const auto result = netsim::max_min_allocate(residual, specs);
        for (std::size_t k = 0; k < index.size(); ++k) {
          grants[index[k]][s] = result.rates[k];
          if (s == 2) satisfied_median[index[k]] = true;
        }
        residual = result.residual;
      }
    }

    // Stage 3: the independent flow absorbs the leftover bottleneck.
    if (query.independent) {
      const std::size_t gi = all.size() - 1;
      RoutedFlow& rf = routed[gi];
      if (rf.routable) {
        double bottleneck = std::numeric_limits<double>::infinity();
        for (std::size_t r : rf.resources)
          bottleneck = std::min(bottleneck, residual[r]);
        grants[gi][s] = rf.resources.empty() ? 0.0 : bottleneck;
        if (s == 2) satisfied_median[gi] = true;
      }
    }
  }

  if (obs_)
    obs_->solve_duration.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      solve_t0)
            .count());
  if (trace_) trace_->close(solve_span);

  // Assemble results: quartiles across scenarios (scenario 0 = least
  // background usage = highest grant, so reverse into ascending order).
  obs::TraceBuilder::Scoped assemble_span(trace_, "assemble");
  auto to_result = [&](std::size_t i) {
    FlowResult out;
    out.request = *all[i];
    out.routable = routed[i].routable;
    if (!routed[i].routable) {
      if (obs_) obs_->unroutable_flows.inc();
      return out;
    }
    std::vector<double> g(grants[i].begin(), grants[i].end());
    out.bandwidth = Measurement::from_samples(g);
    out.bandwidth.samples = routed[i].min_samples ==
                                    std::numeric_limits<std::size_t>::max()
                                ? 1
                                : routed[i].min_samples;
    out.bandwidth.accuracy = routed[i].min_accuracy;
    out.latency = Measurement::exact(routed[i].latency);
    out.satisfied = satisfied_median[i];
    return out;
  };

  FlowQueryResult result;
  for (std::size_t i = 0; i < query.fixed.size(); ++i)
    result.fixed.push_back(to_result(i));
  for (std::size_t i = 0; i < query.multicast.size(); ++i) {
    MulticastResult out;
    out.request = query.multicast[i];
    out.routable = routed_mc[i].routable;
    if (!out.routable && obs_) obs_->unroutable_flows.inc();
    if (out.routable) {
      std::vector<double> g(mc_grants[i].begin(), mc_grants[i].end());
      out.bandwidth = Measurement::from_samples(g);
      out.bandwidth.accuracy = routed_mc[i].min_accuracy;
      out.latency = Measurement::exact(routed_mc[i].latency);
      out.satisfied = mc_satisfied[i];
    }
    result.multicast.push_back(std::move(out));
  }
  for (std::size_t i = 0; i < query.variable.size(); ++i)
    result.variable.push_back(to_result(query.fixed.size() + i));
  if (query.independent) result.independent = to_result(all.size() - 1);
  return result;
}

FlowBatchResult Modeler::flow_info_batch(const FlowBatchQuery& batch) const {
  if (batch.queries.empty())
    throw InvalidArgument("flow_info_batch: empty batch");
  FlowBatchResult out;
  out.results.resize(batch.queries.size());
  out.errors.resize(batch.queries.size());

  if (batch.mode == FlowBatchQuery::Mode::kShared) {
    // Co-scheduled: the batch IS one combined simultaneous query (paper
    // §4), so one staged max-min sweep prices every sub-query's flows
    // against each other.  The combined query has a single timeframe and
    // at most one independent flow; anything else is a contradiction in
    // the sharing semantics, not an answerable question.
    const Timeframe& tf = batch.queries.front().timeframe;
    std::size_t independents = 0;
    for (const FlowQuery& q : batch.queries) {
      if (q.timeframe.kind != tf.kind || q.timeframe.window != tf.window ||
          q.timeframe.horizon != tf.horizon)
        throw InvalidArgument(
            "flow_info_batch: shared batch requires one timeframe");
      if (q.independent) ++independents;
    }
    if (independents > 1)
      throw InvalidArgument(
          "flow_info_batch: shared batch admits at most one independent "
          "flow");

    FlowQuery combined;
    combined.timeframe = tf;
    for (const FlowQuery& q : batch.queries) {
      combined.fixed.insert(combined.fixed.end(), q.fixed.begin(),
                            q.fixed.end());
      combined.multicast.insert(combined.multicast.end(),
                                q.multicast.begin(), q.multicast.end());
      combined.variable.insert(combined.variable.end(), q.variable.begin(),
                               q.variable.end());
      if (q.independent) combined.independent = q.independent;
    }
    const FlowQueryResult cr = flow_info(combined);

    // Scatter the combined answer back by sub-query offsets.
    std::size_t fi = 0, mi = 0, vi = 0;
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      const FlowQuery& q = batch.queries[i];
      FlowQueryResult& r = out.results[i];
      r.fixed.assign(cr.fixed.begin() + static_cast<std::ptrdiff_t>(fi),
                     cr.fixed.begin() +
                         static_cast<std::ptrdiff_t>(fi + q.fixed.size()));
      r.multicast.assign(
          cr.multicast.begin() + static_cast<std::ptrdiff_t>(mi),
          cr.multicast.begin() +
              static_cast<std::ptrdiff_t>(mi + q.multicast.size()));
      r.variable.assign(
          cr.variable.begin() + static_cast<std::ptrdiff_t>(vi),
          cr.variable.begin() +
              static_cast<std::ptrdiff_t>(vi + q.variable.size()));
      if (q.independent) r.independent = cr.independent;
      fi += q.fixed.size();
      mi += q.multicast.size();
      vi += q.variable.size();
    }
    return out;
  }

  // Independent mode: each sub-query is answered exactly as a lone
  // flow_info call would answer it (same validation, same known-endpoint
  // graph, same staged sweep), but sub-queries naming the same
  // (endpoint set, timeframe) share one logical build -- graph and
  // routes are pure functions of that key, so sharing is bit-for-bit
  // invisible in the results.
  struct Group {
    LogicalView view;
    bool built = false;
  };
  std::map<std::string, Group> groups;
  const collector::NetworkModel& m = model();
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const FlowQuery& q = batch.queries[i];
    try {
      q.timeframe.validate();
      queries_answered_.fetch_add(1, std::memory_order_relaxed);
      if (obs_) obs_->flow_queries.inc();
      const std::set<std::string> endpoint_set = flow_query_endpoints(q);
      std::set<std::string> known;
      for (const std::string& e : endpoint_set)
        if (m.has_node(e)) known.insert(e);
      Group& g = groups[graph_group_key(q.timeframe, known)];
      if (!g.built) {
        g.view = build_flow_graph(m, known, q.timeframe);
        g.built = true;
      }
      out.results[i] = solve_on_graph(q, g.view, known);
    } catch (const std::exception& e) {
      out.errors[i] = e.what();
    }
  }
  return out;
}

}  // namespace remos::core
