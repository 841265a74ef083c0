// Collector models built straight from generated topologies, for suites
// that drive the query, wire or replication planes without running
// discovery.
#pragma once

#include "collector/network_model.hpp"
#include "netsim/topology.hpp"

namespace remos::test {

/// The model a completed discovery pass over `topo` would produce, with
/// one quiet sample per link so dynamic timeframes have data.
inline collector::NetworkModel quiet_model(const netsim::Topology& topo) {
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

}  // namespace remos::test
