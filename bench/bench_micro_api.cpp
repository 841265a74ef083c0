// Microbenchmarks of the Remos query API (google-benchmark).
//
// The paper claims "the cost that an application pays in terms of runtime
// overhead is low and directly related to the depth and frequency of its
// requests for network information."  These timings pin that down for
// this implementation: per-query cost of remos_get_graph and
// remos_flow_info as functions of queried-node count and flow count, and
// the cost of one collector poll round over the wire protocol.
#include <benchmark/benchmark.h>

#include "apps/harness.hpp"
#include "collector/static_collector.hpp"
#include "core/modeler.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;

/// Static model shaped like the query-cost ablation's two-level tree.
collector::NetworkModel tree_model(std::size_t hosts) {
  collector::NetworkModel m;
  const std::size_t routers = std::max<std::size_t>(2, hosts / 4);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_node(concat("r", r), true);
  for (std::size_t r = 0; r < routers; ++r)
    m.upsert_link(concat("r", r),
                  concat("r", (r + 1) % routers), mbps(155),
                  millis(0.2));
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string name = concat("h", h);
    m.upsert_node(name, false);
    m.upsert_link(name, concat("r", h % routers), mbps(100),
                  millis(0.2));
  }
  return m;
}

std::vector<std::string> host_names(std::size_t hosts) {
  std::vector<std::string> out;
  for (std::size_t h = 0; h < hosts; ++h)
    out.push_back(concat("h", h));
  return out;
}

void BM_GetGraph(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  collector::StaticCollector source(tree_model(n));
  core::Modeler modeler(source);
  const auto hosts = host_names(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        modeler.get_graph(hosts, core::Timeframe::statics()));
  }
}
BENCHMARK(BM_GetGraph)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_FlowInfo(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  collector::StaticCollector source(tree_model(32));
  core::Modeler modeler(source);
  core::FlowQuery q;
  q.timeframe = core::Timeframe::statics();
  for (std::size_t i = 0; i < flows; ++i)
    q.variable.push_back(core::FlowRequest{
        concat("h", i % 32),
        concat("h", (i + 7) % 32), 1.0 + static_cast<double>(i)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(modeler.flow_info(q));
  }
}
BENCHMARK(BM_FlowInfo)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_CollectorPollRound(benchmark::State& state) {
  apps::CmuHarness::Options o;
  o.poll_period = 0;  // poll manually
  apps::CmuHarness harness(o);
  harness.collector().discover();
  harness.collector().poll();  // prime counters
  for (auto _ : state) {
    harness.sim().run_for(1.0);
    harness.collector().poll();
  }
}
BENCHMARK(BM_CollectorPollRound);

void BM_SnmpWalkIfTable(benchmark::State& state) {
  apps::CmuHarness::Options o;
  o.poll_period = 0;
  apps::CmuHarness harness(o);
  snmp::Client client(harness.transport(),
                      snmp::agent_address("timberline"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.walk(snmp::oids::kIfTableEntry));
  }
}
BENCHMARK(BM_SnmpWalkIfTable);

}  // namespace

BENCHMARK_MAIN();
