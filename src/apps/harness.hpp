// Experiment harness: the full Remos deployment on the simulated CMU
// testbed, wired end-to-end exactly as Figure 2 prescribes --
//
//   Simulator (testbed) -> SNMP agents -> Transport -> SnmpCollector
//                                                   -> Modeler -> queries
//
// Nothing in the query path reads simulator state directly; everything
// flows through the encoded SNMP protocol, so experiments exercise the
// same machinery an application would.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collector/snmp_collector.hpp"
#include "core/modeler.hpp"
#include "netsim/simulator.hpp"
#include "netsim/testbeds.hpp"
#include "obs/obs.hpp"
#include "service/query_service.hpp"
#include "snmp/agent.hpp"
#include "snmp/fault_injector.hpp"
#include "snmp/mib2.hpp"
#include "snmp/transport.hpp"

namespace remos::apps {

class CmuHarness {
 public:
  struct Options {
    /// Collector polling period; the paper's Collector polls router
    /// counters every few seconds.
    Seconds poll_period = 2.0;
    /// Datagram loss on the management network.
    double snmp_loss = 0.0;
    /// Run host agents (CPU/memory info) in addition to router agents.
    bool host_agents = true;
    BitsPerSec link_rate = mbps(100);
    std::uint64_t seed = 0x51D;
    /// Collector policy (retry budgets, circuit breaker, plausibility
    /// margins) -- chaos experiments tighten these.
    collector::SnmpCollector::Options collector;
  };

  explicit CmuHarness(Options options);
  CmuHarness() : CmuHarness(Options{}) {}

  netsim::Simulator& sim() { return sim_; }
  snmp::Transport& transport() { return transport_; }
  /// The attached fault injector (idle until faults are scripted).  Its
  /// windows run on the simulator clock, which the transport is wired to.
  snmp::FaultInjector& fault_injector() { return injector_; }
  collector::SnmpCollector& collector() { return collector_; }
  const core::Modeler& modeler() const { return modeler_; }
  core::Modeler& modeler() { return modeler_; }

  /// The deployment-wide observability bundle.  All planes record into
  /// it; metrics().render() yields the Prometheus-style exposition at
  /// any time.
  obs::Observability& observability() { return obs_; }
  obs::MetricsRegistry& metrics() { return obs_.metrics; }
  obs::FlightRecorder& recorder() { return obs_.recorder; }
  /// The telemetry history plane: ground-truth "sim.link.*", measured
  /// "collector.link.*" and "service.*" time series accumulate here
  /// (dump via obs::dump_series_csv / the weathermap).
  obs::TimeSeriesStore& series() { return obs_.series; }

  /// Host names (m-1..m-8).
  const std::vector<std::string>& hosts() const;

  /// Discovers the topology, starts periodic polling and advances the
  /// clock through `warmup` seconds so histories have content.
  void start(Seconds warmup = 6.0);

  /// Builds and starts a concurrent query service over this deployment.
  /// The service's background poller thread advances the simulated clock
  /// by poll_period per step (firing the collector's timer-driven polls),
  /// and the collector's poll hook publishes an immutable snapshot after
  /// each poll round.  From the moment serve() returns, the simulator and
  /// collector belong to the poller thread: interact with the experiment
  /// through the returned service, and stop() it (or destroy it) before
  /// touching sim()/collector() directly again.  The harness must outlive
  /// the returned service.
  std::unique_ptr<service::QueryService> serve(
      service::QueryService::Options options =
          service::QueryService::Options{});

  /// Mutable host-side stats (index matches hosts()).
  snmp::HostStats& host_stats(const std::string& host);

 private:
  Seconds poll_period_;
  // Declared before the components that hold handles into it, so the
  // registry cells outlive every handle.
  obs::Observability obs_;
  core::ModelerObs modeler_obs_;
  netsim::Simulator sim_;
  snmp::Transport transport_;
  snmp::FaultInjector injector_;
  std::vector<std::unique_ptr<snmp::Agent>> agents_;
  std::vector<std::unique_ptr<snmp::HostStats>> stats_;
  std::vector<std::string> stat_names_;
  collector::SnmpCollector collector_;
  core::Modeler modeler_;
};

}  // namespace remos::apps
