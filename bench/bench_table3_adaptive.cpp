// Table 3 -- "Execution times of adaptive version of Airshed executing on
// a fixed set of nodes and on dynamically selected nodes".  The program
// is compiled for 8 task chunks but only 5 nodes participate, so even the
// fixed run carries decomposition overhead (paper: 862 s vs 650 s for the
// native 5-node build).  Four traffic scenarios from the paper:
//   none             -- idle network
//   non-interfering  -- traffic confined to the aspen side
//   interfering-1    -- the m-6 -> m-8 blast across timberline/whiteface
//   interfering-2    -- a reverse-direction blast (m-8 -> m-5)
// Fixed mapping keeps {m-4..m-8}; the adaptive version migrates at
// iteration boundaries using Remos measurements.
#include <iostream>
#include <memory>

#include "apps/apps.hpp"
#include "apps/harness.hpp"
#include "bench/bench_common.hpp"
#include "fx/adaptation.hpp"
#include "fx/runtime.hpp"

namespace {

using namespace remos;

struct Scenario {
  std::string name;
  // (src, dst) pairs of external blasts.
  std::vector<std::pair<std::string, std::string>> blasts;
  double paper_fixed;
  double paper_adaptive;
};

struct Outcome {
  double seconds = 0;
  std::size_t migrations = 0;
};

Outcome run(const Scenario& scenario, bool adaptive) {
  apps::CmuHarness harness;
  harness.start(5.0);
  std::vector<std::unique_ptr<netsim::CbrTraffic>> traffic;
  for (const auto& [src, dst] : scenario.blasts)
    traffic.push_back(bench::external_traffic(harness.sim(), src, dst));
  harness.sim().run_for(10.0);

  const std::vector<std::string> start_nodes{"m-4", "m-5", "m-6", "m-7",
                                             "m-8"};
  fx::FxRuntime rt(harness.sim(), apps::make_airshed(24, /*chunks=*/8),
                   start_nodes);
  std::unique_ptr<fx::AdaptationModule> adapt;
  if (adaptive) {
    fx::AdaptationModule::Options opts;
    opts.timeframe = core::Timeframe::history(10.0);
    opts.compensate_own_traffic = true;
    adapt = std::make_unique<fx::AdaptationModule>(
        harness.modeler(), harness.hosts(), "m-4", opts);
    rt.set_adaptation(adapt.get());
  }
  const fx::RunStats stats = rt.run();
  return Outcome{stats.total, stats.migrations};
}

}  // namespace

int main() {
  using bench::row;
  using bench::rule;

  std::vector<Scenario> scenarios = {
      {"no traffic", {}, 862, 941},
      {"non-interfering", {{"m-1", "m-2"}}, 866, 974},
      {"interfering-1", {{"m-6", "m-8"}}, 1680, 1045},
      {"interfering-2", {{"m-8", "m-5"}}, 1826, 955},
  };

  std::cout << "Table 3: adaptive Airshed (compiled for 8 chunks, running "
               "on 5 of 8 hosts)\ntimes in seconds; paper values in (); "
               "the non-adaptive native-5 Airshed takes ~650 s\n\n";
  const std::vector<int> w{16, 9, 9, 11, 9, 11};
  row({"traffic", "fixed", "(paper)", "adaptive", "(paper)", "migrations"},
      w);
  rule(w);
  for (const Scenario& s : scenarios) {
    const Outcome fixed_run = run(s, false);
    const Outcome adaptive_run = run(s, true);
    row({s.name, fixed(fixed_run.seconds, 0),
         concat("(", fixed(s.paper_fixed, 0), ")"),
         fixed(adaptive_run.seconds, 0),
         concat("(", fixed(s.paper_adaptive, 0), ")"),
         std::to_string(adaptive_run.migrations)},
        w);
  }
  std::cout
      << "\nExpectation (paper): adaptation costs a moderate overhead "
         "when the network is\nquiet, but under interfering traffic the "
         "fixed mapping roughly doubles in run time\nwhile the adaptive "
         "version migrates off the hot links and stays near its "
         "no-traffic\ntime.\n";
  return 0;
}
