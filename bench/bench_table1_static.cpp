// Table 1 -- "Performance of programs on nodes selected using Remos on
// our IP based testbed": node selection in a *static* (unloaded)
// environment.  Remos-selected node sets are compared against the paper's
// "other representative node sets"; with no competing traffic the
// differences should be small (the paper saw -0.4%..+7.3%).
#include <iostream>

#include "apps/apps.hpp"
#include "apps/harness.hpp"
#include "bench/bench_common.hpp"
#include "cluster/clustering.hpp"
#include "fx/runtime.hpp"

namespace {

using namespace remos;

double run_once(const fx::AppModel& app,
                const std::vector<std::string>& nodes) {
  apps::CmuHarness harness;
  return fx::FxRuntime(harness.sim(), app, nodes).run().total;
}

std::vector<std::string> remos_select(std::size_t k) {
  apps::CmuHarness harness;
  harness.start(10.0);
  const core::NetworkGraph g = harness.modeler().get_graph(
      harness.hosts(), core::Timeframe::history(8.0));
  const cluster::DistanceMatrix d(g, harness.hosts());
  return cluster::greedy_cluster(d, "m-4", k).nodes;
}

struct Case {
  std::string name;
  fx::AppModel app;
  std::size_t k;
  double paper_remos_secs;  // Table 1's Remos-selected column
  std::vector<std::vector<std::string>> other_sets;
  std::vector<double> paper_other_secs;
};

}  // namespace

int main() {
  using bench::pct_increase;
  using bench::row;
  using bench::rule;

  std::vector<Case> cases = {
      {"FFT(512)", apps::make_fft(512), 2, 0.462,
       {{"m-1", "m-4"}, {"m-4", "m-8"}},
       {0.468, 0.481}},
      {"FFT(512)", apps::make_fft(512), 4, 0.266,
       {{"m-1", "m-2", "m-4", "m-5"}, {"m-1", "m-4", "m-6", "m-7"}},
       {0.287, 0.268}},
      {"FFT(1K)", apps::make_fft(1024), 2, 2.63,
       {{"m-1", "m-4"}, {"m-4", "m-8"}},
       {2.66, 2.68}},
      {"FFT(1K)", apps::make_fft(1024), 4, 1.51,
       {{"m-1", "m-2", "m-4", "m-5"}, {"m-1", "m-4", "m-6", "m-7"}},
       {1.62, 1.61}},
      {"Airshed", apps::make_airshed(), 3, 908,
       {{"m-4", "m-6", "m-8"}, {"m-1", "m-4", "m-7"}},
       {907, 917}},
      {"Airshed", apps::make_airshed(), 5, 650,
       {{"m-1", "m-2", "m-3", "m-4", "m-5"},
        {"m-1", "m-2", "m-4", "m-5", "m-7"}},
       {647, 657}},
  };

  std::cout << "Table 1: node selection in a static (unloaded) network\n"
            << "start node m-4; times in seconds; paper values in ()\n\n";
  const std::vector<int> w{9, 3, 24, 9, 9, 26, 9, 9, 7};
  row({"program", "n", "remos-selected set", "t", "(paper)", "other set",
       "t", "(paper)", "+%"},
      w);
  rule(w);

  for (const Case& c : cases) {
    const auto selected = remos_select(c.k);
    const double t_remos = run_once(c.app, selected);
    bool first = true;
    for (std::size_t o = 0; o < c.other_sets.size(); ++o) {
      const double t_other = run_once(c.app, c.other_sets[o]);
      row({first ? c.name : "", first ? std::to_string(c.k) : "",
           first ? join(selected, ",") : "",
           first ? fixed(t_remos, c.k > 2 || t_remos < 10 ? 3 : 2) : "",
           first ? concat("(", fixed(c.paper_remos_secs, 3), ")") : "",
           join(c.other_sets[o], ","),
           fixed(t_other, t_other < 10 ? 3 : 1),
           concat("(", fixed(c.paper_other_secs[o], 3), ")"),
           pct_increase(t_remos, t_other)},
          w);
      first = false;
    }
  }
  std::cout << "\nExpectation (paper): on an unloaded testbed with "
               "uniform links, all sets are\nnearly equivalent -- "
               "differences stay in the single-digit percent range.\n";
  return 0;
}
