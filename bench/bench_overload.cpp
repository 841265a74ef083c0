// Overload-control bench: the tenant-aware admission plane under a
// hot-tenant storm, plus the result cache's fresh-hit fast path.
//
// Phase A (cache micro): a standalone QueryService over a small star
// model; measures executed-query p50 (cache off) against fresh-hit p50
// (cache on, stable snapshot version) -- the O(1) lookup the brownout
// ladder's first rung rides on.
//
// Phase B (hot-tenant storm): the CMU testbed harness with the PR 1
// fault schedule active; 7 paced victim tenants and one unpaced hot
// tenant (10 threads through a retry-budgeted RemosClient) against a
// 16-slot strictly-sliced service.  A hot-free baseline run anchors the
// victim latency class.  Reports per the ISSUE 7 acceptance bar:
//   victim_p99_ratio      worst victim storm-p99 / max(baseline, 10ms)
//   victim_goodput        worst victim fraction of ok() answers
//   hot_shed_share        sheds charged to the hot tenant / all sheds
//   retry_amplification   hot client attempts / requests
//
// Results print as a table and are written to BENCH_overload.json
// (override with --out FILE) for CI trend tracking.
//
// Flags:
//   --check   exit nonzero if victim_p99_ratio > 2.0, victim_goodput
//             < 0.95, hot_shed_share < 0.90, or retry_amplification
//             > 1.3
//   --out F   write the JSON to F instead of BENCH_overload.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/harness.hpp"
#include "bench/bench_common.hpp"
#include "collector/network_model.hpp"
#include "service/query_service.hpp"
#include "service/remos_client.hpp"
#include "service/tenant_admission.hpp"
#include "snmp/fault_injector.hpp"
#include "util/strings.hpp"

namespace {

using namespace remos;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using apps::CmuHarness;
using service::GraphQuery;
using service::GraphResponse;
using service::QueryService;
using service::RemosClient;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

double p50(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double p99(std::vector<double>& v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<std::size_t>(0.99 *
                                             static_cast<double>(v.size())))];
}

/// Eight hosts behind one router, histories stamped at `t`.
collector::NetworkModel star_model(Seconds t) {
  collector::NetworkModel m;
  m.upsert_node("r", true);
  for (int i = 0; i < 8; ++i) {
    const std::string h = concat("h", i);
    m.upsert_node(h, false);
    m.upsert_link(h, "r", mbps(100), millis(0.2));
  }
  for (collector::ModelLink& l : m.links()) {
    l.last_update = t;
    l.history.record(collector::Sample{t, mbps(10), mbps(5)});
  }
  return m;
}

// --- Phase A: the fresh-hit fast path ---------------------------------

struct CacheResult {
  double exec_p50_us = 0;
  double hit_p50_us = 0;
  double hit_rate = 0;
  int queries = 0;
};

CacheResult run_cache_phase() {
  CacheResult r;
  r.queries = 5'000;

  const auto measure = [&](std::size_t cache_capacity) {
    QueryService::Options o;
    o.workers = 2;
    o.queue_capacity = 32;
    o.staleness_slo = 1e9;
    o.cache_capacity = cache_capacity;
    QueryService svc(o);
    svc.start();
    svc.publish(star_model(0.0), 0.0);
    std::vector<double> lat;
    lat.reserve(static_cast<std::size_t>(r.queries));
    for (int i = 0; i < r.queries; ++i) {
      GraphQuery q;
      q.nodes = {"h0", "h1"};
      const auto t0 = Clock::now();
      const GraphResponse resp = svc.get_graph(std::move(q));
      lat.push_back(us_since(t0));
      if (!resp.meta.ok()) break;
    }
    const double rate =
        static_cast<double>(svc.stats().cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(1, svc.stats().submitted));
    svc.stop();
    return std::pair<double, double>(p50(lat), rate);
  };

  r.exec_p50_us = measure(0).first;
  const auto [hit_p50, hit_rate] = measure(1024);
  r.hit_p50_us = hit_p50;
  r.hit_rate = hit_rate;
  return r;
}

// --- Phase B: the hot-tenant storm ------------------------------------

constexpr int kVictims = 7;
constexpr int kQueriesPerVictim = 400;
constexpr auto kVictimSpacing = 150us;
constexpr auto kVictimDeadline = 50ms;

struct StormResult {
  std::vector<double> victim_p99_us;  // per victim
  double worst_goodput = 1.0;
  std::uint64_t hot_sheds = 0;
  std::uint64_t total_sheds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t degraded = 0;
  RemosClient::Stats hot;
};

StormResult run_storm(bool with_hot) {
  CmuHarness::Options ho;
  ho.poll_period = 2.0;
  CmuHarness h(ho);
  snmp::FaultInjector& fx = h.fault_injector();
  fx.loss_burst({10.0, 40.0}, 0.30);
  fx.crash(snmp::agent_address("timberline"), {50.0, 70.0});
  fx.counter_reset(snmp::agent_address("aspen"), 80.0);
  fx.crash(snmp::agent_address("whiteface"), {90.0, 120.0});
  h.start(6.0);

  QueryService::Options so;
  so.workers = 4;
  so.queue_capacity = 16;
  so.reserved_fraction = 1.0;
  so.default_deadline = 100ms;
  so.staleness_slo = 1e9;
  so.poll_interval = 3ms;
  so.cache_capacity = 256;
  so.brownout_halflife = 30.0;
  auto svc = h.serve(so);

  std::vector<int> victims;
  for (int v = 0; v < kVictims; ++v)
    victims.push_back(
        svc->register_tenant(concat("victim-", v), 1.0));
  const int hot_id = svc->register_tenant("hot", 1.0);

  const std::vector<std::string> hosts = h.hosts();
  std::vector<std::vector<double>> latencies(kVictims);
  std::vector<std::uint64_t> ok(kVictims, 0);

  std::atomic<bool> victims_done{false};
  std::vector<std::thread> threads;
  for (int v = 0; v < kVictims; ++v) {
    threads.emplace_back([&, v] {
      auto& lat = latencies[static_cast<std::size_t>(v)];
      lat.reserve(kQueriesPerVictim);
      for (int i = 0; i < kQueriesPerVictim; ++i) {
        GraphQuery q;
        q.nodes = {hosts[static_cast<std::size_t>(v) % hosts.size()],
                   hosts[static_cast<std::size_t>(v + 1 + i % 3) %
                         hosts.size()]};
        q.tenant = victims[static_cast<std::size_t>(v)];
        q.deadline = kVictimDeadline;
        const auto t0 = Clock::now();
        const service::ResponseMeta meta = svc->get_graph(std::move(q)).meta;
        lat.push_back(us_since(t0));
        if (meta.ok()) ++ok[static_cast<std::size_t>(v)];
        std::this_thread::sleep_for(kVictimSpacing);
      }
    });
  }

  RemosClient::Options co;
  co.tenant = hot_id;
  co.max_attempts = 3;
  co.base_backoff = 100us;
  RemosClient hot_client(*svc, co);
  std::vector<std::thread> hot_threads;
  if (with_hot) {
    for (int t = 0; t < 10; ++t) {
      hot_threads.emplace_back([&, t] {
        std::uint64_t s =
            0x9e3779b97f4a7c15ull * static_cast<unsigned>(t + 1);
        while (!victims_done.load(std::memory_order_acquire)) {
          s ^= s << 13;
          s ^= s >> 7;
          s ^= s << 17;
          GraphQuery q;
          q.nodes = {hosts[(s >> 3) % hosts.size()],
                     hosts[(s >> 17) % hosts.size()],
                     hosts[(s >> 31) % hosts.size()]};
          hot_client.get_graph(std::move(q));
        }
      });
    }
  }

  for (std::thread& t : threads) t.join();
  victims_done.store(true, std::memory_order_release);
  for (std::thread& t : hot_threads) t.join();

  StormResult r;
  for (int v = 0; v < kVictims; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    r.victim_p99_us.push_back(p99(latencies[i]));
    r.worst_goodput = std::min(
        r.worst_goodput, static_cast<double>(ok[i]) /
                             static_cast<double>(kQueriesPerVictim));
    r.hot_sheds = svc->admission().tenant_stats(hot_id).shed;
  }
  r.total_sheds = svc->admission().shed();
  r.hot = hot_client.stats();
  svc->stop();
  r.cache_hits = svc->stats().cache_hits;
  r.degraded = svc->stats().degraded;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::row;
  using bench::rule;

  bool check = false;
  std::string out = "BENCH_overload.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  std::cout << "Overload control plane: result cache, hot-tenant storm\n\n";

  const CacheResult cache = run_cache_phase();
  const StormResult base = run_storm(/*with_hot=*/false);
  const StormResult storm = run_storm(/*with_hot=*/true);

  // The 10ms floor on the baseline absorbs queueing behind admitted hot
  // jobs plus scheduler noise (mirrors the test soak's gate; the real
  // failure guarded is victims pushed toward their 50ms deadline).
  double ratio = 0;
  double worst_base_us = 0, worst_storm_us = 0;
  for (int v = 0; v < kVictims; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    const double floor_us = std::max(base.victim_p99_us[i], 10'000.0);
    if (storm.victim_p99_us[i] / floor_us > ratio) {
      ratio = storm.victim_p99_us[i] / floor_us;
      worst_base_us = base.victim_p99_us[i];
      worst_storm_us = storm.victim_p99_us[i];
    }
  }
  const double shed_share =
      storm.total_sheds == 0
          ? 1.0
          : static_cast<double>(storm.hot_sheds) /
                static_cast<double>(storm.total_sheds);
  const double amplification =
      storm.hot.requests == 0
          ? 1.0
          : static_cast<double>(storm.hot.attempts) /
                static_cast<double>(storm.hot.requests);

  const std::vector<int> w{24, 22, 12, 8};
  row({"phase", "metric", "value", "unit"}, w);
  rule(w);
  row({"cache (star-8)", "executed p50", fixed(cache.exec_p50_us, 1), "us"},
      w);
  row({"", "fresh hit p50", fixed(cache.hit_p50_us, 1), "us"}, w);
  row({"", "hit rate", fixed(cache.hit_rate * 100, 1), "%"}, w);
  row({"storm (cmu + faults)", "victim p99 ratio", fixed(ratio, 2), "x"},
      w);
  row({"", "worst victim p99", fixed(worst_storm_us, 0), "us"}, w);
  row({"", "baseline p99", fixed(worst_base_us, 0), "us"}, w);
  row({"", "victim goodput", fixed(storm.worst_goodput * 100, 2), "%"}, w);
  row({"", "hot shed share", fixed(shed_share * 100, 1), "%"}, w);
  row({"", "retry amplification", fixed(amplification, 3), "x"}, w);
  row({"", "sheds", std::to_string(storm.total_sheds), ""}, w);
  row({"", "brownout answers", std::to_string(storm.degraded), ""}, w);
  std::cout << "\n(" << storm.hot.requests << " hot requests, "
            << storm.hot.attempts << " attempts, " << storm.cache_hits
            << " cache hits)\n";

  std::ofstream json(out);
  json << "{\n"
       << "  \"cache\": {\"exec_p50_us\": " << fixed(cache.exec_p50_us, 1)
       << ", \"hit_p50_us\": " << fixed(cache.hit_p50_us, 1)
       << ", \"hit_rate\": " << fixed(cache.hit_rate, 4)
       << ", \"queries\": " << cache.queries << "},\n"
       << "  \"storm\": {\"victim_p99_ratio\": " << fixed(ratio, 2)
       << ", \"worst_victim_p99_us\": " << fixed(worst_storm_us, 0)
       << ", \"victim_goodput\": " << fixed(storm.worst_goodput, 4)
       << ", \"hot_shed_share\": " << fixed(shed_share, 4)
       << ", \"retry_amplification\": " << fixed(amplification, 3)
       << ", \"total_sheds\": " << storm.total_sheds
       << ", \"degraded\": " << storm.degraded
       << ", \"cache_hits\": " << storm.cache_hits
       << ", \"hot_requests\": " << storm.hot.requests << "}\n"
       << "}\n";
  std::cout << "\nwrote " << out << "\n";

  bool ok = true;
  if (check) {
    ok = ratio <= 2.0 && storm.worst_goodput >= 0.95 &&
         shed_share >= 0.90 && amplification <= 1.3 &&
         storm.total_sheds > 50;
    if (!ok) std::cerr << "BENCH_overload: --check gates violated\n";
  }
  return ok ? 0 : 1;
}
