// Differential oracle harness for the incremental max-min solver.
//
// Drives >= 10^4 seeded flow add/remove/reroute/capacity churn events on
// each synthetic generator family and checks the incremental solver
// against the retained from-scratch solver (max_min_allocate, the
// oracle): every flow rate and every per-resource residual must agree to
// a relative 1e-9 (capacities are in bits/sec, ~1e8, so the tolerance is
// scaled: |a - b| <= 1e-9 * max(1, |a|, |b|); the two solvers sum the
// same exact water-fill deltas in different orders, which is the only
// source of divergence).
//
// The second half asserts the scale-plane allocation contract: once the
// solver's scratch buffers reach their high-water mark, a churn event --
// add, remove, reroute, solve -- performs ZERO heap allocations.  The
// whole binary's operator new is instrumented with a gated counter; the
// measured phase replays pre-generated events touching only
// pre-allocated pools.
//
// The timing cases bound what the solver and the Modeler cost at size:
// an incremental re-solve against a from-scratch one, and a 1024-host
// model build plus a thousand flow queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/modeler.hpp"
#include "netsim/generators.hpp"
#include "netsim/maxmin.hpp"
#include "netsim/routing.hpp"
#include "netsim/topology.hpp"
#include "util/rng.hpp"
#include "models.hpp"
#include "timing.hpp"

// GCC pairs the visible `new` expressions with the std::free inside the
// replaced operator delete and cannot see that the replaced operator new
// allocates with std::malloc; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace remos::netsim {
namespace {

// "Within 1e-9" is relative to the magnitude the fill operates at: a
// saturated 100 Mbps link legitimately leaves an ~1e-8 bits/sec residual
// in one summation order and exactly 0 in another, so near-zero values
// are compared at 1e-9 of `scale` (the instance's largest capacity).
bool near_rel(double a, double b, double scale) {
  if (a == b) return true;  // covers +inf == +inf
  const double tol =
      1e-9 * std::max({1.0, std::fabs(a), std::fabs(b), scale});
  return std::fabs(a - b) <= tol;
}

// Directed-link resource layout, matching the Simulator's convention.
std::size_t dir_index(LinkId link, bool from_a) {
  return 2 * static_cast<std::size_t>(link) + (from_a ? 0 : 1);
}

std::vector<std::size_t> path_resources(const Topology& topo,
                                        const RoutingTable& routing,
                                        NodeId src, NodeId dst) {
  std::vector<std::size_t> out;
  const Path path = routing.route(src, dst);
  for (std::size_t i = 0; i < path.links.size(); ++i) {
    const Link& l = topo.link(path.links[i]);
    out.push_back(dir_index(l.id, path.nodes[i] == l.a));
  }
  return out;
}

/// Churn driver over one topology: mirrors every mutation into both the
/// incremental solver and an oracle-visible spec list.
class Churner {
 public:
  Churner(Topology topo, std::uint64_t seed)
      : topo_(std::move(topo)),
        routing_(topo_),
        hosts_(topo_.compute_nodes()),
        rng_(seed) {
    caps_.assign(2 * topo_.link_count(), 0.0);
    for (const Link& l : topo_.links()) {
      caps_[dir_index(l.id, true)] = l.capacity;
      caps_[dir_index(l.id, false)] = l.capacity;
      scale_ = std::max(scale_, l.capacity);
    }
    inc_.reset(caps_);
  }

  void run(std::size_t events, std::size_t check_stride) {
    for (std::size_t e = 0; e < events; ++e) {
      const double p = rng_.uniform();
      if (live_.size() < 4 || (p < 0.45 && live_.size() < 64)) {
        add();
      } else if (p < 0.80) {
        remove();
      } else if (p < 0.95) {
        reroute();
      } else {
        toggle_capacity();
      }
      inc_.solve();
      if ((e + 1) % check_stride == 0 || e + 1 == events) compare(e);
      if ((e + 1) % (check_stride * 10) == 0) check_fairness(e);
    }
  }

 private:
  struct LiveFlow {
    FlowHandle handle;
    MaxMinFlow spec;
  };

  MaxMinFlow random_spec() {
    MaxMinFlow spec;
    for (int tries = 0; tries < 16; ++tries) {
      const NodeId src = hosts_[rng_.below(hosts_.size())];
      const NodeId dst = hosts_[rng_.below(hosts_.size())];
      if (src == dst || !routing_.reachable(src, dst)) continue;
      spec.resources = path_resources(topo_, routing_, src, dst);
      break;
    }
    spec.weight = rng_.uniform(0.5, 4.0);
    spec.rate_cap =
        rng_.chance(0.3) ? mbps(rng_.uniform(1.0, 50.0)) : kUnlimitedRate;
    return spec;
  }

  void add() {
    MaxMinFlow spec = random_spec();
    const FlowHandle h = inc_.add_flow(spec);
    live_.push_back(LiveFlow{h, std::move(spec)});
  }

  void remove() {
    const std::size_t i = rng_.below(live_.size());
    inc_.remove_flow(live_[i].handle);
    live_[i] = std::move(live_.back());
    live_.pop_back();
  }

  void reroute() {
    const std::size_t i = rng_.below(live_.size());
    MaxMinFlow spec = random_spec();
    inc_.update_flow(live_[i].handle, spec.resources.data(),
                     spec.resources.size(), spec.weight, spec.rate_cap);
    live_[i].spec = std::move(spec);
  }

  void toggle_capacity() {
    const auto lid = static_cast<LinkId>(rng_.below(topo_.link_count()));
    const Link& l = topo_.link(lid);
    const std::size_t ab = dir_index(lid, true);
    const std::size_t ba = dir_index(lid, false);
    const double next = caps_[ab] == 0.0 ? l.capacity : 0.0;
    caps_[ab] = next;
    caps_[ba] = next;
    inc_.set_capacity(ab, next);
    inc_.set_capacity(ba, next);
  }

  std::vector<MaxMinFlow> oracle_specs() const {
    std::vector<MaxMinFlow> specs;
    specs.reserve(live_.size());
    for (const LiveFlow& f : live_) specs.push_back(f.spec);
    return specs;
  }

  void compare(std::size_t event) {
    const MaxMinResult ref = max_min_allocate(caps_, oracle_specs());
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const double got = inc_.rate(live_[i].handle);
      ASSERT_TRUE(near_rel(got, ref.rates[i], scale_))
          << "event " << event << " flow " << i << ": incremental " << got
          << " vs oracle " << ref.rates[i];
    }
    for (std::size_t r = 0; r < caps_.size(); ++r) {
      ASSERT_TRUE(near_rel(inc_.residual(r), ref.residual[r], scale_))
          << "event " << event << " resource " << r << ": incremental "
          << inc_.residual(r) << " vs oracle " << ref.residual[r];
    }
  }

  void check_fairness(std::size_t event) {
    std::vector<double> rates;
    rates.reserve(live_.size());
    for (const LiveFlow& f : live_) rates.push_back(inc_.rate(f.handle));
    // eps is absolute in the checker's weighted-rate comparisons, where
    // rounding residue scales with the bits/sec magnitudes; 1e-3 is
    // ~1e-12 relative to the rates while still a meaningful certificate.
    ASSERT_TRUE(is_max_min_fair(caps_, oracle_specs(), rates, 1e-3))
        << "event " << event << ": incremental allocation not max-min fair";
  }

  Topology topo_;
  RoutingTable routing_;
  std::vector<NodeId> hosts_;
  Rng rng_;
  double scale_ = 1.0;
  std::vector<double> caps_;
  IncrementalMaxMin inc_;
  std::vector<LiveFlow> live_;
};

TEST(MaxMinDifferential, FatTreeChurnMatchesOracle) {
  FatTreeParams p;
  p.k = 4;
  Churner churner(make_fat_tree(p), 0xFA7);
  churner.run(10000, 5);
}

TEST(MaxMinDifferential, DumbbellChurnMatchesOracle) {
  DumbbellParams p;
  p.hosts_per_side = 32;
  p.trunk_hops = 2;
  Churner churner(make_dumbbell(p), 0xD0B);
  churner.run(10000, 5);
}

TEST(MaxMinDifferential, WaxmanChurnMatchesOracle) {
  WaxmanParams p;
  p.hosts = 64;
  p.routers = 16;
  p.seed = 7;
  Churner churner(make_waxman(p), 0x3A1);
  churner.run(10000, 5);
}

// --------------------------------------------------------------------------
// Zero-allocation churn hot path.

TEST(MaxMinDifferential, ChurnHotPathDoesNotAllocate) {
  WaxmanParams wp;
  wp.hosts = 64;
  wp.routers = 16;
  wp.seed = 11;
  const Topology topo = make_waxman(wp);
  const RoutingTable routing(topo);
  const std::vector<NodeId> hosts = topo.compute_nodes();

  std::vector<double> caps(2 * topo.link_count(), 0.0);
  for (const Link& l : topo.links()) {
    caps[dir_index(l.id, true)] = l.capacity;
    caps[dir_index(l.id, false)] = l.capacity;
  }
  IncrementalMaxMin inc(caps);

  // Pre-generated spec pool: the measured phase touches only this data.
  constexpr std::size_t kPool = 64;
  constexpr std::size_t kSlots = 64;
  Rng rng(0xA110C);
  struct PoolSpec {
    std::vector<std::size_t> resources;
    double weight;
    double cap;
  };
  std::vector<PoolSpec> pool;
  while (pool.size() < kPool) {
    const NodeId src = hosts[rng.below(hosts.size())];
    const NodeId dst = hosts[rng.below(hosts.size())];
    if (src == dst) continue;
    PoolSpec s;
    s.resources = path_resources(topo, routing, src, dst);
    s.weight = rng.uniform(0.5, 4.0);
    s.cap = rng.chance(0.3) ? mbps(rng.uniform(1.0, 50.0)) : kUnlimitedRate;
    pool.push_back(std::move(s));
  }

  // Pre-generated event tape: (slot, pool spec).  A slot that is empty
  // gets an add, an occupied slot alternates update / remove.
  struct Event {
    std::size_t slot;
    std::size_t spec;
    bool prefer_remove;
  };
  std::vector<Event> tape;
  for (std::size_t i = 0; i < 2000; ++i)
    tape.push_back(Event{rng.below(kSlots), rng.below(kPool),
                         rng.chance(0.4)});

  std::vector<FlowHandle> slot(kSlots, kInvalidFlowHandle);
  const auto apply = [&](const Event& ev) {
    const PoolSpec& s = pool[ev.spec];
    FlowHandle& h = slot[ev.slot];
    if (h == kInvalidFlowHandle) {
      h = inc.add_flow(s.resources.data(), s.resources.size(), s.weight,
                       s.cap);
    } else if (ev.prefer_remove) {
      inc.remove_flow(h);
      h = kInvalidFlowHandle;
    } else {
      inc.update_flow(h, s.resources.data(), s.resources.size(), s.weight,
                      s.cap);
    }
    inc.solve();
  };

  // Warmup drives every buffer to its reachable high-water mark: every
  // slot holds every pool spec at least once (so recycled slot vectors
  // and per-resource flow lists can hold any reachable state), then the
  // event tape runs once.
  for (std::size_t sp = 0; sp < kPool; ++sp) {
    for (std::size_t sl = 0; sl < kSlots; ++sl) {
      const PoolSpec& s = pool[sp];
      if (slot[sl] == kInvalidFlowHandle)
        slot[sl] = inc.add_flow(s.resources.data(), s.resources.size(),
                                s.weight, s.cap);
      else
        inc.update_flow(slot[sl], s.resources.data(), s.resources.size(),
                        s.weight, s.cap);
    }
    inc.solve();
  }
  for (const Event& ev : tape) apply(ev);

  // Measured phase: replay the tape.  Every reachable buffer size was
  // seen during warmup, so the solver must not touch the heap at all.
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const Event& ev : tape) apply(ev);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "solver churn hot path allocated";
}

// --------------------------------------------------------------------------
// Cost at size.

double micros_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ScaleTiming, Waxman256IncrementalSolveUnderATenthOfFromScratch) {
  WaxmanParams wp;
  wp.hosts = 256;
  wp.routers = 64;
  wp.seed = 7;
  const Topology topo = make_waxman(wp);
  const RoutingTable routing(topo);
  const std::vector<NodeId> hosts = topo.compute_nodes();
  std::vector<double> caps(2 * topo.link_count(), 0.0);
  for (const Link& l : topo.links()) {
    caps[dir_index(l.id, true)] = l.capacity;
    caps[dir_index(l.id, false)] = l.capacity;
  }
  IncrementalMaxMin inc(caps);
  Rng rng(0x5CA1E + 256);

  // Seeded add/remove churn at up to 32 live flows.
  struct Live {
    FlowHandle handle;
    MaxMinFlow spec;
  };
  std::vector<Live> live;
  const auto event = [&] {
    if (live.size() < 32 && (live.size() < 4 || rng.chance(0.5))) {
      MaxMinFlow spec;
      NodeId src = hosts[rng.below(hosts.size())];
      NodeId dst = hosts[rng.below(hosts.size())];
      while (src == dst) dst = hosts[rng.below(hosts.size())];
      spec.resources = path_resources(topo, routing, src, dst);
      spec.weight = rng.uniform(0.5, 4.0);
      live.push_back({inc.add_flow(spec), std::move(spec)});
    } else {
      const std::size_t i = rng.below(live.size());
      inc.remove_flow(live[i].handle);
      live[i] = std::move(live.back());
      live.pop_back();
    }
  };
  for (int i = 0; i < 128; ++i) {  // warmup: steady live count
    event();
    inc.solve();
  }

  // Every event's incremental solve is timed; every 8th event also
  // times a from-scratch solve of the whole live instance.
  constexpr int kEvents = 512;
  double inc_us = 0, scratch_us = 0;
  int scratch_solves = 0;
  for (int e = 0; e < kEvents; ++e) {
    event();
    const auto t0 = std::chrono::steady_clock::now();
    inc.solve();
    inc_us += micros_since(t0);
    if (e % 8 != 0) continue;
    std::vector<MaxMinFlow> specs;
    for (const Live& f : live) specs.push_back(f.spec);
    const auto t1 = std::chrono::steady_clock::now();
    const MaxMinResult ref = max_min_allocate(caps, specs);
    scratch_us += micros_since(t1);
    ++scratch_solves;
    ASSERT_EQ(ref.rates.size(), live.size());
  }
  const double ratio =
      (inc_us / kEvents) / (scratch_us / scratch_solves);
  if (remos::test::kTimingChecked) {
    EXPECT_LE(ratio, 0.10) << "incremental " << inc_us / kEvents
                           << " us/event, from scratch "
                           << scratch_us / scratch_solves << " us";
  }
}

TEST(ScaleTiming, FatTree1024BuildAndThousandQueriesUnderFiveSeconds) {
  FatTreeParams fp;
  fp.k = 16;
  const Topology topo = make_fat_tree(fp);
  const auto t0 = std::chrono::steady_clock::now();
  const collector::NetworkModel model = test::quiet_model(topo);
  const core::Modeler modeler(model);
  const std::vector<NodeId> hosts = topo.compute_nodes();
  Rng rng(0x9E55 + 1024);
  for (int i = 0; i < 1000; ++i) {
    core::FlowRequest req;
    req.src = topo.name_of(hosts[rng.below(hosts.size())]);
    do {
      req.dst = topo.name_of(hosts[rng.below(hosts.size())]);
    } while (req.dst == req.src);
    req.requested = mbps(5);
    core::FlowQuery q;
    q.fixed.push_back(std::move(req));
    const core::FlowQueryResult r = modeler.flow_info(q);
    ASSERT_EQ(r.fixed.size(), 1u);
    ASSERT_TRUE(r.fixed[0].routable) << i;
  }
  const double seconds = micros_since(t0) / 1e6;
  if (remos::test::kTimingChecked) {
    EXPECT_LE(seconds, 5.0);
  }
}

}  // namespace
}  // namespace remos::netsim
