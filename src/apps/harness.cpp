#include "apps/harness.hpp"

#include "util/error.hpp"

namespace remos::apps {

namespace {

snmp::Transport::Config transport_config(const CmuHarness::Options& o) {
  snmp::Transport::Config cfg;
  cfg.loss_probability = o.snmp_loss;
  cfg.seed = o.seed;
  return cfg;
}

}  // namespace

CmuHarness::CmuHarness(Options options)
    : poll_period_(options.poll_period),
      sim_(netsim::make_cmu_testbed(options.link_rate)),
      transport_(transport_config(options)),
      injector_(options.seed ^ 0xFA017),
      collector_(transport_, netsim::CmuNames::routers(),
                 options.collector),
      modeler_(collector_) {
  // Management time is simulator time; fault windows, breaker cooldowns
  // and staleness ages all share one clock.
  transport_.set_clock([this] { return sim_.now(); });
  transport_.set_fault_injector(&injector_);
  // One agent per node; hosts optionally carry the host-resources group.
  for (const netsim::Node& node : sim_.topology().nodes()) {
    const bool is_host = node.kind == netsim::NodeKind::kCompute;
    if (is_host && !options.host_agents) continue;
    auto agent = std::make_unique<snmp::Agent>();
    snmp::HostStats* hs = nullptr;
    if (is_host) {
      stats_.push_back(std::make_unique<snmp::HostStats>());
      stat_names_.push_back(node.name);
      hs = stats_.back().get();
    }
    snmp::populate_node_mib(*agent, sim_, node.id, hs);
    agent->bind(transport_, snmp::agent_address(node.name));
    agents_.push_back(std::move(agent));
  }
  modeler_.set_clock([this] { return sim_.now(); });
  collector_.set_obs(obs_.view());
  modeler_obs_ = core::ModelerObs::resolve(obs_.view());
  modeler_.set_obs(&modeler_obs_);
  // Ground-truth link telemetry at the collector's polling cadence: the
  // weathermap compares these series against the measured
  // "collector.link.*" ones the SNMP path produces.
  sim_.enable_telemetry(obs_.series, poll_period_ > 0 ? poll_period_ : 2.0);
  if (options.poll_period > 0)
    collector_.start_polling(sim_, options.poll_period);
}

const std::vector<std::string>& CmuHarness::hosts() const {
  return netsim::CmuNames::hosts();
}

void CmuHarness::start(Seconds warmup) {
  collector_.discover();
  sim_.run_for(warmup);
}

std::unique_ptr<service::QueryService> CmuHarness::serve(
    service::QueryService::Options options) {
  if (poll_period_ <= 0)
    throw InvalidArgument("serve: harness built without periodic polling");
  auto svc = std::make_unique<service::QueryService>(options);
  service::QueryService* s = svc.get();
  svc->set_obs(obs_.view());
  // Snapshot publication hook: after every timer-driven poll round the
  // collector's refreshed model is deep-copied into an immutable
  // versioned snapshot.  The hook runs on the poller thread (the only
  // thread driving the simulator once the service starts).
  collector_.set_poll_hook(
      [s](const collector::NetworkModel& m, Seconds now) {
        s->publish(m, now);
      });
  // Seed version 1 from the collector's current (warmed-up) model so the
  // first queries never race the first timer-driven poll.
  svc->publish(collector_.model(), sim_.now());
  // Each poll step advances the clock a quarter polling period, so the
  // service's model clock moves smoothly between the collector's
  // timer-driven polls and snapshot age reflects the position within the
  // polling interval (a query landing just before the next poll sees an
  // almost-period-old snapshot, exactly as a real deployment would).
  const Seconds step = poll_period_ / 4.0;
  svc->start([this, s, step] {
    sim_.run_for(step);
    s->note_model_now(sim_.now());
  });
  return svc;
}

snmp::HostStats& CmuHarness::host_stats(const std::string& host) {
  for (std::size_t i = 0; i < stat_names_.size(); ++i)
    if (stat_names_[i] == host) return *stats_[i];
  throw NotFoundError("CmuHarness: no host stats for " + host);
}

}  // namespace remos::apps
