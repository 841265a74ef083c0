// The collector's data product: a named-node network model with per-link
// measurement histories.
//
// This is deliberately separate from both the simulator Topology (which a
// real collector cannot see) and the core::NetworkGraph the Remos API
// returns (which is a per-query logical view).  Everything here is keyed
// by node *name*, because names (sysName) are all that SNMP discovery
// yields.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netsim/routing.hpp"
#include "obs/rollup.hpp"
#include "util/ring_buffer.hpp"
#include "util/sharing.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace remos::collector {

/// One polling observation of a link: traffic rates seen in each
/// direction over the last polling interval.
struct Sample {
  Seconds at = 0;          // collector-side timestamp of the interval end
  BitsPerSec used_ab = 0;  // traffic a -> b
  BitsPerSec used_ba = 0;  // traffic b -> a
};

/// Bounded multi-resolution history of samples for one link: a raw ring
/// for recent polls plus one rollup cascade per direction (10 s / 60 s
/// quartile buckets by default), so windowed reads answer horizons far
/// beyond the raw ring at bounded memory instead of silently truncating.
/// Merged-in samples (merge_from) flow through record() and therefore
/// backfill the cascades too.
class LinkHistory {
 public:
  explicit LinkHistory(std::size_t capacity = 256)
      : samples_(capacity) {}

  void record(Sample s) {
    rollup_ab_.append(s.at, s.used_ab);
    rollup_ba_.append(s.at, s.used_ba);
    samples_.push(s);
  }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& latest() const { return samples_.back(); }
  /// i-th retained sample, 0 = oldest.
  const Sample& sample(std::size_t i) const { return samples_[i]; }

  /// Used-bandwidth samples in (now - window, now], oldest first.
  /// window <= 0 means "everything retained".  Raw ring only.
  std::vector<double> used_in_window(Seconds now, Seconds window,
                                     bool ab) const;

  /// Windowed quartile read with covered-span semantics: windows inside
  /// the raw ring answer exactly from samples; longer windows stitch in
  /// rollup buckets; a window beyond all retention reports the effective
  /// covered span with `truncated` set and accuracy discounted by the
  /// coverage ratio.
  obs::WindowStats used_windowed(Seconds now, Seconds window, bool ab) const;

  /// Quartile measurement of used bandwidth over the window
  /// (used_windowed().measurement).
  Measurement used_measurement(Seconds now, Seconds window, bool ab) const;

  /// The per-direction rollup cascade (audit/export).
  const obs::RollupCascade& rollups(bool ab) const {
    return ab ? rollup_ab_ : rollup_ba_;
  }

  /// Approximate heap footprint of retained state (raw + rollups).
  std::size_t memory_bytes() const;

 private:
  RingBuffer<Sample> samples_;
  obs::RollupCascade rollup_ab_;
  obs::RollupCascade rollup_ba_;
};

struct ModelNode {
  std::string name;
  bool is_router = false;
  /// Aggregate forwarding capacity (0 = not reported / unlimited).
  BitsPerSec internal_bw = 0;
  /// Host info (compute nodes with a responding host agent only).
  bool has_host_info = false;
  double cpu_load = 0.0;
  std::uint32_t memory_mb = 0;
};

struct ModelLink {
  std::string a;
  std::string b;
  BitsPerSec capacity = 0;
  Seconds latency = 0;
  /// Operational state, from ifOperStatus.  Down links stay in the model
  /// (they may return) but contribute nothing to logical topologies.
  bool up = true;
  /// How competing flows split this link's capacity (extension; unknown
  /// for links the network did not describe, e.g. probed WAN pairs).
  SharingPolicy sharing = SharingPolicy::kUnknown;
  /// When a collector last confirmed this link's state (collector clock;
  /// < 0 = never).  Distinct from history.latest().at: a poll that
  /// reaches the agent but yields no usable sample (e.g. a counter
  /// discontinuity) still refreshes this, while a dead agent freezes it.
  /// Queries widen their accuracy as links go stale.
  Seconds last_update = -1;
  LinkHistory history;
};

class NetworkModel;

/// Integer-form routing view of a NetworkModel: node names interned to
/// dense ids (lexicographic order) and a netsim::ShortestPaths core over
/// the *up* links, so the collector routes exactly as the simulator does
/// (fewest hops, then least latency, then smaller name; hosts do not
/// forward).  A memoized row answers every route from its source in
/// O(path length), so a query over k nodes costs k row builds once --
/// not per query -- on a shared snapshot.
///
/// The index describes the model state it was built from and is never
/// patched: NetworkModel drops it on any mutable access and
/// routing_index() builds a fresh one.  The service builds it when it
/// publishes a snapshot, so query workers only read it.  The core's row
/// memo is safe for concurrent query workers sharing one index.
class RoutingIndex {
 public:
  /// parent[v] is the predecessor of v on the route from the source
  /// (kNoNode if unreachable, the source for itself); via_link[v]
  /// indexes NetworkModel::links() for the edge taken.
  using Row = netsim::ShortestPaths::Row;

  static constexpr std::int32_t kNoNode = netsim::ShortestPaths::kNoNode;

  explicit RoutingIndex(const NetworkModel& model);

  std::size_t node_count() const { return names_.size(); }
  /// Dense id of a node name; kNoNode if unknown.
  std::int32_t id_of(const std::string& name) const;
  const std::string& name_of(std::int32_t id) const {
    return names_[static_cast<std::size_t>(id)];
  }

  /// The memoized row from `src` (computed on first use).
  const Row& row_from(std::int32_t src) const { return paths_.row_from(src); }

 private:
  std::vector<std::string> names_;  // id -> name, sorted
  netsim::ShortestPaths paths_;
};

/// Discovered topology plus measurement state.  Links are unordered pairs;
/// sample direction is stored relative to the (a, b) orientation the link
/// was first inserted with.  Every non-const member drops the cached
/// routing index (see routing_index()).
class NetworkModel {
 public:
  /// Inserts or updates a node; returns the stored entry.
  ModelNode& upsert_node(const std::string& name, bool is_router);

  /// Inserts a link if absent (either orientation); returns the entry.
  ModelLink& upsert_link(const std::string& a, const std::string& b,
                         BitsPerSec capacity, Seconds latency);

  bool has_node(const std::string& name) const;
  const ModelNode& node(const std::string& name) const;
  ModelNode& node(const std::string& name);

  /// Finds the link between a and b in either orientation; `flipped` is
  /// set if the stored orientation is (b, a).  Null if absent.
  const ModelLink* find_link(const std::string& a, const std::string& b,
                             bool* flipped = nullptr) const;
  ModelLink* find_link(const std::string& a, const std::string& b,
                       bool* flipped = nullptr);

  const std::map<std::string, ModelNode>& nodes() const { return nodes_; }
  const std::vector<ModelLink>& links() const { return links_; }
  std::vector<ModelLink>& links() {
    invalidate_routing();
    return links_;
  }

  /// Merges another model into this one (multi-collector cooperation):
  /// unknown nodes/links are added; known links keep their existing
  /// history and adopt the other's samples.
  void merge_from(const NetworkModel& other);

  /// Removes the link between a and b (either orientation) with its
  /// history.  Returns false if no such link exists.  O(links): the
  /// link vector and its index are rebuilt without the entry.
  bool remove_link(const std::string& a, const std::string& b);

  /// Removes a node and every link incident to it.  Returns false if
  /// the node is unknown.  (Replication deltas decommission nodes this
  /// way; collectors keep vanished routers in the model instead, since
  /// they may return.)
  bool remove_node(const std::string& name);

  /// The routing index for the model's current structure: the cached
  /// one, or a fresh build when none is cached.  SnapshotStore::publish
  /// builds it before readers see a snapshot.  Safe for concurrent
  /// readers of a model nobody mutates.
  ///
  /// Lifetime: the reference and its rows stay valid until the next
  /// non-const call on this model.  Do not write through a ModelLink& or
  /// ModelNode& taken before a routing_index() call: such a write does
  /// not drop the index.  Fetch the reference again instead.
  const RoutingIndex& routing_index() const;

 private:
  std::map<std::string, ModelNode> nodes_;
  std::vector<ModelLink> links_;
  std::map<std::pair<std::string, std::string>, std::size_t> link_index_;

  void invalidate_routing() { routing_cache_.index.reset(); }

  /// Cached routing index, null until routing_index() builds it and
  /// again after any mutable access.  Copies of a model start with a
  /// cold cache (the index holds no model pointers, but rebuilding on
  /// first use is simpler than proving copy equivalence).
  struct RoutingCache {
    RoutingCache() = default;
    RoutingCache(const RoutingCache&) {}
    RoutingCache& operator=(const RoutingCache&) {
      index.reset();
      return *this;
    }

    void lock() const {
      while (flag.test_and_set(std::memory_order_acquire))
        while (flag.test(std::memory_order_relaxed)) {
        }
    }
    void unlock() const { flag.clear(std::memory_order_release); }

    mutable std::atomic_flag flag = ATOMIC_FLAG_INIT;
    std::unique_ptr<RoutingIndex> index;
  };
  mutable RoutingCache routing_cache_;
};

}  // namespace remos::collector
