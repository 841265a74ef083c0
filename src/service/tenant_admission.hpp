// Tenant-aware overload control: weighted fair admission over a bounded
// (and adaptively resized) global budget.
//
// A single gate bounding *total* queries in flight with one counter
// would let a single hot client saturate the shared queue and shed every
// other application alongside it -- exactly the failure mode a shared
// Remos Modeler must not have (the paper positions one Modeler session
// in front of many network-aware applications at once).
//
// TenantAdmission divides a global budget B into per-tenant slices:
//
//   reserved_i = max(1, floor(B * reserved_fraction * w_i / sum(w)))
//   shared pool = B - sum(reserved_i)            (work conservation)
//
// A tenant is admitted from its own reserved slice first; when the slice
// is full it may borrow a shared-pool slot; when both are exhausted it
// -- and only it -- is shed.  A tenant offered 10x its weight therefore
// saturates its slice plus the pool, while every other tenant's reserved
// slice stays untouched: isolation by construction, not by scheduling
// luck.  Releases return borrowed pool slots before reserved ones, so
// slot totals are conserved under any acquire/release interleaving.
//
// Hot path is lock-free: per-tenant CAS on the reserved count, CAS on
// the pool count, relaxed counters for monitoring.  Registration and
// budget resizing take a mutex (setup / controller cadence, not per
// query); tenant storage is pre-reserved so registration never moves
// slots under a concurrent acquire.
//
// AimdController closes the loop on the budget itself: additive increase
// while the observed completion p99 sits below its target (a fraction of
// the deadline), multiplicative decrease when the service falls behind --
// the TCP congestion-control idiom applied to a concurrency limit, so
// the cap tracks what the hardware actually sustains instead of a
// hand-tuned constant.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace remos::service {

class TenantAdmission {
 public:
  /// Tenant id 0 is always present (the "default" tenant, weight 1):
  /// callers that never register anything get the old single-gate
  /// behaviour through it.
  static constexpr int kDefaultTenant = 0;

  struct Options {
    /// Global budget: queries in flight (queued + executing) across all
    /// tenants.  Resized at runtime by set_budget (AIMD controller).
    std::size_t budget = 64;
    /// Fraction of the budget partitioned into weighted reserved slices;
    /// the remainder is a shared pool any tenant may borrow from once
    /// its own slice is full.  1.0 = strict partition, 0.0 = the old
    /// single global gate.
    double reserved_fraction = 0.75;
    /// Upper bound on registered tenants (storage is pre-reserved so the
    /// lock-free hot path never races a reallocation).
    std::size_t max_tenants = 64;
  };

  TenantAdmission() : TenantAdmission(Options{}) {}
  explicit TenantAdmission(Options options);

  /// Registers a tenant and returns its id.  Call during setup (before
  /// the query storm); throws when max_tenants is exhausted or the
  /// weight is not positive.  Thread-safe against concurrent acquires.
  int register_tenant(const std::string& name, double weight);

  /// True: admitted (caller must release(tenant) exactly once when the
  /// query leaves).  False: this tenant's slice and the shared pool are
  /// both full -- the query is shed.  Unknown tenant ids fall back to
  /// the default tenant rather than faulting.
  bool try_acquire(int tenant);
  void release(int tenant);

  /// Resizes the global budget and recomputes every reserved slice
  /// (AIMD controller cadence).  In-flight queries above a shrunken
  /// slice drain naturally; no new admissions land until they do.
  void set_budget(std::size_t budget);

  // --- monitoring ------------------------------------------------------
  std::size_t capacity() const {
    return budget_.load(std::memory_order_acquire);
  }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  std::size_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  struct TenantStats {
    std::string name;
    double weight = 1.0;
    std::size_t reserved_slots = 0;
    std::size_t in_flight = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };
  std::size_t tenant_count() const {
    return tenant_count_.load(std::memory_order_acquire);
  }
  TenantStats tenant_stats(int tenant) const;
  /// Shared-pool slots currently borrowed / total pool size.
  std::size_t pool_in_use() const {
    return pool_in_use_.load(std::memory_order_relaxed);
  }
  std::size_t pool_size() const {
    return pool_size_.load(std::memory_order_acquire);
  }

 private:
  struct Tenant {
    std::string name;
    double weight = 1.0;
    std::atomic<std::size_t> reserved_limit{0};
    std::atomic<std::size_t> reserved_in_use{0};
    std::atomic<std::size_t> borrowed{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed{0};
  };

  Tenant& slot(int tenant);
  const Tenant& slot(int tenant) const;
  /// Recomputes reserved slices + pool from budget_ and weights.
  /// Caller holds mutex_.
  void recompute_slices();
  void note_admitted(Tenant& t);

  Options options_;
  std::mutex mutex_;  // registration + budget resize only
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::atomic<std::size_t> tenant_count_{0};

  std::atomic<std::size_t> budget_{0};
  std::atomic<std::size_t> pool_size_{0};
  std::atomic<std::size_t> pool_in_use_{0};

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
};

/// Additive-increase / multiplicative-decrease controller for the global
/// admission budget.  Feed it every executed query's completion latency;
/// every `window` completions it compares the window's p99 against
/// `target_ratio * deadline` and grows the budget one additive step
/// (service keeping up: admit more) or shrinks it multiplicatively
/// (falling behind: shed earlier, protect the admitted).
class AimdController {
 public:
  struct Options {
    std::size_t min_budget = 8;
    std::size_t max_budget = 4096;
    std::size_t additive_step = 4;
    double decrease_factor = 0.7;
    /// Completions per control decision.
    std::size_t window = 256;
    /// p99 target as a fraction of the default deadline.
    double target_ratio = 0.5;
  };

  AimdController(Options options, std::chrono::microseconds deadline);

  /// Records one executed query's latency; when a window closes, applies
  /// the control decision to `admission` and returns true.
  bool on_complete(std::chrono::microseconds latency,
                   TenantAdmission& admission);

  std::size_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }
  std::uint64_t increases() const {
    return increases_.load(std::memory_order_relaxed);
  }
  std::uint64_t decreases() const {
    return decreases_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::chrono::microseconds target_p99_;
  std::mutex mutex_;  // window buffer; touched once per completion
  std::vector<std::uint64_t> window_us_;
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::uint64_t> increases_{0};
  std::atomic<std::uint64_t> decreases_{0};
  bool primed_ = false;
};

}  // namespace remos::service
