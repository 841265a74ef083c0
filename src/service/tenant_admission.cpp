#include "service/tenant_admission.hpp"

#include <algorithm>
#include <cmath>

namespace remos::service {

TenantAdmission::TenantAdmission(Options options) : options_(options) {
  if (options_.budget == 0)
    throw InvalidArgument("TenantAdmission: zero budget");
  if (options_.reserved_fraction < 0.0 || options_.reserved_fraction > 1.0)
    throw InvalidArgument("TenantAdmission: reserved_fraction outside [0,1]");
  if (options_.max_tenants == 0)
    throw InvalidArgument("TenantAdmission: zero max_tenants");
  tenants_.reserve(options_.max_tenants);
  budget_.store(options_.budget, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    auto def = std::make_unique<Tenant>();
    def->name = "default";
    def->weight = 1.0;
    tenants_.push_back(std::move(def));
    tenant_count_.store(1, std::memory_order_release);
    recompute_slices();
  }
}

int TenantAdmission::register_tenant(const std::string& name, double weight) {
  if (!(weight > 0.0))
    throw InvalidArgument("TenantAdmission: weight must be positive");
  std::lock_guard<std::mutex> lk(mutex_);
  if (tenants_.size() >= options_.max_tenants)
    throw InvalidArgument("TenantAdmission: max_tenants exhausted");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->weight = weight;
  tenants_.push_back(std::move(t));
  const int id = static_cast<int>(tenants_.size() - 1);
  // Publish the new count only after the slot is fully constructed; the
  // vector never reallocates (reserved at max_tenants), so concurrent
  // acquires index safely.
  tenant_count_.store(tenants_.size(), std::memory_order_release);
  recompute_slices();
  return id;
}

TenantAdmission::Tenant& TenantAdmission::slot(int tenant) {
  const std::size_t n = tenant_count_.load(std::memory_order_acquire);
  const std::size_t i = static_cast<std::size_t>(tenant);
  return tenant >= 0 && i < n ? *tenants_[i]
                              : *tenants_[kDefaultTenant];
}

const TenantAdmission::Tenant& TenantAdmission::slot(int tenant) const {
  return const_cast<TenantAdmission*>(this)->slot(tenant);
}

void TenantAdmission::recompute_slices() {
  const std::size_t budget = budget_.load(std::memory_order_acquire);
  const std::size_t n = tenants_.size();
  double total_weight = 0;
  for (const auto& t : tenants_) total_weight += t->weight;
  const double reserved_budget =
      static_cast<double>(budget) * options_.reserved_fraction;
  std::size_t reserved_total = 0;
  for (auto& t : tenants_) {
    // Every tenant keeps at least one guaranteed slot: a starved tenant
    // can always make progress, however small its weight.
    const std::size_t slots = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(reserved_budget * t->weight / total_weight)));
    t->reserved_limit.store(slots, std::memory_order_release);
    reserved_total += slots;
  }
  // The minimum-one-slot floor can overshoot a tiny budget; the pool
  // simply collapses to zero then (sum of slices may exceed the budget
  // by at most n-1 -- bounded and documented rather than starving).
  pool_size_.store(reserved_total >= budget ? 0 : budget - reserved_total,
                   std::memory_order_release);
  (void)n;
}

bool TenantAdmission::try_acquire(int tenant) {
  Tenant& t = slot(tenant);
  // Reserved slice first: isolation.
  std::size_t cur = t.reserved_in_use.load(std::memory_order_relaxed);
  while (cur < t.reserved_limit.load(std::memory_order_acquire)) {
    if (t.reserved_in_use.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
      note_admitted(t);
      return true;
    }
  }
  // Slice full: borrow a shared-pool slot (work conservation).
  std::size_t pool = pool_in_use_.load(std::memory_order_relaxed);
  while (pool < pool_size_.load(std::memory_order_acquire)) {
    if (pool_in_use_.compare_exchange_weak(pool, pool + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      t.borrowed.fetch_add(1, std::memory_order_acq_rel);
      note_admitted(t);
      return true;
    }
  }
  t.shed.fetch_add(1, std::memory_order_relaxed);
  shed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void TenantAdmission::note_admitted(Tenant& t) {
  t.admitted.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t now =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::size_t hw = high_water_.load(std::memory_order_relaxed);
  while (now > hw && !high_water_.compare_exchange_weak(
                         hw, now, std::memory_order_relaxed)) {
  }
}

void TenantAdmission::release(int tenant) {
  Tenant& t = slot(tenant);
  // Leave the in-flight count before freeing the slot: a concurrent
  // acquire of the freed slot must not see this query still counted, or
  // the high-water mark overshoots the budget.
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  // Return a borrowed pool slot first: the pool is the shared resource,
  // so freeing it early keeps other tenants' borrow path open.  Which
  // physical acquire grabbed which slot does not matter -- per-tenant
  // totals (reserved_in_use + borrowed) are conserved either way.
  std::size_t borrowed = t.borrowed.load(std::memory_order_relaxed);
  while (borrowed > 0 &&
         !t.borrowed.compare_exchange_weak(borrowed, borrowed - 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
  }
  if (borrowed > 0)
    pool_in_use_.fetch_sub(1, std::memory_order_acq_rel);
  else
    t.reserved_in_use.fetch_sub(1, std::memory_order_acq_rel);
}

void TenantAdmission::set_budget(std::size_t budget) {
  if (budget == 0) throw InvalidArgument("TenantAdmission: zero budget");
  std::lock_guard<std::mutex> lk(mutex_);
  budget_.store(budget, std::memory_order_release);
  recompute_slices();
}

TenantAdmission::TenantStats TenantAdmission::tenant_stats(int tenant) const {
  const Tenant& t = slot(tenant);
  TenantStats s;
  s.name = t.name;
  s.weight = t.weight;
  s.reserved_slots = t.reserved_limit.load(std::memory_order_acquire);
  s.in_flight = t.reserved_in_use.load(std::memory_order_relaxed) +
                t.borrowed.load(std::memory_order_relaxed);
  s.admitted = t.admitted.load(std::memory_order_relaxed);
  s.shed = t.shed.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// AimdController

AimdController::AimdController(Options options,
                               std::chrono::microseconds deadline)
    : options_(options),
      target_p99_(std::chrono::microseconds(static_cast<std::int64_t>(
          static_cast<double>(deadline.count()) * options.target_ratio))) {
  if (options_.min_budget == 0 || options_.max_budget < options_.min_budget)
    throw InvalidArgument("AimdController: degenerate budget bounds");
  if (options_.window == 0)
    throw InvalidArgument("AimdController: zero window");
  if (options_.decrease_factor <= 0.0 || options_.decrease_factor >= 1.0)
    throw InvalidArgument("AimdController: decrease_factor outside (0,1)");
  if (target_p99_.count() <= 0)
    throw InvalidArgument("AimdController: non-positive latency target");
  window_us_.reserve(options_.window);
}

bool AimdController::on_complete(std::chrono::microseconds latency,
                                 TenantAdmission& admission) {
  std::uint64_t p99_us = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!primed_) {
      // Adopt whatever budget the admission layer started with; the
      // controller owns it from here on.
      budget_.store(
          std::clamp(admission.capacity(), options_.min_budget,
                     options_.max_budget),
          std::memory_order_relaxed);
      primed_ = true;
    }
    window_us_.push_back(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, latency.count())));
    if (window_us_.size() < options_.window) return false;
    const std::size_t idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(window_us_.size()));
    std::nth_element(window_us_.begin(),
                     window_us_.begin() + static_cast<std::ptrdiff_t>(idx),
                     window_us_.end());
    p99_us = window_us_[idx];
    window_us_.clear();
  }

  std::size_t budget = budget_.load(std::memory_order_relaxed);
  if (p99_us > static_cast<std::uint64_t>(target_p99_.count())) {
    budget = std::max(
        options_.min_budget,
        static_cast<std::size_t>(std::floor(
            static_cast<double>(budget) * options_.decrease_factor)));
    decreases_.fetch_add(1, std::memory_order_relaxed);
  } else {
    budget = std::min(options_.max_budget, budget + options_.additive_step);
    increases_.fetch_add(1, std::memory_order_relaxed);
  }
  budget_.store(budget, std::memory_order_relaxed);
  admission.set_budget(budget);
  return true;
}

}  // namespace remos::service
