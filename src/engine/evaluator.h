// Evaluator: memoized Scenario -> network -> schedule -> result pipeline.
//
// The paper's sweeps share almost all intermediate work: Fig. 10 builds
// each of the six networks once but schedules it six times; Fig. 11
// schedules ResNet50 twenty times but builds it once; Fig. 13 reuses one
// MBS2 schedule across four memory systems. The Evaluator caches each
// pipeline stage under the Scenario's stage key so shared work is computed
// exactly once — including across SweepRunner threads, where concurrent
// requests for the same key block on a per-entry std::once_flag while
// distinct keys proceed in parallel.
//
// All cached objects are immutable once constructed; references returned
// by the accessors stay valid for the Evaluator's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "arch/gpu.h"
#include "core/network.h"
#include "engine/scenario.h"
#include "sched/schedule.h"
#include "sched/traffic.h"
#include "sim/simulator.h"

namespace mbs::engine {

class CacheStore;

/// Cache hit/miss counters, one set per pipeline stage. A miss consults the
/// disk store (when one is attached) before computing: `*_disk_hits` counts
/// misses satisfied from disk, so `misses - disk_hits` is the number of
/// actual computations.
struct EvaluatorStats {
  std::int64_t network_hits = 0, network_misses = 0, network_disk_hits = 0;
  std::int64_t schedule_hits = 0, schedule_misses = 0, schedule_disk_hits = 0;
  std::int64_t traffic_hits = 0, traffic_misses = 0, traffic_disk_hits = 0;
  std::int64_t step_hits = 0, step_misses = 0, step_disk_hits = 0;
  std::int64_t gpu_hits = 0, gpu_misses = 0, gpu_disk_hits = 0;
  std::int64_t systolic_hits = 0, systolic_misses = 0, systolic_disk_hits = 0;
};

namespace detail {

/// String-keyed cache of immutable values with exactly-once construction.
/// Entries are heap-allocated so references stay stable across rehashes.
template <typename T>
class KeyedCache {
 public:
  /// Returns the cached value for `key`, constructing it with `fn()` on
  /// first use. Concurrent callers with the same key wait for the single
  /// construction; callers with different keys do not serialize against
  /// each other (the map mutex is only held for the lookup).
  template <typename Fn>
  const T& get_or_compute(const std::string& key, Fn&& fn, bool* was_hit) {
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::unique_ptr<Entry>& slot = map_[key];
      if (slot) {
        *was_hit = true;
      } else {
        slot = std::make_unique<Entry>();
        *was_hit = false;
      }
      entry = slot.get();
    }
    std::call_once(entry->once, [&] { entry->value = fn(); });
    return entry->value;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::once_flag once;
    T value;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> map_;
};

}  // namespace detail

class Evaluator {
 public:
  /// With a store, in-memory misses are first looked up on disk, and fresh
  /// computations are recorded for the store's next save(). The store (when
  /// non-null) must outlive the Evaluator; passing nullptr keeps the
  /// evaluator purely in-memory.
  explicit Evaluator(CacheStore* store = nullptr) : store_(store) {}

  /// models::make_network, memoized by name.
  const core::Network& network(const std::string& name);

  /// models::make_network with the scenario's sequence-length override,
  /// memoized by Scenario::network_key() (identical to the name-keyed
  /// overload when seq == 0, so default scenarios share its entries).
  const core::Network& network(const Scenario& s);

  /// sched::build_schedule for the scenario's (network, config, params),
  /// memoized by Scenario::schedule_key().
  const sched::Schedule& schedule(const Scenario& s);

  /// sched::compute_traffic for the scenario's schedule, memoized by
  /// Scenario::schedule_key() (traffic does not depend on hw).
  const sched::Traffic& traffic(const Scenario& s) { return traffic(s, true); }

  /// sim::simulate_step for the full scenario, memoized by
  /// Scenario::cache_key(), on the memoized traffic(s) (a first read
  /// computes or disk-loads it; later reads are not counted as hits).
  /// Requires device == kWaveCore.
  const sim::StepResult& step(const Scenario& s);

  /// arch::simulate_gpu_step for kGpu scenarios, memoized by
  /// Scenario::cache_key().
  const arch::GpuStepResult& gpu_step(const Scenario& s);

  /// arch::simulate_systolic_step for kSystolic scenarios, memoized by
  /// Scenario::cache_key() (which carries the `dev=systolic` tag plus the
  /// dataflow/scratchpad fields on top of the WaveCore hardware point).
  const arch::SystolicStepResult& systolic_step(const Scenario& s);

  /// Snapshot of the hit/miss counters.
  EvaluatorStats stats() const;

  /// The disk store backing this evaluator (nullptr when purely
  /// in-memory). Spool drains flush it per work unit so concurrent
  /// workers see each other's results.
  CacheStore* store() const { return store_; }

 private:
  CacheStore* store_ = nullptr;

  detail::KeyedCache<core::Network> networks_;
  detail::KeyedCache<sched::Schedule> schedules_;
  detail::KeyedCache<sched::Traffic> traffics_;
  detail::KeyedCache<sim::StepResult> steps_;
  detail::KeyedCache<arch::GpuStepResult> gpu_steps_;
  detail::KeyedCache<arch::SystolicStepResult> systolic_steps_;

  mutable std::mutex stats_mu_;
  EvaluatorStats stats_;

  void count(std::int64_t EvaluatorStats::*hits,
             std::int64_t EvaluatorStats::*misses,
             std::int64_t EvaluatorStats::*disk_hits, bool was_hit,
             bool from_disk);

  /// The shared per-stage path: in-memory lookup, then (on a miss) the
  /// disk store, then `compute` — recording fresh values to the store and
  /// counting hit/miss/disk stats (in-memory hits only when `count_hit`).
  /// `load`/`put` are CacheStore member pointers for this stage.
  template <typename T, typename Load, typename Put, typename Compute>
  const T& stage(detail::KeyedCache<T>& cache, const std::string& key,
                 Load load, Put put, Compute compute,
                 std::int64_t EvaluatorStats::*hits,
                 std::int64_t EvaluatorStats::*misses,
                 std::int64_t EvaluatorStats::*disk_hits,
                 bool count_hit = true);

  /// traffic(s); step(s) reads it with count_hit = false, so `traffic_hits`
  /// counts only the sweep's own lookups (misses and disk hits still count).
  const sched::Traffic& traffic(const Scenario& s, bool count_hit);
};

}  // namespace mbs::engine
