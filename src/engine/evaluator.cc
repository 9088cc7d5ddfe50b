#include "engine/evaluator.h"

#include <cassert>

#include "engine/cache_store.h"
#include "models/zoo.h"
#include "sched/scheduler.h"

namespace mbs::engine {

void Evaluator::count(std::int64_t EvaluatorStats::*hits,
                      std::int64_t EvaluatorStats::*misses,
                      std::int64_t EvaluatorStats::*disk_hits, bool was_hit,
                      bool from_disk) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (was_hit)
    ++(stats_.*hits);
  else
    ++(stats_.*misses);
  if (from_disk) ++(stats_.*disk_hits);
}

template <typename T, typename Load, typename Put, typename Compute>
const T& Evaluator::stage(detail::KeyedCache<T>& cache, const std::string& key,
                          Load load, Put put, Compute compute,
                          std::int64_t EvaluatorStats::*hits,
                          std::int64_t EvaluatorStats::*misses,
                          std::int64_t EvaluatorStats::*disk_hits,
                          bool count_hit) {
  bool hit = false, disk = false;
  const T& value = cache.get_or_compute(
      key,
      [&] {
        T v{};
        if (store_ && (store_->*load)(key, &v)) {
          disk = true;
          return v;
        }
        v = compute();
        if (store_) (store_->*put)(key, v);
        return v;
      },
      &hit);
  if (!hit || count_hit) count(hits, misses, disk_hits, hit, disk);
  return value;
}

const core::Network& Evaluator::network(const std::string& name) {
  return stage(
      networks_, name, &CacheStore::load_network, &CacheStore::put_network,
      [&] { return models::make_network(name); }, &EvaluatorStats::network_hits,
      &EvaluatorStats::network_misses, &EvaluatorStats::network_disk_hits);
}

const core::Network& Evaluator::network(const Scenario& s) {
  return stage(
      networks_, s.network_key(), &CacheStore::load_network,
      &CacheStore::put_network,
      [&] { return models::make_network(s.network, s.seq); },
      &EvaluatorStats::network_hits, &EvaluatorStats::network_misses,
      &EvaluatorStats::network_disk_hits);
}

const sched::Schedule& Evaluator::schedule(const Scenario& s) {
  return stage(
      schedules_, s.schedule_key(), &CacheStore::load_schedule,
      &CacheStore::put_schedule,
      [&] { return sched::build_schedule(network(s), s.config, s.params); },
      &EvaluatorStats::schedule_hits, &EvaluatorStats::schedule_misses,
      &EvaluatorStats::schedule_disk_hits);
}

const sched::Traffic& Evaluator::traffic(const Scenario& s, bool count_hit) {
  return stage(
      traffics_, s.schedule_key(), &CacheStore::load_traffic,
      &CacheStore::put_traffic,
      [&] { return sched::compute_traffic(network(s), schedule(s)); },
      &EvaluatorStats::traffic_hits, &EvaluatorStats::traffic_misses,
      &EvaluatorStats::traffic_disk_hits, count_hit);
}

const sim::StepResult& Evaluator::step(const Scenario& s) {
  assert(s.device == Device::kWaveCore);
  return stage(
      steps_, s.cache_key(), &CacheStore::load_step, &CacheStore::put_step,
      [&] {
        return sim::simulate_step(network(s), schedule(s),
                                  traffic(s, /*count_hit=*/false), s.hw);
      },
      &EvaluatorStats::step_hits, &EvaluatorStats::step_misses,
      &EvaluatorStats::step_disk_hits);
}

const arch::GpuStepResult& Evaluator::gpu_step(const Scenario& s) {
  assert(s.device == Device::kGpu);
  return stage(
      gpu_steps_, s.cache_key(), &CacheStore::load_gpu_step,
      &CacheStore::put_gpu_step,
      [&] {
        return arch::simulate_gpu_step(s.gpu, network(s), s.gpu_mini_batch);
      },
      &EvaluatorStats::gpu_hits, &EvaluatorStats::gpu_misses,
      &EvaluatorStats::gpu_disk_hits);
}

const arch::SystolicStepResult& Evaluator::systolic_step(const Scenario& s) {
  assert(s.device == Device::kSystolic);
  return stage(
      systolic_steps_, s.cache_key(), &CacheStore::load_systolic_step,
      &CacheStore::put_systolic_step,
      [&] {
        arch::SystolicSimParams p;
        p.array = s.hw.systolic;
        p.options = s.systolic;
        p.dram_bw_bytes_per_s =
            s.hw.unlimited_dram_bw ? 0
                                   : s.hw.memory.per_core_bandwidth(s.hw.cores);
        p.buffer_bw_bytes = s.hw.buffer_bw_bytes;
        p.vector_flops = s.hw.vector_flops;
        p.cores = s.hw.cores;
        return arch::simulate_systolic_step(network(s), schedule(s),
                                            traffic(s), p);
      },
      &EvaluatorStats::systolic_hits, &EvaluatorStats::systolic_misses,
      &EvaluatorStats::systolic_disk_hits);
}

EvaluatorStats Evaluator::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace mbs::engine
