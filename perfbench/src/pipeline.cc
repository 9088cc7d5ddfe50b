// Output checks, answer digests, recorded expectations, and the direct-call
// pipeline the traced runs use to time each module on a workload's own
// inputs.
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "arch/gpu.h"
#include "arch/systolic.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

using namespace mbs;

void Tally::check(bool ok, std::int64_t ops, const std::string& what) {
  attempted += ops;
  if (!ok) {
    failed += ops;
    problems.push_back(what);
  }
}

std::string answer_line(const engine::Scenario& s,
                        const engine::ScenarioResult& r) {
  return s.cache_key() + "#stage=" + std::to_string(static_cast<int>(s.stage)) +
         " " + engine::ServeCore::format_answer(s, r);
}

std::string digest_of(const std::vector<engine::ScenarioResult>& results) {
  Digest d;
  for (const engine::ScenarioResult& r : results)
    d.add(answer_line(r.scenario, r));
  return d.hex();
}

std::string read_expected(const Options& o, const std::string& file,
                          const std::string& key) {
  std::ifstream in(o.data_dir + "/" + file);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k, v;
    if (fields >> k >> v && k == key) return v;
  }
  return "";
}

namespace {

const char* grouping_of(const engine::Scenario& s) {
  const bool grouped = s.config == sched::ExecConfig::kMbs1 ||
                       s.config == sched::ExecConfig::kMbs2;
  if (grouped && s.params.variant == sched::GroupingVariant::kNonContiguous)
    return "sched.build_schedule.noncontig";
  if (grouped && s.params.optimal_grouping) return "sched.build_schedule.dp";
  return "sched.build_schedule.greedy";
}

}  // namespace

std::string attribute_pipeline(const std::vector<engine::Scenario>& grid,
                               int threads, StageInputs inputs,
                               engine::Evaluator* eval) {
  engine::SweepOptions so;
  so.threads = threads;
  const engine::SweepRunner runner(so);
  const int parent = Tracer::current();

  // Networks, once per network key.
  std::unordered_map<std::string, std::size_t> net_of;
  std::vector<const engine::Scenario*> net_rep;
  for (const engine::Scenario& s : grid)
    if (net_of.emplace(s.network_key(), net_rep.size()).second)
      net_rep.push_back(&s);
  std::vector<core::Network> nets(net_rep.size());
  runner.for_each_index(static_cast<int>(nets.size()), [&](int i) {
    const engine::Scenario& s = *net_rep[static_cast<std::size_t>(i)];
    ScopedSpan span("models.make_network", parent);
    nets[static_cast<std::size_t>(i)] = models::make_network(s.network, s.seq);
  });
  auto network = [&](const engine::Scenario& s) -> const core::Network& {
    return nets[net_of.at(s.network_key())];
  };

  // Schedules and traffic, once per schedule key (GPU points have none).
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<const engine::Scenario*> group_rep;
  std::vector<engine::Stage> deepest;
  for (const engine::Scenario& s : grid) {
    if (s.device == engine::Device::kGpu || s.stage < engine::Stage::kSchedule)
      continue;
    const auto [it, fresh] = group_of.emplace(s.schedule_key(), group_rep.size());
    if (fresh) {
      group_rep.push_back(&s);
      deepest.push_back(s.stage);
    } else if (deepest[it->second] < s.stage) {
      deepest[it->second] = s.stage;
    }
  }
  const std::size_t n_groups = group_rep.size();
  std::vector<sched::Schedule> own_schedule(n_groups);
  std::vector<sched::Traffic> own_traffic(n_groups);
  std::vector<const sched::Schedule*> schedule(n_groups);
  std::vector<const sched::Traffic*> traffic(n_groups, nullptr);
  runner.for_each_index(static_cast<int>(n_groups), [&](int gi) {
    const auto g = static_cast<std::size_t>(gi);
    const engine::Scenario& s = *group_rep[g];
    const bool need_traffic = deepest[g] >= engine::Stage::kTraffic;
    if (inputs == StageInputs::kEvaluator) {
      schedule[g] = &eval->schedule(s);
      if (need_traffic) traffic[g] = &eval->traffic(s);
      return;
    }
    {
      ScopedSpan span(grouping_of(s), parent);
      own_schedule[g] = sched::build_schedule(network(s), s.config, s.params);
    }
    schedule[g] = &own_schedule[g];
    if (need_traffic) {
      ScopedSpan span("sched.compute_traffic", parent);
      own_traffic[g] = sched::compute_traffic(network(s), own_schedule[g]);
      traffic[g] = &own_traffic[g];
    }
  });

  // Device steps, once per scenario.
  std::vector<engine::ScenarioResult> results(grid.size());
  runner.for_each_index(static_cast<int>(grid.size()), [&](int i) {
    const engine::Scenario& s = grid[static_cast<std::size_t>(i)];
    engine::ScenarioResult r;
    r.scenario = s;
    r.network = &network(s);
    if (s.device == engine::Device::kGpu) {
      ScopedSpan span("arch.simulate_gpu_step", parent);
      r.gpu = arch::simulate_gpu_step(s.gpu, *r.network, s.gpu_mini_batch);
    } else if (s.stage >= engine::Stage::kSchedule) {
      const std::size_t g = group_of.at(s.schedule_key());
      r.schedule = schedule[g];
      if (s.stage >= engine::Stage::kTraffic) r.traffic = traffic[g];
      if (s.stage == engine::Stage::kSimulate &&
          s.device == engine::Device::kSystolic) {
        arch::SystolicSimParams p;
        p.array = s.hw.systolic;
        p.options = s.systolic;
        p.dram_bw_bytes_per_s =
            s.hw.unlimited_dram_bw ? 0
                                   : s.hw.memory.per_core_bandwidth(s.hw.cores);
        p.buffer_bw_bytes = s.hw.buffer_bw_bytes;
        p.vector_flops = s.hw.vector_flops;
        p.cores = s.hw.cores;
        ScopedSpan span("arch.simulate_systolic_step", parent);
        r.systolic = arch::simulate_systolic_step(*r.network, *r.schedule,
                                                  *r.traffic, p);
      } else if (s.stage == engine::Stage::kSimulate) {
        {
          ScopedSpan span("sim.simulate_step", parent);
          r.step = sim::simulate_step(*r.network, *r.schedule, s.hw);
        }
        ScopedSpan span("sched.compute_traffic.in_step", parent);
        (void)sched::compute_traffic(*r.network, *r.schedule);
      }
    }
    results[static_cast<std::size_t>(i)] = std::move(r);
  });
  return digest_of(results);
}

void add_evaluator_metrics(const engine::EvaluatorStats& st, LayerMetrics& m) {
  using S = engine::EvaluatorStats;
  struct Stage {
    const char* name;
    std::int64_t S::*misses;
    std::int64_t S::*disk_hits;
  };
  const Stage stages[] = {
      {"network", &S::network_misses, &S::network_disk_hits},
      {"schedule", &S::schedule_misses, &S::schedule_disk_hits},
      {"traffic", &S::traffic_misses, &S::traffic_disk_hits},
      {"step", &S::step_misses, &S::step_disk_hits},
      {"systolic", &S::systolic_misses, &S::systolic_disk_hits},
      {"gpu", &S::gpu_misses, &S::gpu_disk_hits},
  };
  for (const Stage& s : stages) {
    const std::string base = std::string("engine.evaluator.") + s.name;
    m[base + ".computed"] = static_cast<double>(st.*s.misses - st.*s.disk_hits);
    m[base + ".disk_hits"] = static_cast<double>(st.*s.disk_hits);
  }
}

}  // namespace perfbench
