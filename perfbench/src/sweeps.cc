// cold_sweep and hw_sweep: the design-space sweeps of the figure, ablation
// and pareto benches, driven through Evaluator + SweepRunner.
#include <filesystem>

#include "arch/memory.h"
#include "engine/cache_store.h"
#include "models/zoo.h"
#include "workloads.h"

namespace perfbench {

using namespace mbs;

namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

engine::Scenario base_point(const std::string& net, sched::ExecConfig cfg,
                            std::int64_t buffer) {
  engine::Scenario s;
  s.network = net;
  s.config = cfg;
  s.params.buffer_bytes = buffer;
  s.hw.global_buffer_bytes = buffer;
  return s;
}

bool serialized_grouping(sched::ExecConfig c) {
  return c == sched::ExecConfig::kMbs1 || c == sched::ExecConfig::kMbs2;
}

// ---------------------------------------------------------------------------
// cold_sweep
// ---------------------------------------------------------------------------

/// Every zoo network x the six Tab. 3 configs x four buffer sizes; MBS1 and
/// MBS2 under greedy, DP and non-contiguous grouping; each schedule on
/// WaveCore and on the systolic backend's three dataflows. A fresh store
/// and evaluator per round: a first --cache-dir run.
std::vector<engine::Scenario> cold_grid() {
  std::vector<engine::Scenario> grid;
  for (const std::string& net : models::all_network_names())
    for (sched::ExecConfig cfg : sched::paper_tab3_configs())
      for (std::int64_t mib : {4, 10, 16, 32})
        for (int grouping = 0; grouping < (serialized_grouping(cfg) ? 3 : 1);
             ++grouping) {
          engine::Scenario s = base_point(net, cfg, mib * kMiB);
          s.params.optimal_grouping = grouping == 1;
          if (grouping == 2)
            s.params.variant = sched::GroupingVariant::kNonContiguous;
          grid.push_back(s);
          s.device = engine::Device::kSystolic;
          for (arch::Dataflow df :
               {arch::Dataflow::kOutputStationary,
                arch::Dataflow::kWeightStationary,
                arch::Dataflow::kInputStationary}) {
            s.systolic.dataflow = df;
            grid.push_back(s);
          }
        }
  return grid;
}

class ColdSweep : public Workload {
 public:
  explicit ColdSweep(const Options& o) : o_(o), rng_(o.seed), base_(cold_grid()) {}

  const char* op_name() const override { return "scenarios"; }

  void setup() override {
    dir_ = o_.tmp_dir + "/cold" + std::to_string(++round_);
    store_ = std::make_unique<engine::CacheStore>(dir_ + "/evaluator.mbscache");
    eval_ = std::make_unique<engine::Evaluator>(store_.get());
    // The networks are built up front; every later stage starts cold.
    for (const std::string& net : models::all_network_names()) eval_->network(net);
  }

  Timed run() override {
    grid_ = base_;
    shuffle(grid_, rng_);
    engine::SweepOptions so;
    so.threads = o_.threads;
    const BusyClock clock;
    {
      ScopedSpan span("engine.sweep_runner.run");
      results_ = engine::SweepRunner(so).run(grid_, *eval_);
    }
    {
      ScopedSpan span("engine.cache_store.save");
      saved_ = store_->save();
    }
    busy_frac_ = clock.busy_frac(o_.threads);
    return {static_cast<std::int64_t>(grid_.size()), clock.wall_s(), clock.cpu_s()};
  }

  void check(Tally& tally) override {
    const auto n = static_cast<std::int64_t>(grid_.size());
    const std::string got = digest_of(results_);
    tally.check(got == read_expected(o_, "digests.txt", "cold_sweep"), n,
                "cold_sweep answers differ from the recorded digest: " + got);
    tally.check(saved_ && store_->save_failures() == 0, n,
                "cold_sweep store save failed");
  }

  void attribute(LayerMetrics& m, Tally& tally) override {
    const std::string direct = attribute_pipeline(
        grid_, o_.threads, StageInputs::kCompute, nullptr);
    tally.check(direct == digest_of(results_),
                static_cast<std::int64_t>(grid_.size()),
                "direct module calls disagree with the evaluator");
    add_evaluator_metrics(eval_->stats(), m);
    m["engine.sweep_runner.busy_frac"] = busy_frac_;
    m["engine.cache_store.entries_written"] =
        static_cast<double>(store_->entry_count() - store_->loaded_entries());
    m["engine.cache_store.save_failures"] =
        static_cast<double>(store_->save_failures());
    m["engine.cache_store.loaded_entries"] =
        static_cast<double>(store_->loaded_entries());
    m["engine.cache_store.corrupt_entries"] =
        static_cast<double>(store_->corrupt_entries());
  }

  void teardown() override {
    eval_.reset();
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::string> notes() const override;

 private:
  Options o_;
  Rng rng_;
  const std::vector<engine::Scenario> base_;
  std::vector<engine::Scenario> grid_;
  int round_ = 0;
  std::string dir_;
  std::unique_ptr<engine::CacheStore> store_;
  std::unique_ptr<engine::Evaluator> eval_;
  std::vector<engine::ScenarioResult> results_;
  bool saved_ = false;
  double busy_frac_ = 0;
};

double energy_j(const sim::StepResult& r) {
  return r.energy.dram_j + r.energy.buffer_j + r.energy.mac_j +
         r.energy.vector_j + r.energy.static_j;
}

/// The modelled MBS2-vs-Baseline reductions over the six paper CNNs (10 MiB,
/// greedy, WaveCore), printed beside the abstract's figures. The model is
/// not validated against hardware here, so this line is never gated.
std::vector<std::string> ColdSweep::notes() const {
  std::map<std::string, const sim::StepResult*> base, mbs2;
  for (const engine::ScenarioResult& r : results_) {
    const engine::Scenario& s = r.scenario;
    if (s.device != engine::Device::kWaveCore || s.params.buffer_bytes != 10 * kMiB ||
        s.params.optimal_grouping ||
        s.params.variant != sched::GroupingVariant::kContiguous)
      continue;
    if (s.config == sched::ExecConfig::kBaseline) base[s.network] = &r.step;
    if (s.config == sched::ExecConfig::kMbs2) mbs2[s.network] = &r.step;
  }
  double dram = 0, time = 0, energy = 0;
  int n = 0;
  for (const std::string& net : models::evaluated_network_names()) {
    if (!base.count(net) || !mbs2.count(net)) return {};
    dram += 1 - mbs2[net]->dram_bytes / base[net]->dram_bytes;
    time += 1 - mbs2[net]->time_s / base[net]->time_s;
    energy += 1 - energy_j(*mbs2[net]) / energy_j(*base[net]);
    ++n;
  }
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "modelled MBS2 vs Baseline, mean over the six CNNs (10 MiB, "
                "WaveCore; unvalidated analytic model, not gated): DRAM "
                "traffic -%.1f%%, step time -%.1f%%, energy -%.1f%% "
                "(abstract: 75%% / 53%% / 26%%)",
                100 * dram / n, 100 * time / n, 100 * energy / n);
  return {buf};
}

// ---------------------------------------------------------------------------
// hw_sweep
// ---------------------------------------------------------------------------

/// Schedules warmed in setup: every zoo network x the six configs x two
/// buffer sizes, greedy grouping.
std::vector<engine::Scenario> hw_schedules() {
  std::vector<engine::Scenario> out;
  for (const std::string& net : models::all_network_names())
    for (sched::ExecConfig cfg : sched::paper_tab3_configs())
      for (std::int64_t mib : {8, 16}) {
        engine::Scenario s = base_point(net, cfg, mib * kMiB);
        s.stage = engine::Stage::kTraffic;
        out.push_back(s);
      }
  return out;
}

/// Hardware points per warmed schedule: WaveCore over memory system x core
/// count x array shape, and the systolic backend over dataflow x scratchpad
/// x memory system; plus GPU comparator points per network.
std::vector<engine::Scenario> hw_grid() {
  std::vector<engine::Scenario> grid;
  const std::vector<arch::MemoryConfig> mems = arch::all_memory_configs();
  for (engine::Scenario s : hw_schedules()) {
    s.stage = engine::Stage::kSimulate;
    for (const arch::MemoryConfig& mem : mems) {
      s.hw.memory = mem;
      s.device = engine::Device::kWaveCore;
      for (int cores : {1, 2, 4})
        for (int dim : {64, 128, 256}) {
          engine::Scenario p = s;
          p.hw.cores = cores;
          p.hw.systolic.rows = dim;
          p.hw.systolic.cols = dim;
          grid.push_back(p);
        }
      s.device = engine::Device::kSystolic;
      for (arch::Dataflow df :
           {arch::Dataflow::kOutputStationary, arch::Dataflow::kWeightStationary,
            arch::Dataflow::kInputStationary})
        for (std::int64_t spad : {128 * 1024, 512 * 1024, 2 * 1024 * 1024}) {
          engine::Scenario p = s;
          p.systolic.dataflow = df;
          p.systolic.scratchpad_bytes = spad;
          grid.push_back(p);
        }
    }
  }
  for (const std::string& net : models::all_network_names())
    for (int mb : {16, 32, 64, 128, 256})
      for (double bw : {900e9, 1800e9})
        for (int sms : {80, 160}) {
          engine::Scenario p;
          p.network = net;
          p.device = engine::Device::kGpu;
          p.gpu_mini_batch = mb;
          p.gpu.mem_bw_bytes = bw;
          p.gpu.sm_count = sms;
          grid.push_back(p);
        }
  return grid;
}

class HwSweep : public Workload {
 public:
  explicit HwSweep(const Options& o)
      : o_(o), rng_(o.seed), schedules_(hw_schedules()), base_(hw_grid()) {}

  const char* op_name() const override { return "scenarios"; }

  void setup() override {
    engine::SweepOptions so;
    so.threads = o_.threads;
    eval_ = std::make_unique<engine::Evaluator>();
    ScopedSpan span("engine.sweep_runner.run");
    engine::SweepRunner(so).run(schedules_, *eval_);
  }

  Timed run() override {
    grid_ = base_;
    shuffle(grid_, rng_);
    engine::SweepOptions so;
    so.threads = o_.threads;
    const BusyClock clock;
    {
      ScopedSpan span("engine.sweep_runner.run");
      results_ = engine::SweepRunner(so).run(grid_, *eval_);
    }
    busy_frac_ = clock.busy_frac(o_.threads);
    return {static_cast<std::int64_t>(grid_.size()), clock.wall_s(), clock.cpu_s()};
  }

  void check(Tally& tally) override {
    const std::string got = digest_of(results_);
    tally.check(got == read_expected(o_, "digests.txt", "hw_sweep"),
                static_cast<std::int64_t>(grid_.size()),
                "hw_sweep answers differ from the recorded digest: " + got);
  }

  void attribute(LayerMetrics& m, Tally& tally) override {
    const std::string direct = attribute_pipeline(
        grid_, o_.threads, StageInputs::kEvaluator, eval_.get());
    tally.check(direct == digest_of(results_),
                static_cast<std::int64_t>(grid_.size()),
                "direct module calls disagree with the evaluator");
    add_evaluator_metrics(eval_->stats(), m);
    m["engine.sweep_runner.busy_frac"] = busy_frac_;
  }

  void teardown() override { eval_.reset(); }

 private:
  Options o_;
  Rng rng_;
  const std::vector<engine::Scenario> schedules_;
  const std::vector<engine::Scenario> base_;
  std::vector<engine::Scenario> grid_;
  std::unique_ptr<engine::Evaluator> eval_;
  std::vector<engine::ScenarioResult> results_;
  double busy_frac_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cold_sweep(const Options& o) {
  return std::make_unique<ColdSweep>(o);
}

std::unique_ptr<Workload> make_hw_sweep(const Options& o) {
  return std::make_unique<HwSweep>(o);
}

}  // namespace perfbench
