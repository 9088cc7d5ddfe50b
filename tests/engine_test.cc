// Tests for the parallel experiment engine: scenario cache keys, evaluator
// memoization, parallel-vs-serial determinism of SweepRunner, the ResultSink
// CSV/JSON round trip, disk persistence (CacheStore warm starts and version
// invalidation), and shard-then-merge determinism.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include <cstring>

#include "arch/memory.h"
#include "engine/engine.h"
#include "models/zoo.h"
#include "sched/config.h"
#include "train/data.h"
#include "train/model.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/serde.h"

namespace mbs::engine {
namespace {

Scenario mbs2_scenario(const std::string& net = "resnet50") {
  Scenario s;
  s.network = net;
  s.config = sched::ExecConfig::kMbs2;
  return s;
}

bool step_equal(const sim::StepResult& a, const sim::StepResult& b) {
  return a.time_s == b.time_s && a.dram_bytes == b.dram_bytes &&
         a.buffer_bytes == b.buffer_bytes && a.total_macs == b.total_macs &&
         a.systolic_utilization == b.systolic_utilization &&
         a.compute_time_s == b.compute_time_s &&
         a.memory_time_s == b.memory_time_s &&
         a.energy.total() == b.energy.total() &&
         a.time_by_type.total() == b.time_by_type.total();
}

// ---- Scenario keys ----------------------------------------------------------

TEST(Scenario, EqualScenariosShareKeys) {
  const Scenario a = mbs2_scenario();
  const Scenario b = mbs2_scenario();
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.schedule_key(), b.schedule_key());
}

TEST(Scenario, ScheduleKeyIgnoresHardware) {
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.hw.memory = arch::lpddr4();
  b.hw.unlimited_dram_bw = true;
  EXPECT_EQ(a.schedule_key(), b.schedule_key());
  EXPECT_NE(a.cache_key(), b.cache_key());
}

TEST(Scenario, KeyDistinguishesEveryScheduleField) {
  const Scenario base = mbs2_scenario();
  Scenario s = base;
  s.config = sched::ExecConfig::kMbs1;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.buffer_bytes *= 2;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.mini_batch = 64;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.params.optimal_grouping = true;
  EXPECT_NE(s.schedule_key(), base.schedule_key());
  s = base;
  s.network = "alexnet";
  EXPECT_NE(s.schedule_key(), base.schedule_key());
}

TEST(Scenario, GroupingVariantExtendsKeysBackwardCompatibly) {
  // The variant axis must not perturb existing keys: a default scenario's
  // schedule key has no var field (the key space stays byte-stable as axes
  // accrue), while a non-contiguous scenario gets a distinct key.
  const Scenario base = mbs2_scenario();
  EXPECT_EQ(base.schedule_key().find("var="), std::string::npos);
  Scenario relaxed = base;
  relaxed.params.variant = sched::GroupingVariant::kNonContiguous;
  EXPECT_NE(relaxed.schedule_key(), base.schedule_key());
  EXPECT_NE(relaxed.cache_key(), base.cache_key());
  EXPECT_NE(relaxed.schedule_key().find("var="), std::string::npos);
}

TEST(Scenario, TransformerNetworksFormDistinctKeys) {
  for (const auto& name : models::transformer_network_names()) {
    Scenario s = mbs2_scenario(name);
    EXPECT_NE(s.schedule_key(), mbs2_scenario().schedule_key());
    EXPECT_EQ(s.network_key(), name);
  }
}

TEST(Scenario, SeqAxisExtendsKeysBackwardCompatibly) {
  // Default seq emits no token, so every pre-seq key — and with it every
  // warm cache written before the axis existed — stays byte-frozen. The
  // override stamps all three key kinds.
  const Scenario base = mbs2_scenario("vit_small");
  EXPECT_EQ(base.network_key(), "vit_small");
  EXPECT_EQ(base.schedule_key().find("seq="), std::string::npos);
  EXPECT_EQ(base.cache_key().find("seq="), std::string::npos);

  Scenario longer = mbs2_scenario("vit_small");
  longer.seq = 256;
  EXPECT_EQ(longer.network_key(), "vit_small;seq=256");
  EXPECT_NE(longer.schedule_key(), base.schedule_key());
  EXPECT_NE(longer.cache_key(), base.cache_key());
  EXPECT_NE(longer.schedule_key().find("seq=256;"), std::string::npos);

  Scenario gpu = longer;
  gpu.device = Device::kGpu;
  EXPECT_NE(gpu.cache_key().find("seq=256;"), std::string::npos);
  EXPECT_NE(gpu.cache_key(), longer.cache_key());
}

TEST(Scenario, SeqRoundTripsThroughParseAndRejectsGarbage) {
  Scenario s;
  std::string err;
  ASSERT_TRUE(parse_scenario("net=vit_small;seq=256;cfg=MBS2;", &s, &err))
      << err;
  EXPECT_EQ(s.seq, 256);
  EXPECT_EQ(s.network_key(), "vit_small;seq=256");
  ASSERT_TRUE(parse_scenario("net=vit_small;cfg=MBS2;", &s, &err)) << err;
  EXPECT_EQ(s.seq, 0);
  EXPECT_FALSE(parse_scenario("net=vit_small;seq=banana;", &s, &err));
  EXPECT_NE(err.find("bad seq"), std::string::npos);
  EXPECT_FALSE(parse_scenario("net=vit_small;seq=-4;", &s, &err));
}

TEST(Scenario, GpuKeyIsDisjointFromWaveCoreKey) {
  Scenario wave = mbs2_scenario();
  Scenario gpu = mbs2_scenario();
  gpu.device = Device::kGpu;
  EXPECT_NE(wave.cache_key(), gpu.cache_key());
}

TEST(Scenario, WaveCoreKeysAreByteFrozenAtTheirPreSystolicValues) {
  // The cycle backend rides in on a new `dev=systolic` tag; pre-existing
  // devices must keep their exact key bytes so warm caches written before
  // the backend landed stay valid. These literals were captured from the
  // tree immediately before the systolic backend merged — a mismatch here
  // means every on-disk cache in the wild just went cold.
  const Scenario s = mbs2_scenario();
  EXPECT_EQ(s.schedule_key(),
            "net=resnet50;cfg=MBS2;buf=10485760;mb=0;opt=0;ft=0;");
  EXPECT_EQ(s.cache_key(),
            "net=resnet50;cfg=MBS2;buf=10485760;mb=0;opt=0;ft=0;"
            "rows=128;cols=128;clk=700000000;acc=131072;mem=HBM2;"
            "membw=322122547200;memcap=8589934592;memch=8;mempj=25;cores=2;"
            "gbuf=10485760;gbw=537944653824;vflops=2870000000000;edram=25;"
            "ebuf=3.1000000000000001;emac=2;evec=0.40000000000000002;"
            "ezero=0.40000000000000002;estat=4;nobw=0;");
  // No systolic axis may leak into the default device's key.
  EXPECT_EQ(s.cache_key().find("dev="), std::string::npos);
  EXPECT_EQ(s.cache_key().find("df="), std::string::npos);
  EXPECT_EQ(s.cache_key().find("spad="), std::string::npos);
}

TEST(Scenario, GpuKeyIsByteFrozenAtItsPreSystolicValue) {
  Scenario s = mbs2_scenario();
  s.device = Device::kGpu;
  EXPECT_EQ(s.cache_key(),
            "dev=gpu;net=resnet50;gmb=64;flops=125000000000000;"
            "bw=900000000000;sm=80;tile=128;bps=2;ko=1.2e-05;"
            "eff=0.55000000000000004;im2col=1;");
}

TEST(Scenario, SystolicKeyIsTaggedAndDistinguishesItsAxes) {
  Scenario s = mbs2_scenario();
  s.device = Device::kSystolic;
  EXPECT_EQ(s.cache_key().rfind("dev=systolic;", 0), 0u);
  EXPECT_NE(s.cache_key().find("df=os;"), std::string::npos);
  EXPECT_NE(s.cache_key().find("spad=524288;"), std::string::npos);
  EXPECT_NE(s.cache_key(), mbs2_scenario().cache_key());
  Scenario ws = s;
  ws.systolic.dataflow = arch::Dataflow::kWeightStationary;
  EXPECT_NE(ws.cache_key(), s.cache_key());
  Scenario big = s;
  big.systolic.scratchpad_bytes *= 2;
  EXPECT_NE(big.cache_key(), s.cache_key());
  // The schedule axis is untouched: both backends share scheduler work,
  // so the sweep runner batches them into one schedule group.
  EXPECT_EQ(s.schedule_key(), mbs2_scenario().schedule_key());
  EXPECT_EQ(ws.schedule_key(), s.schedule_key());
}

TEST(Scenario, GridIsNetworkMajor) {
  const auto grid = scenario_grid({"resnet50", "alexnet"},
                                  {sched::ExecConfig::kBaseline,
                                   sched::ExecConfig::kMbs2});
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].network, "resnet50");
  EXPECT_EQ(grid[0].config, sched::ExecConfig::kBaseline);
  EXPECT_EQ(grid[1].network, "resnet50");
  EXPECT_EQ(grid[1].config, sched::ExecConfig::kMbs2);
  EXPECT_EQ(grid[2].network, "alexnet");
  EXPECT_EQ(grid[3].config, sched::ExecConfig::kMbs2);
}

// ---- Evaluator memoization --------------------------------------------------

TEST(Evaluator, MemoizesNetworkBuilds) {
  Evaluator eval;
  const core::Network& a = eval.network("resnet50");
  const core::Network& b = eval.network("resnet50");
  EXPECT_EQ(&a, &b);  // same cached object, not a rebuild
  const EvaluatorStats stats = eval.stats();
  EXPECT_EQ(stats.network_misses, 1);
  EXPECT_EQ(stats.network_hits, 1);
}

TEST(Evaluator, MemoizesSchedulesAcrossHardwareVariants) {
  Evaluator eval;
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.hw.memory = arch::lpddr4();  // different hw, same scheduling problem
  const sched::Schedule& sa = eval.schedule(a);
  const sched::Schedule& sb = eval.schedule(b);
  EXPECT_EQ(&sa, &sb);
}

TEST(Evaluator, CacheHitReturnsIdenticalStepResult) {
  Evaluator eval;
  const Scenario s = mbs2_scenario();
  const sim::StepResult first = eval.step(s);
  const sim::StepResult second = eval.step(s);  // cache hit
  EXPECT_TRUE(step_equal(first, second));
  EXPECT_EQ(&eval.step(s), &eval.step(s));  // same cached object
  const EvaluatorStats stats = eval.stats();
  EXPECT_EQ(stats.step_misses, 1);
  EXPECT_GE(stats.step_hits, 2);
}

TEST(Evaluator, DistinctKeysComputeDistinctResults) {
  Evaluator eval;
  Scenario a = mbs2_scenario();
  Scenario b = mbs2_scenario();
  b.config = sched::ExecConfig::kBaseline;
  EXPECT_NE(eval.step(a).time_s, eval.step(b).time_s);
}

// ---- SweepRunner determinism ------------------------------------------------

TEST(SweepRunner, ParallelMatchesSerialBitForBit) {
  const auto grid = scenario_grid(models::evaluated_network_names(),
                                  sched::paper_tab3_configs());

  // Serial reference: evaluate each scenario in order on one thread.
  Evaluator serial_eval;
  std::vector<ScenarioResult> serial;
  serial.reserve(grid.size());
  for (const Scenario& s : grid)
    serial.push_back(evaluate_scenario(s, serial_eval));

  // Parallel run with an explicit pool.
  SweepOptions opts;
  opts.threads = 8;
  Evaluator par_eval;
  const auto parallel = SweepRunner(opts).run(grid, par_eval);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].scenario.cache_key(), serial[i].scenario.cache_key());
    EXPECT_TRUE(step_equal(parallel[i].step, serial[i].step))
        << "scenario " << i << " diverged between serial and parallel runs";
    EXPECT_EQ(parallel[i].traffic->dram_bytes(),
              serial[i].traffic->dram_bytes());
    EXPECT_EQ(parallel[i].schedule->groups.size(),
              serial[i].schedule->groups.size());
  }

  // The sweep shares intermediates: six network builds serve 36 scenarios.
  const EvaluatorStats stats = par_eval.stats();
  EXPECT_EQ(stats.network_misses, 6);
  EXPECT_EQ(stats.schedule_misses, 36);
}

TEST(SweepRunner, ComposesWithKernelPoolBitIdentically) {
  // The sweep pool and the kernel pool share one thread budget; nested
  // kernel parallelism inside sweep workers runs inline. A threaded sweep
  // of training jobs must therefore be byte-identical to a fully serial
  // run at any core count — the in-tree replacement for the old "needs a
  // >= 4-core host" benchmark caveat.
  const train::Dataset data =
      train::make_synthetic_dataset(16, 4, 1, 12, /*seed=*/71);
  auto gradients = [&](int sweep_threads, int kernel_budget) {
    util::set_thread_budget(kernel_budget);
    SweepOptions opts;
    opts.threads = sweep_threads;
    const SweepRunner runner(opts);
    std::vector<std::function<std::vector<float>()>> jobs;
    for (int seed : {5, 6, 7}) {
      jobs.push_back([&data, seed] {
        train::SmallCnnConfig cfg;
        cfg.norm = train::NormMode::kGroup;
        cfg.seed = seed;
        train::SmallCnn model(cfg);
        train::compute_gradients(model, data.images, data.labels,
                                 {4, 4, 4, 4});
        std::vector<float> flat;
        for (train::Tensor* g : model.gradients())
          flat.insert(flat.end(), g->data(), g->data() + g->size());
        return flat;
      });
    }
    auto per_job = runner.map<std::vector<float>>(jobs);
    util::set_thread_budget(-1);
    std::vector<float> all;
    for (const auto& v : per_job) all.insert(all.end(), v.begin(), v.end());
    return all;
  };

  const std::vector<float> serial = gradients(/*sweep=*/1, /*kernel=*/1);
  for (const auto& [sweep, kernel] :
       std::vector<std::pair<int, int>>{{4, 1}, {1, 8}, {4, 8}, {8, 3}}) {
    const std::vector<float> got = gradients(sweep, kernel);
    ASSERT_EQ(got.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(got.data(), serial.data(),
                             serial.size() * sizeof(float)))
        << "sweep=" << sweep << " kernel=" << kernel
        << ": training gradients diverged from the serial run";
  }
}

// ---- Schedule-group batching ------------------------------------------------

/// A fig12-shaped grid: every config's schedule is shared by three
/// hardware variants (12 scenarios, 4 schedule keys).
std::vector<Scenario> schedule_sharing_grid() {
  std::vector<Scenario> grid;
  for (auto cfg : {sched::ExecConfig::kBaseline, sched::ExecConfig::kArchOpt,
                   sched::ExecConfig::kIL, sched::ExecConfig::kMbs2})
    for (const auto& mem :
         {arch::hbm2_x2(), arch::gddr5(), arch::lpddr4()}) {
      Scenario s;
      s.network = "alexnet";
      s.config = cfg;
      s.hw.memory = mem;
      grid.push_back(std::move(s));
    }
  return grid;
}

TEST(ScheduleGroups, GroupedSweepMatchesUngroupedBitForBit) {
  const auto grid = schedule_sharing_grid();

  SweepOptions ungrouped_opts;
  ungrouped_opts.group_by_schedule = false;
  Evaluator ungrouped_eval;
  const auto reference =
      SweepRunner(ungrouped_opts).run(grid, ungrouped_eval);

  for (int threads : {1, 4}) {
    SweepOptions opts;
    opts.threads = threads;
    Evaluator eval;
    const auto grouped = SweepRunner(opts).run(grid, eval);
    ASSERT_EQ(grouped.size(), reference.size());
    for (std::size_t i = 0; i < grouped.size(); ++i) {
      EXPECT_TRUE(step_equal(grouped[i].step, reference[i].step))
          << "threads=" << threads << " scenario " << i;
      ASSERT_NE(grouped[i].traffic, nullptr);
      EXPECT_EQ(grouped[i].traffic->dram_bytes(),
                reference[i].traffic->dram_bytes());
      EXPECT_EQ(grouped[i].schedule->groups.size(),
                reference[i].schedule->groups.size());
    }
    // Members of one group share the evaluator's schedule/traffic objects.
    EXPECT_EQ(grouped[0].schedule, grouped[1].schedule);
    EXPECT_EQ(grouped[0].traffic, grouped[2].traffic);
    EXPECT_NE(grouped[0].schedule, grouped[3].schedule);
  }
}

TEST(ScheduleGroups, GroupingReducesTrafficInvocationsToOnePerGroup) {
  const auto grid = schedule_sharing_grid();  // 12 scenarios, 4 keys

  Evaluator grouped_eval;
  SweepRunner().run(grid, grouped_eval);
  const EvaluatorStats grouped = grouped_eval.stats();
  EXPECT_EQ(grouped.traffic_misses, 4);
  EXPECT_EQ(grouped.traffic_hits, 0);  // one lookup per group, total
  EXPECT_EQ(grouped.schedule_misses, 4);
  EXPECT_EQ(grouped.step_misses, 12);  // per-scenario work is untouched

  SweepOptions off;
  off.group_by_schedule = false;
  Evaluator ungrouped_eval;
  SweepRunner(off).run(grid, ungrouped_eval);
  const EvaluatorStats ungrouped = ungrouped_eval.stats();
  EXPECT_EQ(ungrouped.traffic_misses, 4);
  EXPECT_EQ(ungrouped.traffic_hits, 8);  // one lookup per scenario
}

TEST(ScheduleGroups, MixedStageMembersKeepTheirOwnDepth) {
  // Two scenarios share a schedule key but differ in evaluation depth:
  // grouping must not deepen the shallow one's result.
  Scenario shallow = mbs2_scenario("alexnet");
  shallow.stage = Stage::kSchedule;
  Scenario deep = mbs2_scenario("alexnet");
  deep.stage = Stage::kSimulate;

  Evaluator eval;
  const auto results = SweepRunner().run({shallow, deep}, eval);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].schedule, nullptr);
  EXPECT_EQ(results[0].traffic, nullptr);  // still cut off at kSchedule
  EXPECT_NE(results[1].traffic, nullptr);
  EXPECT_EQ(results[0].schedule, results[1].schedule);
  EXPECT_EQ(eval.stats().traffic_misses, 1);
  EXPECT_EQ(eval.stats().step_misses, 1);
}

TEST(ScheduleGroups, ComposesWithShardingAndWarmCacheByteIdentically) {
  const auto grid = schedule_sharing_grid();
  const std::string dir = testing::TempDir() + "mbs_groups_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  const auto render = [&](const SweepResults& results, const ShardPlan& plan,
                          std::ostringstream& csv, std::ostringstream& json) {
    ResultSink sink("groups x shards", {"config", "memory", "time", "dram"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!plan.owns(i)) continue;
      sink.add_row({sched::to_string(results[i].scenario.config),
                    results[i].scenario.hw.memory.name,
                    std::to_string(results[i].step.time_s),
                    std::to_string(results[i].step.dram_bytes)});
    }
    sink.write_csv(csv);
    sink.write_json(json);
  };

  // Ungrouped, unsharded reference documents.
  SweepOptions off;
  off.group_by_schedule = false;
  Evaluator ref_eval;
  std::ostringstream ref_csv, ref_json;
  render(SweepRunner(off).run_sharded(grid, ref_eval, ShardPlan{}),
         ShardPlan{}, ref_csv, ref_json);

  // Grouped + sharded runs against one disk cache (cold shard 0 of 2, then
  // warm shard 1 of 2 in a fresh store), merged back.
  std::vector<ResultSink::Parsed> csv_shards, json_shards;
  for (int index = 0; index < 2; ++index) {
    CacheStore store(path);
    Evaluator eval(&store);
    const ShardPlan plan{index, 2};
    const SweepResults results =
        SweepRunner().run_sharded(grid, eval, plan);
    std::ostringstream csv, json;
    render(results, plan, csv, json);
    csv_shards.push_back(ResultSink::parse_csv(csv.str()));
    json_shards.push_back(ResultSink::parse_json(json.str()));
    ASSERT_TRUE(store.save());
    if (index == 1) {
      // The second shard's schedule-group phase was served from disk.
      const EvaluatorStats stats = eval.stats();
      EXPECT_GT(stats.schedule_disk_hits, 0);
      EXPECT_GT(stats.traffic_disk_hits, 0);
    }
  }
  const ResultSink::Parsed merged_csv = ResultSink::merge_shards(csv_shards);
  const ResultSink::Parsed merged_json =
      ResultSink::merge_shards(json_shards);
  ResultSink csv_sink("", merged_csv.headers);
  for (const auto& row : merged_csv.rows) csv_sink.add_row(row);
  ResultSink json_sink(merged_json.title, merged_json.headers);
  for (const auto& row : merged_json.rows) json_sink.add_row(row);
  std::ostringstream csv, json;
  csv_sink.write_csv(csv);
  json_sink.write_json(json);
  EXPECT_EQ(csv.str(), ref_csv.str());
  EXPECT_EQ(json.str(), ref_json.str());
  std::remove(path.c_str());
}

// ---- Workload axes (PR 5: transformers x variants x memory configs) ---------

/// The pareto_sweep-shaped grid: a Transformer network swept over grouping
/// variants x buffer sizes, sharing schedules across two bandwidths each.
std::vector<Scenario> workload_axis_grid() {
  std::vector<Scenario> grid;
  for (auto variant : {sched::GroupingVariant::kContiguous,
                       sched::GroupingVariant::kNonContiguous})
    for (double mib : {5.0, 10.0})
      for (double bw_scale : {0.5, 1.0}) {
        Scenario s;
        s.network = "transformer_base";
        s.config = sched::ExecConfig::kMbs2;
        s.params.variant = variant;
        s.params.buffer_bytes =
            static_cast<std::int64_t>(mib * 1024 * 1024);
        s.hw.global_buffer_bytes = s.params.buffer_bytes;
        s.hw.memory.bandwidth_bytes_per_s *= bw_scale;
        grid.push_back(std::move(s));
      }
  return grid;
}

TEST(WorkloadAxes, VariantAxisShardsAndWarmCachesByteIdentically) {
  // The new axes must compose with every engine feature at once: the grid
  // runs grouped + sharded against a disk cache (cold shard 0, warm shard
  // 1), and the merged CSV/JSON documents must be byte-identical to an
  // unsharded, ungrouped, memory-only reference run.
  const auto grid = workload_axis_grid();
  const std::string dir = testing::TempDir() + "mbs_axes_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  const auto render = [&](const SweepResults& results, const ShardPlan& plan,
                          std::ostringstream& csv, std::ostringstream& json) {
    ResultSink sink("workload axes",
                    {"variant", "buffer", "bw", "time", "dram", "groups"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!plan.owns(i)) continue;
      const ScenarioResult& r = results[i];
      sink.add_row({sched::to_string(r.scenario.params.variant),
                    std::to_string(r.scenario.params.buffer_bytes),
                    std::to_string(r.scenario.hw.memory.bandwidth_bytes_per_s),
                    std::to_string(r.step.time_s),
                    std::to_string(r.step.dram_bytes),
                    std::to_string(r.schedule->groups.size())});
    }
    sink.write_csv(csv);
    sink.write_json(json);
  };

  SweepOptions off;
  off.group_by_schedule = false;
  Evaluator ref_eval;
  std::ostringstream ref_csv, ref_json;
  render(SweepRunner(off).run_sharded(grid, ref_eval, ShardPlan{}),
         ShardPlan{}, ref_csv, ref_json);
  // Per variant: one network build, two schedules (buffer sizes), four
  // simulations (x bandwidth) — the axes share all upstream stages.
  EXPECT_EQ(ref_eval.stats().network_misses, 1);
  EXPECT_EQ(ref_eval.stats().schedule_misses, 4);
  EXPECT_EQ(ref_eval.stats().step_misses, 8);

  std::vector<ResultSink::Parsed> csv_shards, json_shards;
  for (int index = 0; index < 2; ++index) {
    CacheStore store(path);
    Evaluator eval(&store);
    const ShardPlan plan{index, 2};
    const SweepResults results = SweepRunner().run_sharded(grid, eval, plan);
    std::ostringstream csv, json;
    render(results, plan, csv, json);
    csv_shards.push_back(ResultSink::parse_csv(csv.str()));
    json_shards.push_back(ResultSink::parse_json(json.str()));
    ASSERT_TRUE(store.save());
    if (index == 1) {
      // The second shard's schedule phase was served from disk — including
      // the non-contiguous schedules, whose member lists round-trip through
      // the sched2 serde record.
      EXPECT_GT(eval.stats().schedule_disk_hits, 0);
    }
  }
  const ResultSink::Parsed merged_csv = ResultSink::merge_shards(csv_shards);
  const ResultSink::Parsed merged_json = ResultSink::merge_shards(json_shards);
  ResultSink csv_sink("", merged_csv.headers);
  for (const auto& row : merged_csv.rows) csv_sink.add_row(row);
  ResultSink json_sink(merged_json.title, merged_json.headers);
  for (const auto& row : merged_json.rows) json_sink.add_row(row);
  std::ostringstream csv, json;
  csv_sink.write_csv(csv);
  json_sink.write_json(json);
  EXPECT_EQ(csv.str(), ref_csv.str());
  EXPECT_EQ(json.str(), ref_json.str());
  std::remove(path.c_str());
}

TEST(WorkloadAxes, NonContiguousScheduleRoundTripsThroughDiskStore) {
  const std::string dir = testing::TempDir() + "mbs_variant_store_" +
                          std::to_string(static_cast<long>(::getpid()));
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  Scenario s = mbs2_scenario("alexnet");
  s.params.variant = sched::GroupingVariant::kNonContiguous;
  sched::Schedule computed;
  {
    CacheStore store(path);
    Evaluator eval(&store);
    computed = eval.schedule(s);
    ASSERT_TRUE(store.save());
  }
  CacheStore reloaded(path);
  sched::Schedule from_disk;
  ASSERT_TRUE(reloaded.load_schedule(s.schedule_key(), &from_disk));
  ASSERT_EQ(from_disk.groups.size(), computed.groups.size());
  for (std::size_t g = 0; g < computed.groups.size(); ++g) {
    EXPECT_EQ(from_disk.groups[g].members, computed.groups[g].members);
    EXPECT_FALSE(from_disk.groups[g].members.empty());
    EXPECT_EQ(from_disk.groups[g].sub_batch, computed.groups[g].sub_batch);
  }
  std::remove(path.c_str());
}

TEST(SweepRunner, ResultsComeBackInInputOrder) {
  SweepOptions opts;
  opts.threads = 4;
  const SweepRunner runner(opts);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 64; ++i) jobs.push_back([i] { return i * i; });
  const std::vector<int> out = runner.map<int>(jobs);
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  SweepOptions opts;
  opts.threads = 2;
  const SweepRunner runner(opts);
  EXPECT_THROW(
      runner.for_each_index(8,
                            [](int i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

TEST(SweepRunner, GpuScenariosMapIntoStepFields) {
  Scenario s;
  s.network = "resnet50";
  s.device = Device::kGpu;
  Evaluator eval;
  const auto results = SweepRunner().run({s}, eval);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].schedule, nullptr);
  EXPECT_GT(results[0].gpu.time_s, 0);
  EXPECT_EQ(results[0].step.time_s, results[0].gpu.time_s);
  EXPECT_EQ(results[0].step.dram_bytes, results[0].gpu.dram_bytes);
  // GPU cache activity is counted separately from the WaveCore step cache.
  EXPECT_EQ(eval.stats().gpu_misses, 1);
  EXPECT_EQ(eval.stats().step_misses, 0);
}

TEST(SweepRunner, ShallowStagesSkipLaterPipelineWork) {
  Scenario s = mbs2_scenario();
  s.stage = Stage::kSchedule;
  Evaluator eval;
  const auto results = SweepRunner().run({s}, eval);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].schedule, nullptr);
  EXPECT_EQ(results[0].traffic, nullptr);
  EXPECT_EQ(eval.stats().step_misses, 0);   // simulate_step never ran
  EXPECT_EQ(eval.stats().traffic_misses, 0);

  // Deepening the same scenario reuses the memoized shallow stages.
  s.stage = Stage::kSimulate;
  const auto deep = SweepRunner().run({s}, eval);
  EXPECT_EQ(deep[0].schedule, results[0].schedule);
  EXPECT_EQ(eval.stats().schedule_misses, 1);
}

// ---- ResultSink -------------------------------------------------------------

TEST(ResultSink, CsvRoundTripsTableContents) {
  ResultSink sink("Fig. X", {"network", "value", "note"});
  sink.add_row({"resnet50", "1.25", "plain"});
  sink.add_row({"odd,cell", "with \"quotes\"", "multi\nline"});
  std::ostringstream os;
  sink.write_csv(os);

  const ResultSink::Parsed parsed = ResultSink::parse_csv(os.str());
  EXPECT_EQ(parsed.headers, sink.table().headers());
  ASSERT_EQ(parsed.rows.size(), sink.table().rows().size());
  for (std::size_t i = 0; i < parsed.rows.size(); ++i)
    EXPECT_EQ(parsed.rows[i], sink.table().rows()[i]);
}

TEST(ResultSink, JsonRoundTripsTableContents) {
  ResultSink sink("Fig. 10a: time \"per step\"", {"network", "t [ms]"});
  sink.add_row({"resnet50", "58.3"});
  sink.add_row({"needs \\escaping\t", "line\nbreak"});
  std::ostringstream os;
  sink.write_json(os);

  const ResultSink::Parsed parsed = ResultSink::parse_json(os.str());
  EXPECT_EQ(parsed.title, sink.title());
  EXPECT_EQ(parsed.headers, sink.table().headers());
  ASSERT_EQ(parsed.rows.size(), sink.table().rows().size());
  for (std::size_t i = 0; i < parsed.rows.size(); ++i)
    EXPECT_EQ(parsed.rows[i], sink.table().rows()[i]);
}

TEST(ResultSink, ShortRowsRoundTripPadded) {
  ResultSink sink("t", {"a", "b", "c"});
  sink.add_row({"only"});  // padded to ("only", "", "") by util::Table
  std::ostringstream csv, json;
  sink.write_csv(csv);
  sink.write_json(json);
  EXPECT_EQ(ResultSink::parse_csv(csv.str()).rows[0],
            (std::vector<std::string>{"only", "", ""}));
  EXPECT_EQ(ResultSink::parse_json(json.str()).rows[0],
            (std::vector<std::string>{"only", "", ""}));
}

// ---- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, IdentityPlanOwnsEverything) {
  const ShardPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.suffix(), "");
  for (std::size_t i = 0; i < 10; ++i) EXPECT_TRUE(plan.owns(i));
}

TEST(ShardPlan, RoundRobinPartitionIsExactAndDisjoint) {
  const int n = 3;
  for (std::size_t i = 0; i < 20; ++i) {
    int owners = 0;
    for (int s = 0; s < n; ++s)
      if ((ShardPlan{s, n}).owns(i)) ++owners;
    EXPECT_EQ(owners, 1) << "index " << i;
    EXPECT_TRUE((ShardPlan{static_cast<int>(i % n), n}).owns(i));
  }
}

TEST(ShardPlan, ParsesSpecAndFormatsSuffix) {
  const ShardPlan plan = ShardPlan::parse("1/4");
  EXPECT_EQ(plan.index, 1);
  EXPECT_EQ(plan.count, 4);
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.suffix(), ".shard1of4");
}

TEST(ShardPlanDeathTest, RejectsMalformedSpecs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ShardPlan::parse("4/4"), "bad shard spec");
  EXPECT_DEATH(ShardPlan::parse("-1/4"), "bad shard spec");
  EXPECT_DEATH(ShardPlan::parse("banana"), "bad shard spec");
  EXPECT_DEATH(ShardPlan::parse("1/4/2"), "bad shard spec");
}

// ---- SweepResults laziness --------------------------------------------------

TEST(SweepResults, ShardedRunMaterializesUnownedEntriesLazily) {
  const auto grid = scenario_grid(
      {"alexnet"}, {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs1,
                    sched::ExecConfig::kMbs2});
  Evaluator eager_eval;
  const auto reference = SweepRunner().run(grid, eager_eval);

  Evaluator eval;
  const ShardPlan plan{0, 2};  // owns scenarios 0 and 2
  const SweepResults results = SweepRunner().run_sharded(grid, eval, plan);
  // The eager pass evaluated only the owned scenarios.
  EXPECT_EQ(eval.stats().step_misses, 2);
  // Accessing the un-owned entry materializes it on demand, bit-identical
  // to the full run.
  EXPECT_TRUE(step_equal(results[1].step, reference[1].step));
  EXPECT_EQ(eval.stats().step_misses, 3);
  EXPECT_TRUE(step_equal(results[0].step, reference[0].step));
  EXPECT_TRUE(step_equal(results[2].step, reference[2].step));
}

// ---- serde ------------------------------------------------------------------

TEST(Serde, RoundTripsEveryTokenKindExactly) {
  util::serde::Writer w;
  w.put_int(-42);
  w.put_double(0.1);               // not representable: exercises %a exactness
  w.put_double(-1.5e300);
  w.put_string("with spaces\nand newline");
  w.put_string("");
  util::serde::Reader r(w.str());
  EXPECT_EQ(r.read_int(), -42);
  EXPECT_EQ(r.read_double(), 0.1);
  EXPECT_EQ(r.read_double(), -1.5e300);
  EXPECT_EQ(r.read_string(), "with spaces\nand newline");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_FALSE(r.fail());
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, HugeStringLengthFailsInsteadOfOverflowing) {
  // 2^64-1 would wrap the bounds arithmetic if accumulated unchecked.
  util::serde::Reader r("18446744073709551615:abc");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.fail());
  util::serde::Reader r2("999:abc");  // in-range length, out-of-bounds
  EXPECT_EQ(r2.read_string(), "");
  EXPECT_TRUE(r2.fail());
}

// ---- CacheStore -------------------------------------------------------------

std::string test_cache_dir(const char* name) {
  return testing::TempDir() + "mbs_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

std::string read_bytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every shard entry file under the store at `path`, sorted (quarantined
/// files excluded).
std::vector<std::string> shard_entry_files(const std::string& path) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path + ".d")) {
    const std::string file = entry.path().string();
    if (entry.is_regular_file() &&
        file.find("/quarantine/") == std::string::npos)
      files.push_back(file);
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One shard entry file split into its header fields and record body.
struct ShardEntry {
  std::string stamp, stage, key, body;
};

ShardEntry read_shard_entry(const std::string& file) {
  const std::string text = read_bytes(file);
  util::serde::Reader r(text);
  ShardEntry e;
  EXPECT_EQ(r.read_string(), "mbs-entry");
  EXPECT_EQ(r.read_int(), CacheStore::kFormatVersion);
  e.stamp = r.read_string();
  e.stage = r.read_string();
  e.key = r.read_string();
  r.read_int();  // checksum
  e.body = r.read_string();
  EXPECT_FALSE(r.fail()) << file;
  EXPECT_TRUE(r.at_end()) << file;
  return e;
}

/// Writes `body` under `e`'s header with a freshly computed checksum, so
/// the bytes reach the record reader instead of stopping at the checksum.
void write_shard_entry(const std::string& file, const ShardEntry& e,
                       const std::string& body) {
  util::serde::Writer w;
  w.put_string("mbs-entry");
  w.put_int(CacheStore::kFormatVersion);
  w.put_string(e.stamp);
  w.put_string(e.stage);
  w.put_string(e.key);
  w.put_int(static_cast<std::int64_t>(util::fnv1a64(body)));
  w.put_string(body);
  std::ofstream(file, std::ios::binary | std::ios::trunc) << w.str() << "\n";
}

TEST(CacheStore, WarmRunMatchesColdRunAndSkipsAllComputation) {
  const std::string dir = test_cache_dir("warm");
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  auto grid = scenario_grid(
      {"alexnet"}, {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2});
  Scenario gpu;
  gpu.network = "alexnet";
  gpu.device = Device::kGpu;
  grid.push_back(gpu);

  // Cold run: every stage is computed and recorded.
  CacheStore cold_store(path);
  Evaluator cold_eval(&cold_store);
  const auto cold = SweepRunner().run(grid, cold_eval);
  const EvaluatorStats cold_stats = cold_eval.stats();
  EXPECT_EQ(cold_stats.step_disk_hits, 0);
  EXPECT_EQ(cold_stats.step_misses, 2);
  EXPECT_EQ(cold_stats.gpu_misses, 1);
  EXPECT_TRUE(cold_store.dirty());
  ASSERT_TRUE(cold_store.save());
  EXPECT_FALSE(cold_store.dirty());

  // Warm run: a fresh process-equivalent (new store, new evaluator) serves
  // every miss from disk — bit-identical results, zero recomputation.
  CacheStore warm_store(path);
  Evaluator warm_eval(&warm_store);
  const auto warm = SweepRunner().run(grid, warm_eval);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(step_equal(warm[i].step, cold[i].step)) << "scenario " << i;
    if (warm[i].traffic) {
      EXPECT_EQ(warm[i].traffic->dram_bytes(), cold[i].traffic->dram_bytes());
    }
    if (warm[i].schedule) {
      ASSERT_NE(cold[i].schedule, nullptr);
      EXPECT_EQ(warm[i].schedule->groups.size(),
                cold[i].schedule->groups.size());
    }
    EXPECT_EQ(warm[i].network->param_count(), cold[i].network->param_count());
    EXPECT_EQ(warm[i].network->layer_count(), cold[i].network->layer_count());
  }
  const EvaluatorStats warm_stats = warm_eval.stats();
  EXPECT_EQ(warm_stats.network_disk_hits, warm_stats.network_misses);
  EXPECT_EQ(warm_stats.schedule_disk_hits, warm_stats.schedule_misses);
  EXPECT_EQ(warm_stats.traffic_disk_hits, warm_stats.traffic_misses);
  EXPECT_EQ(warm_stats.step_disk_hits, warm_stats.step_misses);
  EXPECT_EQ(warm_stats.gpu_disk_hits, warm_stats.gpu_misses);
  EXPECT_GT(warm_stats.step_disk_hits, 0);
  EXPECT_EQ(warm_store.loaded_entries(), cold_store.entry_count());
  // Nothing new was computed, so there is nothing to save.
  EXPECT_FALSE(warm_store.dirty());
  std::remove(path.c_str());
}

TEST(CacheStore, StepOnDiskLoadedTrafficMatchesColdStepBitForBit) {
  // The step stage consumes the traffic memo. Warm it from disk only (the
  // store holds schedules and traffic but no steps) and the computed steps
  // must carry exactly the cold run's bits.
  const std::string dir = test_cache_dir("traffic_warm");
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  auto grid = scenario_grid({"alexnet", "resnet50", "vit_small"},
                            sched::paper_tab3_configs());
  {
    CacheStore store(path);
    Evaluator eval(&store);
    for (const Scenario& s : grid) eval.traffic(s);
    ASSERT_TRUE(store.save());
  }

  Evaluator cold_eval;
  CacheStore warm_store(path);
  Evaluator warm_eval(&warm_store);
  for (const Scenario& s : grid) {
    const sim::StepResult& cold = cold_eval.step(s);
    const sim::StepResult& warm = warm_eval.step(s);
    EXPECT_TRUE(warm == cold) << s.cache_key();
  }
  const EvaluatorStats warm_stats = warm_eval.stats();
  const auto n = static_cast<std::int64_t>(grid.size());
  EXPECT_EQ(warm_stats.traffic_misses, n);
  EXPECT_EQ(warm_stats.traffic_disk_hits, n);
  EXPECT_EQ(warm_stats.traffic_hits, 0);
  EXPECT_EQ(warm_stats.step_misses, n);
  EXPECT_EQ(warm_stats.step_disk_hits, 0);
  std::remove(path.c_str());
}

TEST(CacheStore, VersionStampMismatchStartsCold) {
  const std::string dir = test_cache_dir("stale");
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  const Scenario s = mbs2_scenario("alexnet");
  sim::StepResult ref;
  {
    CacheStore store(path);
    Evaluator eval(&store);
    ref = eval.step(s);
    ASSERT_TRUE(store.save());
  }
  // Re-stamp every shard entry with the pre-attention schema stamp: same
  // framing, valid checksum, another schema version.
  const std::vector<std::string> files = shard_entry_files(path);
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    ShardEntry e = read_shard_entry(file);
    e.stamp = "net1;sched2;traffic1;step1;gpu1;sys1;svc2";
    write_shard_entry(file, e, e.body);
  }
  CacheStore stale(path);
  Evaluator eval(&stale);
  EXPECT_TRUE(step_equal(eval.step(s), ref));
  EXPECT_EQ(stale.loaded_entries(), 0u);  // every entry missed
  // Another stamp is a plain miss, not corruption: the files stay put.
  EXPECT_EQ(stale.corrupt_entries(), 0u);
  EXPECT_EQ(shard_entry_files(path), files);
  const EvaluatorStats stats = eval.stats();
  EXPECT_EQ(stats.step_disk_hits, 0);
  EXPECT_EQ(stats.step_misses, 1);
  // The recomputed entries overwrite the re-stamped files on save.
  EXPECT_TRUE(stale.dirty());
  ASSERT_TRUE(stale.save());
  CacheStore reloaded(path);
  sim::StepResult out;
  EXPECT_TRUE(reloaded.load_step(s.cache_key(), &out));
  EXPECT_TRUE(step_equal(out, ref));
  EXPECT_EQ(reloaded.corrupt_entries(), 0u);
  std::filesystem::remove_all(dir);
}

// ---- Shard-then-merge determinism -------------------------------------------

TEST(Sharding, MergedShardDocumentsAreByteIdenticalToUnsharded) {
  const auto grid = scenario_grid(
      {"alexnet", "resnet50"},
      {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs1,
       sched::ExecConfig::kMbs2});
  Evaluator eval;
  const auto full = SweepRunner().run(grid, eval);

  const auto row_cells = [&](std::size_t i) {
    return std::vector<std::string>{
        full[i].network->name, sched::to_string(full[i].scenario.config),
        std::to_string(full[i].step.time_s),
        std::to_string(full[i].step.dram_bytes)};
  };

  // Unsharded reference documents.
  ResultSink reference("Fig. X: sharding test",
                       {"network", "config", "time", "dram"});
  for (std::size_t i = 0; i < full.size(); ++i)
    reference.add_row(row_cells(i));
  std::ostringstream ref_csv, ref_json;
  reference.write_csv(ref_csv);
  reference.write_json(ref_json);

  // Shard the same row emission three ways (the bench row-gating idiom),
  // then merge the per-shard documents.
  for (int count : {2, 3, 5}) {
    std::vector<ResultSink::Parsed> csv_shards, json_shards;
    for (int index = 0; index < count; ++index) {
      const ShardPlan plan{index, count};
      Evaluator shard_eval;
      const SweepResults results =
          SweepRunner().run_sharded(grid, shard_eval, plan);
      ResultSink sink("Fig. X: sharding test",
                      {"network", "config", "time", "dram"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!plan.owns(i)) continue;
        sink.add_row({results[i].network->name,
                      sched::to_string(results[i].scenario.config),
                      std::to_string(results[i].step.time_s),
                      std::to_string(results[i].step.dram_bytes)});
      }
      std::ostringstream csv, json;
      sink.write_csv(csv);
      sink.write_json(json);
      csv_shards.push_back(ResultSink::parse_csv(csv.str()));
      json_shards.push_back(ResultSink::parse_json(json.str()));
    }
    const ResultSink::Parsed merged_csv = ResultSink::merge_shards(csv_shards);
    const ResultSink::Parsed merged_json =
        ResultSink::merge_shards(json_shards);

    ResultSink csv_sink("", merged_csv.headers);
    for (const auto& row : merged_csv.rows) csv_sink.add_row(row);
    ResultSink json_sink(merged_json.title, merged_json.headers);
    for (const auto& row : merged_json.rows) json_sink.add_row(row);
    std::ostringstream csv, json;
    csv_sink.write_csv(csv);
    json_sink.write_json(json);
    EXPECT_EQ(csv.str(), ref_csv.str()) << count << " shards";
    EXPECT_EQ(json.str(), ref_json.str()) << count << " shards";
  }
}

// ---- Analytic vs cycle backend ----------------------------------------------

TEST(BackendDifferential, UnconstrainedCycleTrafficMatchesAnalyticAcrossZoo) {
  // The central conservation law of the cycle backend: it charges DRAM
  // stalls against the schedule's analytic traffic, so with bandwidth out
  // of the picture the two backends must agree on bytes exactly — for
  // every network in the zoo and every dataflow — and the cycle model must
  // report zero stall cycles.
  Evaluator eval;
  for (const std::string& net : models::all_network_names()) {
    Scenario analytic = mbs2_scenario(net);
    analytic.hw.unlimited_dram_bw = true;
    const sim::StepResult& step = eval.step(analytic);
    const double traffic_bytes =
        analytic.hw.cores * eval.traffic(analytic).dram_bytes();
    for (const arch::Dataflow df :
         {arch::Dataflow::kOutputStationary,
          arch::Dataflow::kWeightStationary,
          arch::Dataflow::kInputStationary}) {
      Scenario cycle = analytic;
      cycle.device = Device::kSystolic;
      cycle.systolic.dataflow = df;
      const arch::SystolicStepResult& sys = eval.systolic_step(cycle);
      EXPECT_DOUBLE_EQ(sys.dram_bytes, step.dram_bytes)
          << net << " " << arch::to_string(df);
      EXPECT_DOUBLE_EQ(sys.dram_bytes, traffic_bytes)
          << net << " " << arch::to_string(df);
      EXPECT_DOUBLE_EQ(sys.total_macs, step.total_macs)
          << net << " " << arch::to_string(df);
      EXPECT_EQ(sys.stats.stall_cycles, 0)
          << net << " " << arch::to_string(df);
    }
  }
}

TEST(BackendDifferential, MixedSweepTabulatesCycleMetricsIntoStepFields) {
  Scenario wave = mbs2_scenario("alexnet");
  Scenario cycle = wave;
  cycle.device = Device::kSystolic;
  Evaluator eval;
  const auto results = SweepRunner().run({wave, cycle}, eval);
  const ScenarioResult& r = results[1];
  EXPECT_EQ(r.step.time_s, r.systolic.time_s);
  EXPECT_EQ(r.step.dram_bytes, r.systolic.dram_bytes);
  EXPECT_EQ(r.step.total_macs, r.systolic.total_macs);
  EXPECT_EQ(r.step.systolic_utilization, r.systolic.stats.util);
  EXPECT_EQ(r.step.compute_time_s, r.systolic.compute_time_s);
  EXPECT_EQ(r.step.memory_time_s, r.systolic.stall_time_s);
  // Both backends ran from one shared schedule/traffic pair (they have the
  // same schedule key, so schedule-group batching hands out one object).
  EXPECT_EQ(results[0].schedule, r.schedule);
  EXPECT_EQ(results[0].traffic, r.traffic);
  // The cycle backend inherits the schedule's traffic by construction, so
  // DRAM bytes match the analytic row even under constrained bandwidth.
  EXPECT_DOUBLE_EQ(results[0].step.dram_bytes, r.step.dram_bytes);
}

TEST(CacheStore, SystolicEntriesPersistAndWarmStartFromDisk) {
  const std::string dir = test_cache_dir("sys_warm");
  const std::string path = dir + "/evaluator.mbscache";
  std::remove(path.c_str());

  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "vit_small"})
    for (int dev = 0; dev < 2; ++dev) {
      Scenario s = mbs2_scenario(net);
      if (dev == 1) s.device = Device::kSystolic;
      grid.push_back(s);
    }

  CacheStore cold_store(path);
  Evaluator cold_eval(&cold_store);
  const auto cold = SweepRunner().run(grid, cold_eval);
  const EvaluatorStats cold_stats = cold_eval.stats();
  EXPECT_EQ(cold_stats.systolic_misses, 2);
  EXPECT_EQ(cold_stats.systolic_disk_hits, 0);
  ASSERT_TRUE(cold_store.save());

  // A fresh process-equivalent serves every systolic entry from disk,
  // bit-identically, and computes nothing new.
  CacheStore warm_store(path);
  Evaluator warm_eval(&warm_store);
  const auto warm = SweepRunner().run(grid, warm_eval);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(step_equal(warm[i].step, cold[i].step)) << "scenario " << i;
    EXPECT_EQ(warm[i].systolic.stats.comp_cycles,
              cold[i].systolic.stats.comp_cycles);
    EXPECT_EQ(warm[i].systolic.stats.stall_cycles,
              cold[i].systolic.stats.stall_cycles);
    EXPECT_EQ(warm[i].systolic.stats.util, cold[i].systolic.stats.util);
    EXPECT_EQ(warm[i].systolic.stats.mapping_eff,
              cold[i].systolic.stats.mapping_eff);
    EXPECT_EQ(warm[i].systolic.time_s, cold[i].systolic.time_s);
    EXPECT_EQ(warm[i].systolic.dram_bytes, cold[i].systolic.dram_bytes);
    EXPECT_EQ(warm[i].systolic.bw_ifmap, cold[i].systolic.bw_ifmap);
    EXPECT_EQ(warm[i].systolic.bw_filter, cold[i].systolic.bw_filter);
    EXPECT_EQ(warm[i].systolic.bw_ofmap, cold[i].systolic.bw_ofmap);
  }
  const EvaluatorStats warm_stats = warm_eval.stats();
  EXPECT_EQ(warm_stats.systolic_disk_hits, warm_stats.systolic_misses);
  EXPECT_GT(warm_stats.systolic_disk_hits, 0);
  EXPECT_FALSE(warm_store.dirty());
  std::remove(path.c_str());
}

TEST(CacheStore, CorruptShardEntryMissesOnlyThatKey) {
  const std::string dir = test_cache_dir("shard_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(a);
    eval.step(b);
    ASSERT_TRUE(store.save());
  }
  // Truncate one per-entry file mid-token. The sharded layout must degrade
  // per key: the mangled entry misses (and is recomputed), every other
  // entry still loads warm — no single bad byte cold-starts the store.
  {
    const std::string victim = path + ".d/step/";
    std::size_t mangled = 0;
    for (const auto& entry : std::filesystem::directory_iterator(victim)) {
      std::filesystem::resize_file(entry.path(), 24);
      ++mangled;
      break;
    }
    ASSERT_EQ(mangled, 1u);
  }
  CacheStore store(path);
  sim::StepResult out_a, out_b;
  const bool a_ok = store.load_step(a.cache_key(), &out_a);
  const bool b_ok = store.load_step(b.cache_key(), &out_b);
  // Exactly one of the two entries was truncated; the other must survive.
  EXPECT_NE(a_ok, b_ok);
  std::filesystem::remove_all(path + ".d");
  std::remove(path.c_str());
}

TEST(CacheStore, BadChecksumEntryIsQuarantinedAndMissesOnlyThatKey) {
  const std::string dir = test_cache_dir("cks_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(a);
    eval.step(b);
    ASSERT_TRUE(store.save());
  }
  // Flip one byte deep inside a record body: the length prefix still
  // parses, the tokens may even still parse — only the checksum can catch
  // this. The damaged entry must miss AND be quarantined, not deleted.
  std::string victim;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step")) {
    victim = entry.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string bytes = text.str();
    ASSERT_GT(bytes.size(), 60u);
    bytes[bytes.size() - 20] ^= 0x01;
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
  }
  CacheStore store(path);
  sim::StepResult out_a, out_b;
  const bool a_ok = store.load_step(a.cache_key(), &out_a);
  const bool b_ok = store.load_step(b.cache_key(), &out_b);
  EXPECT_NE(a_ok, b_ok);  // exactly the damaged key misses
  EXPECT_EQ(store.corrupt_entries(), 1u);
  EXPECT_FALSE(std::filesystem::exists(victim));  // moved, not left behind
  std::size_t quarantined = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/quarantine"))
    if (entry.is_regular_file()) ++quarantined;
  EXPECT_EQ(quarantined, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, WrongStageHeaderIsQuarantined) {
  const std::string dir = test_cache_dir("stage_corrupt");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    evaluate_scenario(s, eval);  // warms every stage incl. traffic
    ASSERT_TRUE(store.save());
  }
  // Cross-wire the tiers: drop a step-stage record where a traffic-stage
  // record should be (a misdirected rename / cosmic rename target). The
  // stage token in the header disagrees with the directory — quarantine,
  // never deserialize a step body as traffic.
  std::string step_rec;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step")) {
    step_rec = entry.path().string();
    break;
  }
  ASSERT_FALSE(step_rec.empty());
  std::string traffic_rec;
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/traffic")) {
    traffic_rec = entry.path().string();
    break;
  }
  ASSERT_FALSE(traffic_rec.empty());
  std::filesystem::copy_file(
      step_rec, traffic_rec,
      std::filesystem::copy_options::overwrite_existing);

  CacheStore store(path);
  sched::Traffic out;
  EXPECT_FALSE(store.load_traffic(s.schedule_key(), &out));
  EXPECT_EQ(store.corrupt_entries(), 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".d/quarantine"));
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, ZeroLengthShardFileMissesCleanly) {
  const std::string dir = test_cache_dir("zero_len");
  const std::string path = dir + "/evaluator.mbscache";

  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.step(s);
    ASSERT_TRUE(store.save());
  }
  // A crash between open and first write leaves a zero-length file (the
  // one layout the tmp+rename discipline cannot rule out under torn-write
  // injection). It must read as a clean miss and recompute warm.
  for (const auto& entry :
       std::filesystem::directory_iterator(path + ".d/step"))
    std::filesystem::resize_file(entry.path(), 0);

  CacheStore store(path);
  Evaluator eval(&store);
  const sim::StepResult recomputed = eval.step(s);
  EXPECT_GT(recomputed.time_s, 0.0);
  EXPECT_EQ(eval.stats().step_disk_hits, 0);
  EXPECT_EQ(eval.stats().step_misses, 1);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, HugeLayerCountIsQuarantinedNotAllocated) {
  const std::string dir = test_cache_dir("huge_count");
  const std::string path = dir + "/evaluator.mbscache";
  std::filesystem::remove_all(dir);

  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(path);
    Evaluator eval(&store);
    eval.network(s);
    ASSERT_TRUE(store.save());
  }
  const std::vector<std::string> files = shard_entry_files(path);
  ASSERT_EQ(files.size(), 1u);
  ShardEntry e = read_shard_entry(files[0]);
  ASSERT_EQ(e.stage, "net");
  // A checksum-valid network record whose one branch claims 4e18 layers.
  // The count must not size an allocation: the reader stops at the first
  // missing layer and the entry is quarantined as a parse failure.
  util::serde::Writer body;
  body.put_string("alexnet");
  for (int v : {3, 227, 227, 32}) body.put_int(v);  // input, mini-batch
  body.put_int(1);  // blocks
  body.put_int(0);  // block kind
  body.put_string("b0");
  for (int v : {3, 227, 227, 3, 227, 227}) body.put_int(v);  // in, out
  body.put_int(1);                    // branches
  body.put_int(4000000000000000000);  // the branch's layer count
  write_shard_entry(files[0], e, body.str());

  CacheStore store(path);
  core::Network out;
  EXPECT_FALSE(store.load_network(e.key, &out));
  EXPECT_EQ(store.corrupt_entries(), 1u);
  EXPECT_TRUE(shard_entry_files(path).empty());  // moved to quarantine
  std::filesystem::remove_all(dir);
}

/// Loads `key` from `from` through the stage's load_* call; on a hit, puts
/// the value into `to` when one is given.
template <typename T>
bool load_and_copy(CacheStore& from, CacheStore* to, const std::string& key,
                   bool (CacheStore::*load)(const std::string&, T*),
                   void (CacheStore::*put)(const std::string&, const T&)) {
  T v;
  if (!(from.*load)(key, &v)) return false;
  if (to) (to->*put)(key, v);
  return true;
}

bool load_stage(const std::string& stage, CacheStore& from,
                const std::string& key, CacheStore* to = nullptr) {
  if (stage == "net")
    return load_and_copy(from, to, key, &CacheStore::load_network,
                         &CacheStore::put_network);
  if (stage == "sched")
    return load_and_copy(from, to, key, &CacheStore::load_schedule,
                         &CacheStore::put_schedule);
  if (stage == "traffic")
    return load_and_copy(from, to, key, &CacheStore::load_traffic,
                         &CacheStore::put_traffic);
  if (stage == "step")
    return load_and_copy(from, to, key, &CacheStore::load_step,
                         &CacheStore::put_step);
  if (stage == "gpu")
    return load_and_copy(from, to, key, &CacheStore::load_gpu_step,
                         &CacheStore::put_gpu_step);
  EXPECT_EQ(stage, "sys");
  return load_and_copy(from, to, key, &CacheStore::load_systolic_step,
                       &CacheStore::put_systolic_step);
}

/// One deterministic mutation of a record body: a bit flip, a truncation,
/// or a digit run (up to 20 digits, so past int64) spliced over an
/// integer token such as a count field.
std::string mutate_body(const std::string& body, util::Rng& rng) {
  std::string out = body;
  switch (rng.uniform_int(3)) {
    case 0:
      out[rng.uniform_int(out.size())] ^=
          static_cast<char>(1u << rng.uniform_int(8));
      break;
    case 1:
      out.resize(rng.uniform_int(out.size()));
      break;
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> ints;  // [at, end)
      for (std::size_t at = 0; at < out.size();) {
        const std::size_t end = std::min(out.find(' ', at), out.size());
        const std::size_t from = at + (out[at] == '-' ? 1 : 0);
        if (from < end && out.find_first_not_of("0123456789", from) >= end)
          ints.emplace_back(at, end);
        at = end + 1;
      }
      if (ints.empty()) break;
      const auto [at, end] = ints[rng.uniform_int(ints.size())];
      std::string digits(1 + rng.uniform_int(20), '0');
      for (char& c : digits) c = static_cast<char>('0' + rng.uniform_int(10));
      out.replace(at, end - at, digits);
    }
  }
  return out;
}

TEST(CacheStore, MutatedShardEntriesLoadOrQuarantineWithoutCrashing) {
  const std::string dir = test_cache_dir("mutate");
  const std::string path = dir + "/evaluator.mbscache";
  const std::string copy_path = dir + "/copy.mbscache";
  std::filesystem::remove_all(dir);

  // One entry per stage: the analytic scenario writes net, sched, traffic
  // and step; the GPU and systolic devices add gpu and sys.
  {
    CacheStore store(path);
    Evaluator eval(&store);
    Scenario s = mbs2_scenario("alexnet");
    for (const Device d : {Device::kWaveCore, Device::kGpu, Device::kSystolic}) {
      s.device = d;
      evaluate_scenario(s, eval);
    }
    ASSERT_TRUE(store.save());
  }
  std::map<std::string, std::string> by_stage;  // stage -> first file
  for (const std::string& file : shard_entry_files(path))
    by_stage.emplace(read_shard_entry(file).stage, file);
  ASSERT_EQ(by_stage.size(), 6u);

  // Unmutated entries round-trip write -> read -> write byte-identically.
  {
    CacheStore from(path);
    CacheStore to(copy_path);
    for (const auto& [stage, file] : by_stage) {
      const ShardEntry e = read_shard_entry(file);
      ASSERT_TRUE(load_stage(stage, from, e.key, &to)) << stage;
    }
    ASSERT_TRUE(to.save());
    for (const auto& [stage, file] : by_stage) {
      const std::string copy =
          copy_path + ".d" + file.substr(path.size() + 2);
      EXPECT_EQ(read_bytes(copy), read_bytes(file)) << stage;
    }
  }

  // Mutated, re-checksummed bodies: every load returns, and an entry that
  // does not parse is quarantined rather than served or left in place.
  util::Rng rng(42);
  constexpr int kMutationsPerStage = 150;
  for (const auto& [stage, file] : by_stage) {
    const ShardEntry e = read_shard_entry(file);
    int quarantined = 0;
    for (int i = 0; i < kMutationsPerStage; ++i) {
      write_shard_entry(file, e, mutate_body(e.body, rng));
      CacheStore store(path);
      const bool hit = load_stage(stage, store, e.key);
      EXPECT_EQ(store.corrupt_entries(), hit ? 0u : 1u) << stage << " " << i;
      quarantined += hit ? 0 : 1;
    }
    EXPECT_GT(quarantined, 0) << stage;
    write_shard_entry(file, e, e.body);
  }
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, OverlappingWritersLastRenameWinsCleanly) {
  const std::string dir = test_cache_dir("overlap");
  const std::string path = dir + "/evaluator.mbscache";

  // Two workers race to save the SAME key (both computed it before either
  // flushed — the common spool interleaving). Each write is tmp+rename,
  // so whichever rename lands last must leave a complete, loadable record
  // — never a spliced one.
  const Scenario s = mbs2_scenario("alexnet");
  sim::StepResult ref;
  {
    CacheStore store_a(path);
    CacheStore store_b(path);
    Evaluator eval_a(&store_a);
    Evaluator eval_b(&store_b);
    ref = eval_a.step(s);
    const sim::StepResult dup = eval_b.step(s);
    ASSERT_TRUE(step_equal(dup, ref));
    ASSERT_TRUE(store_a.save());
    ASSERT_TRUE(store_b.save());
  }
  CacheStore reader(path);
  sim::StepResult out;
  ASSERT_TRUE(reader.load_step(s.cache_key(), &out));
  EXPECT_TRUE(step_equal(out, ref));
  EXPECT_EQ(reader.corrupt_entries(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStore, TwoStoresOverOnePathShareEntriesThroughShardDir) {
  const std::string dir = test_cache_dir("shared");
  const std::string path = dir + "/evaluator.mbscache";

  // Two store instances over one path — the in-process stand-in for two
  // spool workers flushing to one shared store. Each computes a disjoint
  // slice and saves; a third reader sees the union, warm.
  const Scenario a = mbs2_scenario("alexnet");
  const Scenario b = mbs2_scenario("resnet50");
  sim::StepResult ref_a, ref_b;
  {
    CacheStore store_a(path);
    CacheStore store_b(path);
    Evaluator eval_a(&store_a);
    Evaluator eval_b(&store_b);
    ref_a = eval_a.step(a);
    ref_b = eval_b.step(b);
    ASSERT_TRUE(store_a.save());
    ASSERT_TRUE(store_b.save());
  }
  CacheStore reader(path);
  sim::StepResult out_a, out_b;
  ASSERT_TRUE(reader.load_step(a.cache_key(), &out_a));
  ASSERT_TRUE(reader.load_step(b.cache_key(), &out_b));
  EXPECT_TRUE(step_equal(out_a, ref_a));
  EXPECT_TRUE(step_equal(out_b, ref_b));
  std::filesystem::remove_all(path + ".d");
}

TEST(Sharding, MixedBackendGridMergesByteIdenticallyToUnsharded) {
  // The backend_compare bench shards its mixed analytic/cycle grid across
  // CI jobs and merges the per-shard exports; this is the in-process
  // version of that byte-identity contract.
  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "resnet50", "vit_small"})
    for (int dev = 0; dev < 2; ++dev) {
      Scenario s = mbs2_scenario(net);
      if (dev == 1) s.device = Device::kSystolic;
      grid.push_back(s);
    }
  Evaluator eval;
  const auto full = SweepRunner().run(grid, eval);

  const auto cells = [](const ScenarioResult& r) {
    return std::vector<std::string>{
        r.scenario.network, to_string(r.scenario.device),
        std::to_string(r.step.time_s), std::to_string(r.step.dram_bytes),
        std::to_string(r.systolic.stats.stall_cycles)};
  };
  ResultSink reference("backend compare: sharding test",
                       {"network", "device", "time", "dram", "stalls"});
  for (const ScenarioResult& r : full) reference.add_row(cells(r));
  std::ostringstream ref_csv;
  reference.write_csv(ref_csv);

  for (int count : {2, 3}) {
    std::vector<ResultSink::Parsed> shards;
    for (int index = 0; index < count; ++index) {
      const ShardPlan plan{index, count};
      Evaluator shard_eval;
      const SweepResults results =
          SweepRunner().run_sharded(grid, shard_eval, plan);
      ResultSink sink("backend compare: sharding test",
                      {"network", "device", "time", "dram", "stalls"});
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!plan.owns(i)) continue;
        sink.add_row(cells(results[i]));
      }
      std::ostringstream csv;
      sink.write_csv(csv);
      shards.push_back(ResultSink::parse_csv(csv.str()));
    }
    const ResultSink::Parsed merged = ResultSink::merge_shards(shards);
    ResultSink merged_sink("", merged.headers);
    for (const auto& row : merged.rows) merged_sink.add_row(row);
    std::ostringstream csv;
    merged_sink.write_csv(csv);
    EXPECT_EQ(csv.str(), ref_csv.str()) << count << " shards";
  }
}

TEST(Sharding, MergeRejectsInconsistentShardSets) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ResultSink::Parsed a, b;
  a.headers = b.headers = {"x"};
  a.rows = {{"0"}, {"2"}, {"4"}};  // three rows: shard 0 of 2
  b.rows = {{"1"}};                // too few for round-robin consistency
  EXPECT_DEATH(ResultSink::merge_shards({a, b}), "round-robin");
  ResultSink::Parsed c = a;
  c.headers = {"y"};
  EXPECT_DEATH(ResultSink::merge_shards({a, c}), "headers disagree");
}

}  // namespace
}  // namespace mbs::engine
