// serve: one closed-loop client sends a seeded Zipf-skewed stream of
// Scenario specs to a ServeCore over a pre-warmed CacheStore.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "engine/cache_store.h"
#include "engine/serve.h"
#include "models/zoo.h"
#include "workloads.h"

namespace perfbench {

using namespace mbs;

namespace {

// Queries per round; at the hot capacity below, about half the stream
// misses the LRU and reads the store.
constexpr std::int64_t kQueriesPerRound = 100000;
constexpr std::size_t kHotCapacity = 64;
// Share of queries for a key no earlier query asked: computed and written
// through.
constexpr double kColdShare = 0.01;
constexpr double kZipfExponent = 1.0;

/// The warm key population (pre-warmed into the store in setup): every
/// zoo network x the six configs x two buffer sizes, at four depths and on
/// both simulators, plus GPU points.
std::vector<std::string> population() {
  std::vector<std::string> specs;
  for (const std::string& net : models::all_network_names()) {
    for (sched::ExecConfig cfg : sched::paper_tab3_configs())
      for (int mib : {8, 16}) {
        const std::string base = "net=" + net + ";cfg=" + sched::to_string(cfg) +
                                 ";buf=" + std::to_string(mib << 20);
        specs.push_back(base);
        specs.push_back(base + ";nobw=1");
        specs.push_back(base + ";stage=schedule");
        specs.push_back(base + ";stage=traffic");
        for (const char* df : {"os", "ws", "is"})
          for (int spad_kib : {256, 1024})
            specs.push_back(base + ";dev=systolic;df=" + df +
                            ";spad=" + std::to_string(spad_kib << 10));
      }
    for (int gmb : {16, 32, 64, 128, 256})
      specs.push_back("net=" + net + ";dev=gpu;gmb=" + std::to_string(gmb));
  }
  return specs;
}

engine::Scenario parse_or_die(const std::string& spec) {
  engine::Scenario s;
  std::string error;
  if (!engine::parse_scenario(spec, &s, &error)) {
    std::fprintf(stderr, "perfbench: bad generated spec '%s': %s\n",
                 spec.c_str(), error.c_str());
    std::exit(2);
  }
  return s;
}

struct Query {
  std::int64_t warm = -1;  ///< population index, or -1 for a cold key
  std::string cold_spec;
};

class Serve : public Workload {
 public:
  explicit Serve(const Options& o) : o_(o), rng_(o.seed), specs_(population()) {
    for (const std::string& spec : specs_) scenarios_.push_back(parse_or_die(spec));
    // Schedule keys a cold key may reuse (the ones the store holds).
    for (const engine::Scenario& s : scenarios_)
      if (s.device == engine::Device::kWaveCore && !s.hw.unlimited_dram_bw &&
          s.stage == engine::Stage::kSimulate)
        cold_bases_.push_back(&s - scenarios_.data());
    // Zipf over a seeded ranking of the population.
    rank_.resize(specs_.size());
    for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = i;
    shuffle(rank_, rng_);
    double sum = 0;
    for (std::size_t k = 0; k < rank_.size(); ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
    // Expected answers from an independent, store-less batch evaluator.
    engine::SweepOptions so;
    so.threads = o_.threads;
    for (const engine::ScenarioResult& r :
         engine::SweepRunner(so).run(scenarios_, ref_))
      expected_.push_back(engine::ServeCore::format_answer(r.scenario, r));
  }

  const char* op_name() const override { return "queries"; }

  void setup() override {
    dir_ = o_.tmp_dir + "/serve" + std::to_string(++round_);
    store_ = std::make_unique<engine::CacheStore>(dir_ + "/evaluator.mbscache");
    engine::Evaluator warm(store_.get());
    engine::SweepOptions so;
    so.threads = o_.threads;
    {
      ScopedSpan span("engine.sweep_runner.run");
      engine::SweepRunner(so).run(scenarios_, warm);
    }
    {
      ScopedSpan span("engine.cache_store.save");
      store_->save();
    }
    warm_stats_ = warm.stats();
  }

  Timed run() override {
    trace_.clear();
    for (std::int64_t q = 0; q < kQueriesPerRound; ++q) trace_.push_back(next_query());
    engine::ServeCore core(store_.get(), kHotCapacity);
    for (auto& v : tier_us_) v.clear();
    mismatches_ = 0;
    cold_answers_.clear();
    const BusyClock clock;
    for (const Query& q : trace_) {
      const std::string& spec = q.warm >= 0 ? specs_[static_cast<std::size_t>(q.warm)]
                                            : q.cold_spec;
      ScopedSpan span("engine.serve.query");
      const std::int64_t t0 = now_ns();
      const engine::ServeCore::Answer a = core.query(spec);
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      tier_us_[static_cast<int>(a.source)].push_back(us);
      if (q.warm < 0)
        cold_answers_.push_back(a.ok ? a.text : "");
      else if (!a.ok || a.text != expected_[static_cast<std::size_t>(q.warm)])
        ++mismatches_;
    }
    const Timed timed{static_cast<std::int64_t>(trace_.size()), clock.wall_s(),
                      clock.cpu_s()};
    busy_frac_ = clock.busy_frac(o_.threads);
    stats_ = core.stats();
    return timed;
  }

  void check(Tally& tally) override {
    // Cold answers against the reference evaluator (it computes them now).
    engine::SweepOptions so;
    so.threads = o_.threads;
    const std::vector<engine::ScenarioResult> ref =
        engine::SweepRunner(so).run(cold_scenarios(), ref_);
    std::int64_t bad = mismatches_;
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (cold_answers_[i] != engine::ServeCore::format_answer(ref[i].scenario, ref[i]))
        ++bad;
    tally.attempted += static_cast<std::int64_t>(trace_.size());
    tally.failed += bad;
    if (bad)
      tally.problems.push_back(std::to_string(bad) +
                               " served answers differ from the batch evaluator");
  }

  void attribute(LayerMetrics& m, Tally& tally) override;

  void teardown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::string> notes() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "serve: %zu warm keys, hot capacity %zu, cold share %.2f, "
                  "Zipf s=%.1f, closed loop with 1 client",
                  specs_.size(), kHotCapacity, kColdShare, kZipfExponent);
    return {buf};
  }

 private:
  Query next_query() {
    Query q;
    if (rng_.unit() < kColdShare) {
      // A key nobody asked before: a scratchpad size or GPU mini-batch
      // outside the population, on a schedule the store holds.
      const std::int64_t i = next_cold_++;
      const engine::Scenario& b =
          scenarios_[static_cast<std::size_t>(cold_bases_[rng_.below(cold_bases_.size())])];
      const std::string base = "net=" + b.network + ";cfg=" +
                               sched::to_string(b.config) + ";buf=" +
                               std::to_string(b.params.buffer_bytes);
      static const char* const kDataflows[] = {"os", "ws", "is"};
      q.cold_spec = i % 4 == 3
                        ? "net=" + b.network + ";dev=gpu;gmb=" + std::to_string(300 + i)
                        : base + ";dev=systolic;df=" + kDataflows[i % 3] +
                              ";spad=" + std::to_string((300 + i) * 4096);
      return q;
    }
    const auto k = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng_.unit()) - cdf_.begin());
    q.warm = static_cast<std::int64_t>(rank_[std::min(k, rank_.size() - 1)]);
    return q;
  }

  std::vector<engine::Scenario> cold_scenarios() const {
    std::vector<engine::Scenario> cold;
    for (const Query& q : trace_)
      if (q.warm < 0) cold.push_back(parse_or_die(q.cold_spec));
    return cold;
  }

  Options o_;
  Rng rng_;
  const std::vector<std::string> specs_;
  std::vector<engine::Scenario> scenarios_;
  std::vector<std::ptrdiff_t> cold_bases_;
  std::vector<std::size_t> rank_;
  std::vector<double> cdf_;
  engine::Evaluator ref_;
  std::vector<std::string> expected_;

  int round_ = 0;
  std::int64_t next_cold_ = 0;
  std::string dir_;
  std::unique_ptr<engine::CacheStore> store_;
  engine::EvaluatorStats warm_stats_;
  std::vector<Query> trace_;
  std::vector<double> tier_us_[4];  // by ServeCore::Source
  std::int64_t mismatches_ = 0;
  std::vector<std::string> cold_answers_;  ///< served, in trace order
  engine::ServeStats stats_;
  double busy_frac_ = 0;
};

void Serve::attribute(LayerMetrics& m, Tally& tally) {
  const char* tiers[] = {"hot", "store", "computed"};
  std::int64_t queries = 0;
  for (const auto& v : tier_us_) queries += static_cast<std::int64_t>(v.size());
  for (int t = 0; t < 3; ++t) {
    const std::string base = std::string("engine.serve.") + tiers[t];
    m[base + ".count"] = static_cast<double>(tier_us_[t].size());
    m[base + ".p50_us"] = percentile(tier_us_[t], 0.50).value_or(0);
    m[base + ".p99_us"] = percentile(tier_us_[t], 0.99).value_or(0);
  }
  m["engine.serve.hot_hit_ratio"] =
      static_cast<double>(stats_.hot_hits) / static_cast<double>(queries);
  m["engine.serve.errors"] = static_cast<double>(stats_.errors);
  m["engine.serve.degraded"] = static_cast<double>(stats_.degraded);
  m["engine.sweep_runner.busy_frac"] = busy_frac_;
  m["engine.cache_store.loaded_entries"] =
      static_cast<double>(store_->loaded_entries());
  m["engine.cache_store.corrupt_entries"] =
      static_cast<double>(store_->corrupt_entries());
  m["engine.cache_store.save_failures"] =
      static_cast<double>(store_->save_failures());
  add_evaluator_metrics(warm_stats_, m);

  // The parser and formatter the serve path runs per query.
  for (const std::string& spec : specs_) {
    engine::Scenario s;
    ScopedSpan span("engine.parse_scenario");
    engine::parse_scenario(spec, &s, nullptr);
  }
  engine::SweepOptions so;
  so.threads = o_.threads;
  for (const engine::ScenarioResult& r : engine::SweepRunner(so).run(scenarios_, ref_)) {
    ScopedSpan span("engine.format_answer");
    (void)engine::ServeCore::format_answer(r.scenario, r);
  }

  // Store reads, on a fresh handle so every lookup goes to disk.
  engine::CacheStore cold_store(store_->path());
  std::set<std::string> schedule_keys;
  for (const engine::Scenario& s : scenarios_) {
    if (s.device != engine::Device::kGpu && schedule_keys.insert(s.schedule_key()).second) {
      sched::Schedule sch;
      sched::Traffic tr;
      {
        ScopedSpan span("engine.cache_store.load_schedule");
        tally.check(cold_store.load_schedule(s.schedule_key(), &sch), 1,
                    "store lost a schedule");
      }
      ScopedSpan span("engine.cache_store.load_traffic");
      tally.check(cold_store.load_traffic(s.schedule_key(), &tr), 1,
                  "store lost a traffic record");
    }
    if (s.stage != engine::Stage::kSimulate) continue;
    if (s.device == engine::Device::kWaveCore) {
      sim::StepResult r;
      ScopedSpan span("engine.cache_store.load_step");
      tally.check(cold_store.load_step(s.cache_key(), &r), 1, "store lost a step");
    } else if (s.device == engine::Device::kSystolic) {
      arch::SystolicStepResult r;
      ScopedSpan span("engine.cache_store.load_systolic_step");
      tally.check(cold_store.load_systolic_step(s.cache_key(), &r), 1,
                  "store lost a systolic step");
    }
  }

  // The computed tier's module work: the cold keys' device steps, checked
  // against what the server answered for them.
  const std::vector<engine::Scenario> cold = cold_scenarios();
  Digest served;
  for (std::size_t i = 0; i < cold.size(); ++i)
    served.add(cold[i].cache_key() + "#stage=" +
               std::to_string(static_cast<int>(cold[i].stage)) + " " +
               cold_answers_[i]);
  tally.check(attribute_pipeline(cold, o_.threads, StageInputs::kEvaluator,
                                 &ref_) == served.hex(),
              static_cast<std::int64_t>(cold.size()),
              "direct module calls disagree with the served answers");
}

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& o) {
  return std::make_unique<Serve>(o);
}

}  // namespace perfbench
