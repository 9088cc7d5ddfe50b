// The benchmark's workloads and the pieces they share.
//
// Every workload drives the library through its public API only. A run is
// a series of rounds; each round builds fresh state (setup, timed as
// setup_s), runs the timed phase, and checks its outputs untimed. A traced
// run adds attribute(): direct calls into each module's public functions on
// the same inputs, inside spans, plus the counters of the round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  std::string tmp_dir;   ///< scratch root for stores; the caller removes it
  std::string data_dir;  ///< recorded expected outputs (perfbench/expected)
};

/// Per-layer metrics of a traced run, by name.
using LayerMetrics = std::map<std::string, double>;

/// Output checks: every operation a run attempted, and how many of them
/// belong to a failed check.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void check(bool ok, std::int64_t ops, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one operation is, for the human-readable lines ("scenarios").
  virtual const char* op_name() const = 0;
  /// Builds fresh state for one round, dropping the previous round's. It
  /// may run several times per round, so it draws nothing from the seed.
  virtual void setup() = 0;
  struct Timed {
    std::int64_t ops = 0;  ///< operations completed
    double seconds = 0;    ///< wall time
    double cpu_s = 0;      ///< process CPU time
  };
  /// The timed phase. It draws the round's inputs from the seed first and
  /// leaves that out of the time.
  virtual Timed run() = 0;
  /// Checks the last run's outputs.
  virtual void check(Tally& tally) = 0;
  /// Traced runs: direct module calls on the last run's inputs (their
  /// results are checked too), and the counters of the last run.
  virtual void attribute(LayerMetrics& m, Tally& tally) = 0;
  /// Removes the round's on-disk state.
  virtual void teardown() {}
  /// Human-readable lines printed with the result.
  virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> make_cold_sweep(const Options& o);
std::unique_ptr<Workload> make_hw_sweep(const Options& o);
std::unique_ptr<Workload> make_serve(const Options& o);
std::unique_ptr<Workload> make_train(const Options& o);

// ---------------------------------------------------------------------------
// Shared by the sweep and serve workloads (pipeline.cc)
// ---------------------------------------------------------------------------

/// One line per answer: the scenario's full key and its
/// ServeCore::format_answer rendering.
std::string answer_line(const mbs::engine::Scenario& s,
                        const mbs::engine::ScenarioResult& r);

/// Digest of the answers of `results` (order-independent).
std::string digest_of(const std::vector<mbs::engine::ScenarioResult>& results);

/// The value recorded under `key` in <data_dir>/<file> ("key value" lines),
/// or "" when absent.
std::string read_expected(const Options& o, const std::string& file,
                          const std::string& key);

/// Where attribute_pipeline takes a scenario's schedule and traffic from.
enum class StageInputs {
  kCompute,    ///< call sched::build_schedule / compute_traffic directly
  kEvaluator,  ///< read them from an evaluator that already holds them
};

/// Evaluates `grid` by calling models::make_network, sched::*, sim::* and
/// arch::* directly, each call in a span named after the function (the
/// schedule spans carry the grouping: .greedy, .dp, .noncontig). Every
/// WaveCore point also runs a standalone sched::compute_traffic on its
/// inputs ("sched.compute_traffic.in_step"): the traffic simulate_step
/// recomputes internally. Returns the digest of the results, which must
/// equal the evaluator's.
std::string attribute_pipeline(const std::vector<mbs::engine::Scenario>& grid,
                               int threads, StageInputs inputs,
                               mbs::engine::Evaluator* eval);

/// engine.evaluator.<stage>.{computed,disk_hits} from an evaluator.
void add_evaluator_metrics(const mbs::engine::EvaluatorStats& st,
                           LayerMetrics& m);

}  // namespace perfbench
