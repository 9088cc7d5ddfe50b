// Driver: the shared command-line front end of every bench and example.
//
// One object owns the engine plumbing a sweep binary needs — shard plan,
// disk cache store, evaluator, thread pool — and parses the flags/env vars
// that configure them, so the 18 mains stay declarative (grid + rows) and
// pick up new engine features without per-binary changes.
//
// Flags (all optional; unrecognized arguments stay available via args()
// for binaries with positional parameters):
//   --shard=I/N | --shard-index=I --shard-count=N
//       run shard I of N (env: MBS_SHARD=I/N). Benches gate their output
//       rows with shard().owns(row); ResultSink exports gain a
//       ".shardIofN" infix and merge byte-identically via merge_results.
//   --threads=T     sweep worker threads (env: MBS_THREADS; 0 = hardware)
//   --cache-dir=D   persist the evaluator cache under D
//                   (env: MBS_CACHE_DIR); repeated runs start warm
//   --spool-dir=D   drain sweeps through a work-queue spool rooted at D
//                   (env: MBS_SPOOL_DIR): concurrent worker processes
//                   sharing D claim schedule-key groups dynamically and
//                   share results through the cache store (defaulted to
//                   D/cache when no --cache-dir/MBS_CACHE_DIR is given),
//                   each producing byte-identical full output. See
//                   engine/spool.h.
//
// Env only:
//   MBS_RESULT_DIR    ResultSink CSV/JSON export directory
//   MBS_ENGINE_STATS  =1: print per-stage computed/disk-loaded counts and
//                     cache-store activity to stderr at exit
//   MBS_NO_SCHEDULE_GROUPS  =1: disable SweepRunner's schedule-group
//                     batching (A/B timing; output is byte-identical)
//
// The destructor saves the cache store, so a bench persists whatever it
// computed for the next (warm) run.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/cache_store.h"
#include "engine/evaluator.h"
#include "engine/result_sink.h"
#include "engine/sweep_runner.h"

namespace mbs::engine {

class Driver {
 public:
  /// Parses flags and environment; aborts with a usage message on a
  /// malformed flag value.
  Driver(int argc, char** argv);
  ~Driver();

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  const ShardPlan& shard() const { return shard_; }
  Evaluator& evaluator() { return *eval_; }
  /// The disk cache store (nullptr when neither --cache-dir, MBS_CACHE_DIR,
  /// nor a spool directory is configured).
  CacheStore* store() { return store_.get(); }
  const SweepRunner& runner() const { return runner_; }
  /// Positional arguments, in order (flags stripped).
  const std::vector<std::string>& args() const { return args_; }

  /// Sharded sweep over this driver's evaluator and pool: scenarios the
  /// shard owns are evaluated eagerly in parallel, the rest materialize
  /// lazily on access (see SweepResults).
  SweepResults run(const std::vector<Scenario>& grid);

  /// As run(), for benches whose output rows aggregate several scenarios:
  /// `needed(i)` says whether scenario i feeds a row this shard owns and
  /// should therefore be evaluated eagerly.
  SweepResults run(const std::vector<Scenario>& grid,
                   const std::function<bool(std::size_t)>& needed);

 private:
  ShardPlan shard_;
  std::unique_ptr<CacheStore> store_;
  std::unique_ptr<Evaluator> eval_;
  SweepRunner runner_;
  std::vector<std::string> args_;
};

/// Adds `rows` to `sink`, keeping the ones `plan` owns (ordinal = position
/// in `rows`). The row-gating idiom for fixed tables whose contents don't
/// come out of a results loop.
inline void add_rows(ResultSink& sink, const ShardPlan& plan,
                     std::vector<std::vector<std::string>> rows) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (plan.owns(i)) sink.add_row(std::move(rows[i]));
}

}  // namespace mbs::engine
