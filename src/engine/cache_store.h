// CacheStore: disk persistence for the Evaluator's memoized results.
//
// The in-memory Evaluator caches die with the process, so every bench run
// and every CI trajectory invocation starts cold. A CacheStore serializes
// the memoized network / schedule / traffic / step / GPU-step /
// systolic-step values to disk, keyed by the same stable Scenario cache
// keys the in-memory caches use. The Evaluator consults the store on an
// in-memory miss and records fresh computations for the next save(), so a
// repeated sweep starts warm and produces bit-identical output (values
// round-trip exactly via util::serde's hex-float encoding).
//
// On-disk layout is content-addressed and sharded per entry: each record
// lives in its own file, fanned out by the first hex digit of its name as
// git fans out its object directories,
//
//   <path>.d/<stage>/<h[0]>/<h = fnv1a64(key) as 16 hex digits>.rec
//
// written via temp file + atomic rename. Because distinct keys land in
// distinct files (each file embeds its full key; a hash collision reads as
// a miss and recomputes) and equal keys always serialize to identical
// bytes, any number of processes can read and write one warm cache
// directory concurrently without clobbering each other. save() is
// incremental: only entries added since the last save touch disk. Nothing
// is ever written to `<path>` itself; it only names the shard directory.
//
// save() collects pointers to the dirty values under the lock and
// serializes them outside it: map nodes never move and a stored value is
// never mutated. A large save writes on up to thread_budget() short-lived
// threads; each lane owns the fan-out directories whose digit is its index
// modulo the lane count, so no two lanes contend on one directory's lock. The `cache.entry.write` fault decisions are taken
// serially in (stage, key) order first, so a fault spec hits the same
// entry at every thread budget, and the files written are the same bytes
// at the same paths.
//
// Every entry header carries a format version and a schema stamp covering
// every serialized struct. Exactly one stamp is accepted: an entry under
// any other stamp reads as a plain miss, is left in place, and is
// overwritten by the recomputed value on the next save(). The store is a
// cache, never a source of truth, so a cold recompute is always correct.
//
// Each shard entry also carries an fnv1a64 checksum over its
// length-prefixed record body, so a torn write (a crash or injected fault
// that leaves a truncated file behind) is detected on load rather than
// trusted. A file that fails validation is moved to
// `<shard_dir>/quarantine/` — never re-read, never able to wedge the
// store — and its key reads as a miss. All filesystem mutations route
// through util::fs, whose named fault sites (MBS_FAULTS) make these
// failure paths deterministically testable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "arch/gpu.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"
#include "sim/simulator.h"

namespace mbs::engine {

class CacheStore {
 public:
  /// Bumped when the token framing of a store file itself changes.
  static constexpr int kFormatVersion = 1;
  /// Bumped (per stage) when a serialized struct gains/loses fields.
  /// net2: attention layers append a `heads` field (real-attention rework;
  ///       every other layer kind keeps the net1 byte layout).
  /// sched2: Group gained the `members` list (non-contiguous grouping).
  /// sys1: the cycle-level systolic-step stage joined the store.
  /// traffic2: traffic is the per-layer summary (record count, DRAM and
  ///       buffer totals, per-class, per-block and per-layer sums), not
  ///       the record list.
  /// svc2: shard entries carry a per-record fnv1a64 checksum over a
  ///       length-prefixed body, so torn writes are detected on load
  ///       (record layouts themselves unchanged).
  static constexpr const char* kSchemaStamp =
      "net2;sched2;traffic2;step1;gpu1;sys1;svc2";

  explicit CacheStore(std::string path);

  /// Store at $MBS_CACHE_DIR/evaluator.mbscache, or nullptr when the
  /// variable is unset or empty.
  static std::unique_ptr<CacheStore> from_env();

  // Lookups copy the stored value into `out` and return true on a hit.
  // In-memory misses fall through to the per-entry shard files. All
  // methods are thread-safe.
  bool load_network(const std::string& key, core::Network* out);
  bool load_schedule(const std::string& key, sched::Schedule* out);
  bool load_traffic(const std::string& key, sched::Traffic* out);
  bool load_step(const std::string& key, sim::StepResult* out);
  bool load_gpu_step(const std::string& key, arch::GpuStepResult* out);
  bool load_systolic_step(const std::string& key,
                          arch::SystolicStepResult* out);

  void put_network(const std::string& key, const core::Network& v);
  void put_schedule(const std::string& key, const sched::Schedule& v);
  void put_traffic(const std::string& key, const sched::Traffic& v);
  void put_step(const std::string& key, const sim::StepResult& v);
  void put_gpu_step(const std::string& key, const arch::GpuStepResult& v);
  void put_systolic_step(const std::string& key,
                         const arch::SystolicStepResult& v);

  /// Writes every entry added since the last save to its own shard file
  /// (temp file + atomic rename; creates directories as needed), on
  /// several threads when there are at least two grains of entries and the
  /// caller is not already in a parallel region. A failed write is retried
  /// up to MBS_CACHE_SAVE_RETRIES times (real write errors after a linear
  /// MBS_CACHE_RETRY_MS backoff) before the entry is left dirty for the
  /// next save(). Returns false if any write failed after retries, true
  /// otherwise (including the nothing-to-do case). Safe to call from many
  /// processes sharing one cache directory: equal keys write identical
  /// bytes.
  bool save();

  const std::string& path() const { return path_; }
  /// Directory holding the per-entry shard files.
  std::string shard_dir() const { return path_ + ".d"; }
  /// Entries read from shard files so far.
  std::size_t loaded_entries() const;
  /// Current total entries across all stages (in memory).
  std::size_t entry_count() const;
  /// True when save() has something new to write.
  bool dirty() const;
  /// Cumulative count of entry writes that failed (disk full, unwritable
  /// directory, ...). Surfaced by the Driver as a warning + stat.
  std::size_t save_failures() const;
  /// Cumulative count of shard entry files that failed validation on load
  /// (torn write, bad checksum, wrong stage, parse failure) and were moved
  /// to `<shard_dir>/quarantine/`. Each such lookup reads as a miss and
  /// the value is recomputed; ServeCore surfaces the delta per query as
  /// the `degraded` stat.
  std::size_t corrupt_entries() const;

 private:
  std::string entry_file(const char* stage, const std::string& key) const;
  /// Moves a failed-validation entry file out of the shard tree so it is
  /// never re-read (callers hold mu_).
  void quarantine_entry(const char* stage, const std::string& key);

  std::string path_;

  using DirtySet = std::set<std::pair<std::string, std::string>>;

  /// Held for a whole save(), so saves never overlap.
  std::mutex save_mu_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, core::Network> networks_;
  std::unordered_map<std::string, sched::Schedule> schedules_;
  std::unordered_map<std::string, sched::Traffic> traffics_;
  std::unordered_map<std::string, sim::StepResult> steps_;
  std::unordered_map<std::string, arch::GpuStepResult> gpu_steps_;
  std::unordered_map<std::string, arch::SystolicStepResult> systolic_steps_;
  /// (stage tag, key) pairs not yet persisted; ordered so save() takes its
  /// fault decisions and reports failures deterministically.
  DirtySet dirty_;
  std::size_t loaded_ = 0;
  std::size_t save_failures_ = 0;
  std::size_t corrupt_entries_ = 0;
};

}  // namespace mbs::engine
