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
// On-disk layout: each save() writes one immutable pack per stage it
// touched,
//
//   <path>.d/<stage>/<h = fnv1a64(pack bytes) as 16 hex digits>.pack
//
// streamed to a temp file and renamed into place. A pack is a header
// (magic, format version, schema stamp, stage, record count) and its
// records in key order, each the key, an fnv1a64 checksum and the
// length-prefixed record body. Naming by content means equal entries make
// equal packs at every thread budget, and two processes that save the same
// entries rename onto the same name harmlessly; any number of processes can
// share one warm cache directory. save() is incremental: only entries added
// since the last save are written. Nothing is ever written to `<path>`
// itself; it only names the pack directory.
//
// Lookups stay lazy. The first memory miss in a stage lists that stage's
// directory and indexes every pack in one sequential pass that skips the
// record bodies by their length prefixes; a later miss whose key is not in
// the index lists the directory again and opens only packs it has not seen,
// so a handle picks up packs other processes saved after its first miss.
// Packs a handle wrote itself are registered as seen when written. A hit
// reads one record body, verifies its checksum and parses it.
//
// save() collects pointers to the dirty values under the lock and
// serializes them outside it: map nodes never move and a stored value is
// never mutated. The dirty list is cut into chunks of at most 64 entries
// or about 32 KB; a large save serializes them on up to thread_budget()
// short-lived lanes, at most two chunks per lane ahead of the one thread
// that appends them in order to the stage's pack, so a pack is never held
// whole in memory. The
// `cache.pack.write` fault decisions are taken serially, once per pack
// attempt in stage order, so a fault spec hits the same pack at every
// thread budget.
//
// Every pack header carries a format version and a schema stamp covering
// every serialized struct. Exactly one stamp is accepted: a pack under any
// other stamp reads as a plain miss and is left in place, and the
// recomputed values go to a new pack on the next save(). The store is a
// cache, never a source of truth, so a cold recompute is always correct.
//
// The per-record checksum catches a torn write (a crash or injected fault
// that leaves a truncated file behind) on load rather than trusting it. A
// pack whose header or structure fails validation, or any record of which
// fails its checksum or parse, is moved whole to
// `<shard_dir>/quarantine/<stage>.<h>.pack`, never re-read, and its keys
// read as misses. All filesystem mutations route through util::fs, whose
// named fault sites (MBS_FAULTS) make these failure paths deterministically
// testable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arch/gpu.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"
#include "sim/simulator.h"

namespace mbs::engine {

class CacheStore {
 public:
  /// Bumped when the token framing of a store file itself changes.
  /// 2: one pack per stage per save instead of one file per entry.
  static constexpr int kFormatVersion = 2;
  /// Bumped (per stage) when a serialized struct gains/loses fields.
  /// net2: attention layers append a `heads` field (real-attention rework;
  ///       every other layer kind keeps the net1 byte layout).
  /// sched2: Group gained the `members` list (non-contiguous grouping).
  /// sys1: the cycle-level systolic-step stage joined the store.
  /// traffic2: traffic is the per-layer summary (record count, DRAM and
  ///       buffer totals, per-class, per-block and per-layer sums), not
  ///       the record list.
  /// svc2: records carry an fnv1a64 checksum over a length-prefixed
  ///       body, so torn writes are detected on load (record layouts
  ///       themselves unchanged).
  static constexpr const char* kSchemaStamp =
      "net2;sched2;traffic2;step1;gpu1;sys1;svc2";
  /// Stages, in pack-write order: net, sched, traffic, step, gpu, sys.
  static constexpr int kStages = 6;

  explicit CacheStore(std::string path);

  /// Store at $MBS_CACHE_DIR/evaluator.mbscache, or nullptr when the
  /// variable is unset or empty.
  static std::unique_ptr<CacheStore> from_env();

  // Lookups copy the stored value into `out` and return true on a hit.
  // In-memory misses fall through to the stage's packs. All methods are
  // thread-safe.
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

  /// Writes every entry added since the last save, one pack per stage
  /// (temp file + atomic rename; creates directories as needed),
  /// serializing on several threads when there are at least two grains of
  /// entries and the caller is not already in a parallel region. A failed
  /// pack write is retried up to MBS_CACHE_SAVE_RETRIES times (real write
  /// errors after a linear MBS_CACHE_RETRY_MS backoff) before its entries
  /// are left dirty for the next save(). Returns false if any pack failed
  /// after retries, true otherwise (including the nothing-to-do case). Safe
  /// to call from many processes sharing one cache directory: equal entries
  /// write identical packs.
  bool save();

  const std::string& path() const { return path_; }
  /// Directory holding the per-stage pack directories.
  std::string shard_dir() const { return path_ + ".d"; }
  /// Entries read from packs so far.
  std::size_t loaded_entries() const;
  /// Current total entries across all stages (in memory).
  std::size_t entry_count() const;
  /// True when save() has something new to write.
  bool dirty() const;
  /// Cumulative count of pack writes that failed after retries (disk full,
  /// unwritable directory, ...). Surfaced by the Driver as a warning + stat.
  std::size_t save_failures() const;
  /// Cumulative count of packs that failed validation on load (torn write,
  /// bad checksum, wrong stage, parse failure) and were moved to
  /// `<shard_dir>/quarantine/`. Each affected lookup reads as a miss and
  /// the value is recomputed; ServeCore surfaces the delta per query as
  /// the `degraded` stat.
  std::size_t corrupt_entries() const;

 private:
  /// Where one record of a scanned pack sits.
  struct RecordLoc {
    std::uint64_t pack;  ///< the pack's content hash, which names it
    std::uint64_t offset, length;
    std::uint64_t sum;  ///< the record's fnv1a64 body checksum
  };
  /// What this handle knows of one stage's packs on disk.
  struct StageDisk {
    /// Content hashes of the packs scanned or written, so a rescan opens
    /// only new ones.
    std::unordered_set<std::uint64_t> seen;
    std::unordered_map<std::string, RecordLoc> records;
  };

  /// `<shard_dir>/<stage>/<pack as 16 hex digits>.pack`.
  std::string pack_file(int stage, std::uint64_t pack) const;
  /// Reads `key`'s record body from the stage's packs into *body and names
  /// its pack in *pack, listing the stage directory for unseen packs when
  /// the key is not indexed. A body that fails its checksum quarantines the
  /// pack. Callers hold mu_.
  bool read_record(int stage, const std::string& key, std::string* body,
                   std::uint64_t* pack);
  /// Indexes the packs of `stage` this handle has not seen yet.
  void rescan(int stage);
  /// Moves a pack that failed validation out of the stage directory so it
  /// is never re-read, and drops its records from the index.
  void quarantine_pack(int stage, std::uint64_t pack);

  std::string path_;

  using DirtySet = std::set<std::pair<int, std::string>>;

  /// Held for a whole save(), so saves never overlap.
  std::mutex save_mu_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, core::Network> networks_;
  std::unordered_map<std::string, sched::Schedule> schedules_;
  std::unordered_map<std::string, sched::Traffic> traffics_;
  std::unordered_map<std::string, sim::StepResult> steps_;
  std::unordered_map<std::string, arch::GpuStepResult> gpu_steps_;
  std::unordered_map<std::string, arch::SystolicStepResult> systolic_steps_;
  StageDisk disk_[kStages];
  /// (stage, key) pairs not yet persisted; ordered so save() writes each
  /// stage's records in key order and takes its fault decisions
  /// deterministically.
  DirtySet dirty_;
  std::size_t loaded_ = 0;
  std::size_t save_failures_ = 0;
  std::size_t corrupt_entries_ = 0;
};

}  // namespace mbs::engine
