#include "engine/cache_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
#include "util/parallel.h"
#include "util/serde.h"

namespace mbs::engine {

namespace {

using util::serde::Reader;
using util::serde::Writer;

// ---- Per-struct serialization. Field order is part of kSchemaStamp: any
// ---- change here must bump the corresponding stage tag.

void write_shape(Writer& w, const core::FeatureShape& s) {
  w.put_int(s.c);
  w.put_int(s.h);
  w.put_int(s.w);
}

core::FeatureShape read_shape(Reader& r) {
  core::FeatureShape s;
  s.c = static_cast<int>(r.read_int());
  s.h = static_cast<int>(r.read_int());
  s.w = static_cast<int>(r.read_int());
  return s;
}

void write_layer(Writer& w, const core::Layer& l) {
  w.put_int(static_cast<int>(l.kind));
  w.put_string(l.name);
  write_shape(w, l.in);
  write_shape(w, l.out);
  w.put_int(l.kernel_h);
  w.put_int(l.kernel_w);
  w.put_int(l.stride);
  w.put_int(l.pad_h);
  w.put_int(l.pad_w);
  w.put_int(static_cast<int>(l.pool_kind));
  w.put_int(static_cast<int>(l.norm_kind));
  w.put_int(l.has_bias ? 1 : 0);
  // net2: attention layers append their head count; every other kind keeps
  // the net1 byte layout, so CNN records round-trip unchanged.
  if (l.kind == core::LayerKind::kAttention) w.put_int(l.heads);
}

core::Layer read_layer(Reader& r) {
  core::Layer l;
  l.kind = static_cast<core::LayerKind>(r.read_int());
  l.name = r.read_string();
  l.in = read_shape(r);
  l.out = read_shape(r);
  l.kernel_h = static_cast<int>(r.read_int());
  l.kernel_w = static_cast<int>(r.read_int());
  l.stride = static_cast<int>(r.read_int());
  l.pad_h = static_cast<int>(r.read_int());
  l.pad_w = static_cast<int>(r.read_int());
  l.pool_kind = static_cast<core::PoolKind>(r.read_int());
  l.norm_kind = static_cast<core::NormKind>(r.read_int());
  l.has_bias = r.read_int() != 0;
  if (l.kind == core::LayerKind::kAttention)
    l.heads = static_cast<int>(r.read_int());
  return l;
}

void write_layers(Writer& w, const std::vector<core::Layer>& layers) {
  w.put_int(static_cast<std::int64_t>(layers.size()));
  for (const core::Layer& l : layers) write_layer(w, l);
}

std::vector<core::Layer> read_layers(Reader& r) {
  const std::int64_t n = r.read_int();
  std::vector<core::Layer> out;
  for (std::int64_t i = 0; i < n && !r.fail(); ++i)
    out.push_back(read_layer(r));
  return out;
}

void write_body(Writer& w, const core::Network& net) {
  w.put_string(net.name);
  write_shape(w, net.input);
  w.put_int(net.mini_batch_per_core);
  w.put_int(static_cast<std::int64_t>(net.blocks.size()));
  for (const core::Block& b : net.blocks) {
    w.put_int(static_cast<int>(b.kind));
    w.put_string(b.name);
    write_shape(w, b.in);
    write_shape(w, b.out);
    w.put_int(static_cast<std::int64_t>(b.branches.size()));
    for (const core::Branch& br : b.branches) write_layers(w, br.layers);
    write_layers(w, b.merge);
  }
}

core::Network read_network(Reader& r) {
  core::Network net;
  net.name = r.read_string();
  net.input = read_shape(r);
  net.mini_batch_per_core = static_cast<int>(r.read_int());
  const std::int64_t nblocks = r.read_int();
  for (std::int64_t i = 0; i < nblocks && !r.fail(); ++i) {
    core::Block b;
    b.kind = static_cast<core::BlockKind>(r.read_int());
    b.name = r.read_string();
    b.in = read_shape(r);
    b.out = read_shape(r);
    const std::int64_t nbranches = r.read_int();
    for (std::int64_t j = 0; j < nbranches && !r.fail(); ++j) {
      core::Branch br;
      br.layers = read_layers(r);
      b.branches.push_back(std::move(br));
    }
    b.merge = read_layers(r);
    net.blocks.push_back(std::move(b));
  }
  return net;
}

void write_body(Writer& w, const sched::Schedule& s) {
  w.put_int(static_cast<int>(s.config));
  w.put_int(s.mini_batch);
  w.put_int(s.buffer_bytes);
  w.put_int(static_cast<std::int64_t>(s.groups.size()));
  for (const sched::Group& g : s.groups) {
    w.put_int(g.first);
    w.put_int(g.last);
    w.put_int(g.sub_batch);
    w.put_int(g.iterations);
    w.put_int(static_cast<std::int64_t>(g.members.size()));
    for (int m : g.members) w.put_int(m);
  }
  w.put_int(static_cast<std::int64_t>(s.block_footprint.size()));
  for (std::int64_t v : s.block_footprint) w.put_int(v);
  w.put_int(static_cast<std::int64_t>(s.block_max_sub.size()));
  for (int v : s.block_max_sub) w.put_int(v);
}

sched::Schedule read_schedule(Reader& r) {
  sched::Schedule s;
  s.config = static_cast<sched::ExecConfig>(r.read_int());
  s.mini_batch = static_cast<int>(r.read_int());
  s.buffer_bytes = r.read_int();
  const std::int64_t ngroups = r.read_int();
  for (std::int64_t i = 0; i < ngroups && !r.fail(); ++i) {
    sched::Group g;
    g.first = static_cast<int>(r.read_int());
    g.last = static_cast<int>(r.read_int());
    g.sub_batch = static_cast<int>(r.read_int());
    g.iterations = static_cast<int>(r.read_int());
    const std::int64_t nmembers = r.read_int();
    for (std::int64_t j = 0; j < nmembers && !r.fail(); ++j)
      g.members.push_back(static_cast<int>(r.read_int()));
    s.groups.push_back(std::move(g));
  }
  const std::int64_t nfoot = r.read_int();
  for (std::int64_t i = 0; i < nfoot && !r.fail(); ++i)
    s.block_footprint.push_back(r.read_int());
  const std::int64_t nsub = r.read_int();
  for (std::int64_t i = 0; i < nsub && !r.fail(); ++i)
    s.block_max_sub.push_back(static_cast<int>(r.read_int()));
  return s;
}

void write_body(Writer& w, const sched::Traffic& t) {
  w.put_int(t.record_count);
  w.put_double(t.dram_read);
  w.put_double(t.dram_write);
  w.put_double(t.buffer);
  for (double v : t.class_dram) w.put_double(v);
  w.put_int(static_cast<std::int64_t>(t.block_dram.size()));
  for (double v : t.block_dram) w.put_double(v);
  w.put_int(static_cast<std::int64_t>(t.layers.size()));
  for (const sched::LayerBytes& lb : t.layers) {
    w.put_double(lb.dram[0]);
    w.put_double(lb.dram[1]);
    w.put_double(lb.buf[0]);
    w.put_double(lb.buf[1]);
  }
}

sched::Traffic read_traffic(Reader& r) {
  sched::Traffic t;
  t.record_count = r.read_int();
  t.dram_read = r.read_double();
  t.dram_write = r.read_double();
  t.buffer = r.read_double();
  for (double& v : t.class_dram) v = r.read_double();
  const std::int64_t nblocks = r.read_int();
  for (std::int64_t i = 0; i < nblocks && !r.fail(); ++i)
    t.block_dram.push_back(r.read_double());
  const std::int64_t nlayers = r.read_int();
  for (std::int64_t i = 0; i < nlayers && !r.fail(); ++i) {
    sched::LayerBytes lb;
    lb.dram[0] = r.read_double();
    lb.dram[1] = r.read_double();
    lb.buf[0] = r.read_double();
    lb.buf[1] = r.read_double();
    t.layers.push_back(lb);
  }
  return t;
}

void write_body(Writer& w, const sim::StepResult& s) {
  w.put_double(s.time_s);
  w.put_double(s.dram_bytes);
  w.put_double(s.buffer_bytes);
  w.put_double(s.total_macs);
  w.put_double(s.systolic_utilization);
  w.put_double(s.compute_time_s);
  w.put_double(s.memory_time_s);
  w.put_double(s.time_by_type.conv);
  w.put_double(s.time_by_type.fc);
  w.put_double(s.time_by_type.norm);
  w.put_double(s.time_by_type.pool);
  w.put_double(s.time_by_type.sum);
  w.put_double(s.energy.dram_j);
  w.put_double(s.energy.buffer_j);
  w.put_double(s.energy.mac_j);
  w.put_double(s.energy.vector_j);
  w.put_double(s.energy.static_j);
}

sim::StepResult read_step(Reader& r) {
  sim::StepResult s;
  s.time_s = r.read_double();
  s.dram_bytes = r.read_double();
  s.buffer_bytes = r.read_double();
  s.total_macs = r.read_double();
  s.systolic_utilization = r.read_double();
  s.compute_time_s = r.read_double();
  s.memory_time_s = r.read_double();
  s.time_by_type.conv = r.read_double();
  s.time_by_type.fc = r.read_double();
  s.time_by_type.norm = r.read_double();
  s.time_by_type.pool = r.read_double();
  s.time_by_type.sum = r.read_double();
  s.energy.dram_j = r.read_double();
  s.energy.buffer_j = r.read_double();
  s.energy.mac_j = r.read_double();
  s.energy.vector_j = r.read_double();
  s.energy.static_j = r.read_double();
  return s;
}

void write_body(Writer& w, const arch::GpuStepResult& s) {
  w.put_double(s.time_s);
  w.put_double(s.dram_bytes);
  w.put_double(s.compute_time_s);
  w.put_double(s.memory_time_s);
  w.put_double(s.overhead_s);
}

arch::GpuStepResult read_gpu_step(Reader& r) {
  arch::GpuStepResult s;
  s.time_s = r.read_double();
  s.dram_bytes = r.read_double();
  s.compute_time_s = r.read_double();
  s.memory_time_s = r.read_double();
  s.overhead_s = r.read_double();
  return s;
}

void write_body(Writer& w, const arch::SystolicStepResult& s) {
  w.put_int(s.stats.comp_cycles);
  w.put_int(s.stats.stall_cycles);
  w.put_double(s.stats.util);
  w.put_double(s.stats.mapping_eff);
  w.put_double(s.time_s);
  w.put_double(s.compute_time_s);
  w.put_double(s.stall_time_s);
  w.put_double(s.dram_bytes);
  w.put_double(s.total_macs);
  w.put_double(s.bw_ifmap);
  w.put_double(s.bw_filter);
  w.put_double(s.bw_ofmap);
}

arch::SystolicStepResult read_systolic_step(Reader& r) {
  arch::SystolicStepResult s;
  s.stats.comp_cycles = r.read_int();
  s.stats.stall_cycles = r.read_int();
  s.stats.util = r.read_double();
  s.stats.mapping_eff = r.read_double();
  s.time_s = r.read_double();
  s.compute_time_s = r.read_double();
  s.stall_time_s = r.read_double();
  s.dram_bytes = r.read_double();
  s.total_macs = r.read_double();
  s.bw_ifmap = r.read_double();
  s.bw_filter = r.read_double();
  s.bw_ofmap = r.read_double();
  return s;
}

}  // namespace

CacheStore::CacheStore(std::string path) : path_(std::move(path)) {}

std::unique_ptr<CacheStore> CacheStore::from_env() {
  const char* dir = std::getenv("MBS_CACHE_DIR");
  if (!dir || !*dir) return nullptr;
  return std::make_unique<CacheStore>(std::string(dir) +
                                      "/evaluator.mbscache");
}

namespace {

// Outcome of validating one shard entry file against the stage and key the
// caller asked for. The distinction matters because it decides the file's
// fate: a kMiss leaves the file alone (it is someone else's valid data — an
// fnv1a64 collision, or a writer under another schema stamp), while
// kCorrupt quarantines it (it can never validate for anyone).
enum class EntryStatus {
  kValid,  // record body is in `*body`, checksum verified
  kMiss,
  kCorrupt,
};

EntryStatus check_entry(Reader& r, const char* stage, const std::string& key,
                        std::string* body) {
  if (r.read_string() != "mbs-entry" || r.fail()) return EntryStatus::kCorrupt;
  if (r.read_int() != CacheStore::kFormatVersion || r.fail())
    return EntryStatus::kCorrupt;
  const std::string stamp = r.read_string();
  if (r.fail()) return EntryStatus::kCorrupt;
  if (stamp != CacheStore::kSchemaStamp) return EntryStatus::kMiss;
  if (r.read_string() != stage || r.fail()) return EntryStatus::kCorrupt;
  const std::string file_key = r.read_string();
  if (r.fail()) return EntryStatus::kCorrupt;
  if (file_key != key) return EntryStatus::kMiss;
  const std::uint64_t want = static_cast<std::uint64_t>(r.read_int());
  *body = r.read_string();
  if (r.fail() || !r.at_end()) return EntryStatus::kCorrupt;
  if (util::fnv1a64(*body) != want) return EntryStatus::kCorrupt;
  return EntryStatus::kValid;
}

char hex_digit(std::uint64_t v) {
  return "0123456789abcdef"[v & 0xf];
}

}  // namespace

std::string CacheStore::entry_file(const char* stage,
                                   const std::string& key) const {
  const std::uint64_t h = util::fnv1a64(key);
  std::string name(16, '0');
  for (int i = 0; i < 16; ++i) name[15 - i] = hex_digit(h >> (4 * i));
  return shard_dir() + "/" + stage + "/" + name[0] + "/" + name + ".rec";
}

void CacheStore::quarantine_entry(const char* stage, const std::string& key) {
  const std::string src = entry_file(stage, key);
  const std::string qdir = shard_dir() + "/quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  const std::string name = src.substr(src.rfind('/') + 1);
  const std::string dst = qdir + "/" + stage + "." + name;
  if (!util::fs::rename_file(src, dst, "cache.quarantine.rename")) {
    // Quarantine must never re-serve the bad bytes; if the move itself
    // fails, removal is the fallback.
    std::remove(src.c_str());
  }
  ++corrupt_entries_;
  std::fprintf(stderr, "CacheStore: quarantined corrupt entry %s (stage %s)\n",
               src.c_str(), stage);
}

// One lookup/insert pair per stage; all share the lock. A memory miss
// falls through to the per-entry shard file: on a valid read the value is
// cached in memory (and counted as loaded), so each key touches disk at
// most once per process. A file that fails validation (torn write, bad
// checksum, wrong stage, parse failure) is quarantined and the lookup is a
// miss; a key mismatch or another schema stamp is a plain miss that leaves
// the file alone.
#define MBS_CACHE_STORE_STAGE(Fn, PutFn, Map, Type, Stage, ReadFn)      \
  bool CacheStore::Fn(const std::string& key, Type* out) {              \
    std::lock_guard<std::mutex> lock(mu_);                              \
    const auto it = Map.find(key);                                      \
    if (it != Map.end()) {                                              \
      *out = it->second;                                                \
      return true;                                                      \
    }                                                                   \
    std::string text;                                                   \
    if (!util::fs::read_file(entry_file(Stage, key), &text,             \
                             "cache.entry.read"))                       \
      return false;                                                     \
    Reader r(text);                                                     \
    std::string body;                                                   \
    const EntryStatus st = check_entry(r, Stage, key, &body);           \
    if (st == EntryStatus::kMiss) return false;                         \
    if (st == EntryStatus::kCorrupt) {                                  \
      quarantine_entry(Stage, key);                                     \
      return false;                                                     \
    }                                                                   \
    Reader br(body);                                                    \
    Type v = ReadFn(br);                                                \
    if (br.fail() || !br.at_end()) {                                    \
      quarantine_entry(Stage, key);                                     \
      return false;                                                     \
    }                                                                   \
    *out = v;                                                           \
    Map.emplace(key, std::move(v));                                     \
    ++loaded_;                                                          \
    return true;                                                        \
  }                                                                     \
  void CacheStore::PutFn(const std::string& key, const Type& v) {       \
    std::lock_guard<std::mutex> lock(mu_);                              \
    if (Map.emplace(key, v).second) dirty_.emplace(Stage, key);         \
  }

MBS_CACHE_STORE_STAGE(load_network, put_network, networks_, core::Network,
                      "net", read_network)
MBS_CACHE_STORE_STAGE(load_schedule, put_schedule, schedules_,
                      sched::Schedule, "sched", read_schedule)
MBS_CACHE_STORE_STAGE(load_traffic, put_traffic, traffics_, sched::Traffic,
                      "traffic", read_traffic)
MBS_CACHE_STORE_STAGE(load_step, put_step, steps_, sim::StepResult, "step",
                      read_step)
MBS_CACHE_STORE_STAGE(load_gpu_step, put_gpu_step, gpu_steps_,
                      arch::GpuStepResult, "gpu", read_gpu_step)
MBS_CACHE_STORE_STAGE(load_systolic_step, put_systolic_step, systolic_steps_,
                      arch::SystolicStepResult, "sys", read_systolic_step)

#undef MBS_CACHE_STORE_STAGE

namespace {

/// A pointer to a stored value of any stage, for save() to serialize.
using Value = std::variant<const core::Network*, const sched::Schedule*,
                           const sched::Traffic*, const sim::StepResult*,
                           const arch::GpuStepResult*,
                           const arch::SystolicStepResult*>;

/// Entries per save lane: a save below two grains (a serve write-through,
/// a spool unit) runs inline and starts no threads.
constexpr std::size_t kSaveGrain = 64;

}  // namespace

bool CacheStore::save() {
  // One save at a time: a save reads the entries it collected without mu_,
  // and only the save that collected an entry erases its dirty mark.
  std::lock_guard<std::mutex> saving(save_mu_);

  struct Pending {
    DirtySet::const_iterator id;
    Value value;
    util::FaultDecision fault;
    long consults = 0;  ///< fault-site consults taken for this entry
    int fanout = 0;     ///< first hex digit of the entry's file name
    bool ok = false;
  };
  std::vector<Pending> pending;
  {
    // Under mu_, only pointers: map nodes never move and stored values are
    // never mutated, so the lanes serialize them without the lock.
    std::lock_guard<std::mutex> lock(mu_);
    if (dirty_.empty()) return true;
    pending.reserve(dirty_.size());
    for (auto it = dirty_.begin(); it != dirty_.end(); ++it) {
      const auto& [stage, key] = *it;
      Pending p;
      p.id = it;
      if (stage == "net")
        p.value = &networks_.at(key);
      else if (stage == "sched")
        p.value = &schedules_.at(key);
      else if (stage == "traffic")
        p.value = &traffics_.at(key);
      else if (stage == "step")
        p.value = &steps_.at(key);
      else if (stage == "gpu")
        p.value = &gpu_steps_.at(key);
      else
        p.value = &systolic_steps_.at(key);
      pending.push_back(p);
    }
  }

  const long retries = util::env_int("MBS_CACHE_SAVE_RETRIES", 3, 0, 100);
  const long backoff_ms = util::env_int("MBS_CACHE_RETRY_MS", 10, 0, 60000);
  // Fault decisions are taken serially in dirty_ order, one consult per
  // attempt, so `cache.entry.write:fail@N` names the same entry at every
  // thread budget. An injected failure is retried at once; the backoff is
  // for real write errors, which the lanes retry without consulting.
  for (Pending& p : pending) {
    do {
      p.fault = util::fault_point("cache.entry.write");
    } while (p.fault.fail && ++p.consults <= retries);
    if (!p.fault.fail) ++p.consults;
    p.fanout = static_cast<int>(util::fnv1a64(p.id->second) >> 60);
  }

  auto write_entry = [&](Pending& p) {
    if (p.fault.fail) return;
    const auto& [stage, key] = *p.id;
    Writer body;
    std::visit([&](const auto* v) { write_body(body, *v); }, p.value);
    // The record tokens are wrapped as one length-prefixed string with an
    // fnv1a64 checksum in front: a torn write breaks the length or the
    // checksum, never silently yields a shorter-but-parseable body.
    Writer w;
    w.put_string("mbs-entry");
    w.put_int(kFormatVersion);
    w.put_string(kSchemaStamp);
    w.put_string(stage);
    w.put_string(key);
    w.put_int(static_cast<std::int64_t>(util::fnv1a64(body.str())));
    w.put_string(body.str());
    const std::string text = w.str() + "\n";
    const std::string file = entry_file(stage.c_str(), key);
    p.ok = util::fs::write_atomic(file, text, p.fault);
    for (long attempt = p.consults; attempt <= retries && !p.ok; ++attempt) {
      if (backoff_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms * attempt));
      p.ok = util::fs::write_atomic(file, text, util::FaultDecision{});
    }
  };

  // Lane k writes the entries whose fan-out digit is k modulo the lane
  // count: no two lanes create files in one directory, and since the digit
  // is a hash digit each lane gets its share of every stage. Lanes run on
  // short-lived threads rather than the kernel pool: a save comes once per
  // sweep, and pool workers would keep their malloc arenas pinned between
  // saves.
  const std::size_t lanes =
      util::in_parallel_region()
          ? 1
          : std::min<std::size_t>(
                static_cast<std::size_t>(util::thread_budget()),
                pending.size() / kSaveGrain);
  std::exception_ptr error;
  std::mutex error_mu;
  auto run_lane = [&](std::size_t lane) {
    try {
      for (Pending& p : pending)
        if (static_cast<std::size_t>(p.fanout) % lanes == lane) write_entry(p);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  if (lanes <= 1) {
    for (Pending& p : pending) write_entry(p);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      try {
        threads.emplace_back(run_lane, lane);
      } catch (const std::system_error&) {
        run_lane(lane);  // no thread to spare: write this lane here
      }
    }
    run_lane(0);
    for (std::thread& t : threads) t.join();
  }
  // Every entry stays dirty; the next save() writes them again.
  if (error) std::rethrow_exception(error);

  bool all_ok = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Pending& p : pending) {
    if (p.ok) {
      dirty_.erase(p.id);
      continue;
    }
    all_ok = false;
    ++save_failures_;
    std::fprintf(stderr, "CacheStore: giving up on %s/%s after %ld attempts\n",
                 p.id->first.c_str(), p.id->second.c_str(), retries + 1);
  }
  return all_ok;
}

std::size_t CacheStore::loaded_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loaded_;
}

std::size_t CacheStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return networks_.size() + schedules_.size() + traffics_.size() +
         steps_.size() + gpu_steps_.size() + systolic_steps_.size();
}

bool CacheStore::dirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !dirty_.empty();
}

std::size_t CacheStore::save_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return save_failures_;
}

std::size_t CacheStore::corrupt_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_entries_;
}

}  // namespace mbs::engine
