#include "engine/cache_store.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
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

void write_network(Writer& w, const core::Network& net) {
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

void write_schedule(Writer& w, const sched::Schedule& s) {
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

void write_traffic(Writer& w, const sched::Traffic& t) {
  w.put_int(static_cast<std::int64_t>(t.records.size()));
  for (const sched::TrafficRecord& rec : t.records) {
    w.put_int(rec.block);
    w.put_int(rec.layer);
    w.put_int(static_cast<int>(rec.kind));
    w.put_int(rec.is_gemm ? 1 : 0);
    w.put_int(static_cast<int>(rec.phase));
    w.put_int(static_cast<int>(rec.cls));
    w.put_double(rec.dram_read);
    w.put_double(rec.dram_write);
    w.put_double(rec.buf_read);
    w.put_double(rec.buf_write);
  }
}

sched::Traffic read_traffic(Reader& r) {
  sched::Traffic t;
  const std::int64_t n = r.read_int();
  for (std::int64_t i = 0; i < n && !r.fail(); ++i) {
    sched::TrafficRecord rec;
    rec.block = static_cast<int>(r.read_int());
    rec.layer = static_cast<int>(r.read_int());
    rec.kind = static_cast<core::LayerKind>(r.read_int());
    rec.is_gemm = r.read_int() != 0;
    rec.phase = static_cast<sched::Phase>(r.read_int());
    rec.cls = static_cast<sched::TrafficClass>(r.read_int());
    rec.dram_read = r.read_double();
    rec.dram_write = r.read_double();
    rec.buf_read = r.read_double();
    rec.buf_write = r.read_double();
    t.records.push_back(rec);
  }
  return t;
}

void write_step(Writer& w, const sim::StepResult& s) {
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

void write_gpu_step(Writer& w, const arch::GpuStepResult& s) {
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

void write_systolic_step(Writer& w, const arch::SystolicStepResult& s) {
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
  return shard_dir() + "/" + stage + "/" + name + ".rec";
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

bool CacheStore::save() {
  // Serialize dirty entries under the lock, write them outside it.
  std::vector<std::tuple<std::string, std::string, std::string>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dirty_.empty()) return true;
    pending.reserve(dirty_.size());
    for (const auto& [stage, key] : dirty_) {
      Writer body;
      if (stage == "net")
        write_network(body, networks_.at(key));
      else if (stage == "sched")
        write_schedule(body, schedules_.at(key));
      else if (stage == "traffic")
        write_traffic(body, traffics_.at(key));
      else if (stage == "step")
        write_step(body, steps_.at(key));
      else if (stage == "gpu")
        write_gpu_step(body, gpu_steps_.at(key));
      else
        write_systolic_step(body, systolic_steps_.at(key));
      // The record tokens are wrapped as one length-prefixed string with
      // an fnv1a64 checksum in front: a torn write breaks the length or
      // the checksum, never silently yields a shorter-but-parseable body.
      Writer w;
      w.put_string("mbs-entry");
      w.put_int(kFormatVersion);
      w.put_string(kSchemaStamp);
      w.put_string(stage);
      w.put_string(key);
      w.put_int(static_cast<std::int64_t>(util::fnv1a64(body.str())));
      w.put_string(body.str());
      pending.emplace_back(stage, key, w.str());
    }
  }
  const long retries = util::env_int("MBS_CACHE_SAVE_RETRIES", 3, 0, 100);
  const long backoff_ms = util::env_int("MBS_CACHE_RETRY_MS", 10, 0, 60000);
  bool all_ok = true;
  for (const auto& [stage, key, text] : pending) {
    bool ok = false;
    for (long attempt = 0; attempt <= retries && !ok; ++attempt) {
      if (attempt > 0 && backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms * attempt));
      }
      ok = util::fs::write_atomic(entry_file(stage.c_str(), key), text + "\n",
                                  "cache.entry.write");
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      dirty_.erase({stage, key});
    } else {
      all_ok = false;
      ++save_failures_;
      std::fprintf(stderr,
                   "CacheStore: giving up on %s/%s after %ld attempts\n",
                   stage.c_str(), key.c_str(), retries + 1);
    }
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
