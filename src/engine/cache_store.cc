#include "engine/cache_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
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

/// Stage indices, in pack-write order, and their directory names.
enum StageId : int { kNet, kSched, kTraffic, kStep, kGpu, kSys };
constexpr const char* kStageNames[CacheStore::kStages] = {
    "net", "sched", "traffic", "step", "gpu", "sys"};
constexpr const char* kPackMagic = "mbs-pack";

std::string pack_name(std::uint64_t h) {
  std::string name(16, '0');
  for (int i = 0; i < 16; ++i)
    name[15 - i] = "0123456789abcdef"[(h >> (4 * i)) & 0xf];
  return name + ".pack";
}

/// The content hash a `<16 hex digits>.pack` file name carries; false for
/// any other name (temp files, stray files).
bool parse_pack_name(const char* name, std::uint64_t* h) {
  std::uint64_t v = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = name[i];
    if (c >= '0' && c <= '9')
      v = v << 4 | static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v = v << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
  }
  if (std::strcmp(name + 16, ".pack") != 0) return false;
  *h = v;
  return true;
}

std::string pack_header(int stage, std::size_t records) {
  Writer w;
  w.put_string(kPackMagic);
  w.put_int(CacheStore::kFormatVersion);
  w.put_string(CacheStore::kSchemaStamp);
  w.put_string(kStageNames[stage]);
  w.put_int(static_cast<std::int64_t>(records));
  return w.str() + "\n";
}

/// A forward-only tokenizer over a pack file, reading it through a small
/// buffer so the index pass never holds a pack whole. It accepts the token
/// grammar util::serde writes: whitespace-separated decimal integers and
/// `<length>:<bytes>` strings.
class PackScanner {
 public:
  PackScanner(int fd, std::uint64_t size) : fd_(fd), size_(size) {}

  std::uint64_t pos() const { return pos_; }
  /// A read(2) failed: the pack's bytes are unknown, not known bad.
  bool io_error() const { return io_error_; }

  bool read_int(std::int64_t* v) {
    skip_ws();
    char tok[24];
    std::size_t n = 0;
    for (int c = peek(); c >= 0 && !is_ws(c); c = peek()) {
      if (n + 1 == sizeof tok) return false;
      tok[n++] = static_cast<char>(c);
      ++pos_;
    }
    tok[n] = '\0';
    char* end = nullptr;
    *v = std::strtoll(tok, &end, 10);
    return n > 0 && end == tok + n;
  }

  /// Reads a `<length>:` prefix; the length must fit in the rest of the
  /// file.
  bool read_length(std::uint64_t* len) {
    skip_ws();
    std::uint64_t v = 0;
    bool any = false;
    for (int c = peek(); c >= '0' && c <= '9'; c = peek()) {
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > size_) return false;
      any = true;
      ++pos_;
    }
    if (!any || peek() != ':') return false;
    ++pos_;
    *len = v;
    return v <= size_ - pos_;
  }

  bool read_string(std::string* out) {
    std::uint64_t len = 0;
    if (!read_length(&len)) return false;
    out->clear();
    for (std::uint64_t i = 0; i < len; ++i) {
      const int c = peek();
      if (c < 0) return false;
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    return true;
  }

  /// Skips `n` bytes; read_length already bounded them by the file size.
  void skip(std::uint64_t n) { pos_ += n; }

  /// Separators only from here to the end of the file.
  bool at_end() {
    skip_ws();
    return peek() < 0 && !io_error_;
  }

 private:
  static bool is_ws(int c) { return c == ' ' || c == '\n'; }

  void skip_ws() {
    while (is_ws(peek())) ++pos_;
  }

  /// The byte at pos_, or -1 at the end of the file or on a read error.
  int peek() {
    if (pos_ >= size_) return -1;
    if (pos_ < buf_at_ || pos_ >= buf_at_ + buf_len_) {
      const ssize_t r = ::pread(fd_, buf_.data(), buf_.size(),
                                static_cast<off_t>(pos_));
      if (r <= 0) {
        io_error_ = r < 0;
        return -1;
      }
      buf_at_ = pos_;
      buf_len_ = static_cast<std::size_t>(r);
    }
    return static_cast<unsigned char>(buf_[pos_ - buf_at_]);
  }

  int fd_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
  std::uint64_t buf_at_ = 0;
  std::size_t buf_len_ = 0;
  bool io_error_ = false;
  std::vector<char> buf_ = std::vector<char>(1 << 16);
};

enum class PackStatus {
  kValid,    // every record indexed
  kMiss,     // another schema stamp, or unreadable now: left in place
  kCorrupt,  // can never validate for anyone: quarantine
};

struct ScannedRecord {
  std::string key;
  std::uint64_t offset, length, sum;  ///< where the body sits; its checksum
};

/// Validates the pack at `file` for `stage` and lists its records without
/// reading their bodies.
PackStatus scan_pack(const std::string& file, int stage,
                     std::vector<ScannedRecord>* out) {
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) return PackStatus::kMiss;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return PackStatus::kMiss;
  }
  PackScanner in(fd, static_cast<std::uint64_t>(st.st_size));
  const PackStatus status = [&] {
    std::string text;
    std::int64_t version = 0, count = 0;
    if (!in.read_string(&text) || text != kPackMagic)
      return PackStatus::kCorrupt;
    if (!in.read_int(&version) || version != CacheStore::kFormatVersion)
      return PackStatus::kCorrupt;
    if (!in.read_string(&text)) return PackStatus::kCorrupt;
    if (text != CacheStore::kSchemaStamp) return PackStatus::kMiss;
    if (!in.read_string(&text) || text != kStageNames[stage])
      return PackStatus::kCorrupt;
    if (!in.read_int(&count) || count < 0) return PackStatus::kCorrupt;
    // The count sizes no allocation: a record past the end of the file
    // fails to read.
    for (std::int64_t i = 0; i < count; ++i) {
      std::string key;
      std::int64_t sum = 0;
      std::uint64_t length = 0;
      if (!in.read_string(&key) || !in.read_int(&sum) ||
          !in.read_length(&length))
        return PackStatus::kCorrupt;
      out->push_back({std::move(key), in.pos(), length,
                      static_cast<std::uint64_t>(sum)});
      in.skip(length);
    }
    return in.at_end() ? PackStatus::kValid : PackStatus::kCorrupt;
  }();
  ::close(fd);
  return in.io_error() ? PackStatus::kMiss : status;
}

}  // namespace

std::string CacheStore::pack_file(int stage, std::uint64_t pack) const {
  return shard_dir() + "/" + kStageNames[stage] + "/" + pack_name(pack);
}

void CacheStore::quarantine_pack(int stage, std::uint64_t pack) {
  const std::string file = pack_file(stage, pack);
  const std::string qdir = shard_dir() + "/quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  const std::string dst =
      qdir + "/" + kStageNames[stage] + "." + pack_name(pack);
  if (!util::fs::rename_file(file, dst, "cache.quarantine.rename")) {
    // Quarantine must never re-serve the bad bytes; if the move itself
    // fails, removal is the fallback.
    std::remove(file.c_str());
  }
  std::erase_if(disk_[stage].records,
                [pack](const auto& r) { return r.second.pack == pack; });
  ++corrupt_entries_;
  std::fprintf(stderr, "CacheStore: quarantined corrupt pack %s (stage %s)\n",
               file.c_str(), kStageNames[stage]);
}

void CacheStore::rescan(int stage) {
  StageDisk& disk = disk_[stage];
  std::vector<std::uint64_t> fresh;
  if (DIR* d = ::opendir((shard_dir() + "/" + kStageNames[stage]).c_str())) {
    while (const dirent* e = ::readdir(d)) {
      std::uint64_t h = 0;
      if (parse_pack_name(e->d_name, &h) && !disk.seen.count(h))
        fresh.push_back(h);
    }
    ::closedir(d);
  }
  // Sorted, so the first pack to index a key is the same for every handle.
  std::sort(fresh.begin(), fresh.end());
  for (const std::uint64_t h : fresh) {
    // A pack is opened once per handle, whatever its fate: one under
    // another stamp stays in place, unread.
    disk.seen.insert(h);
    std::vector<ScannedRecord> records;
    const PackStatus st = scan_pack(pack_file(stage, h), stage, &records);
    if (st == PackStatus::kCorrupt) quarantine_pack(stage, h);
    if (st != PackStatus::kValid) continue;
    for (ScannedRecord& r : records)
      disk.records.emplace(std::move(r.key),
                           RecordLoc{h, r.offset, r.length, r.sum});
  }
}

bool CacheStore::read_record(int stage, const std::string& key,
                             std::string* body, std::uint64_t* pack) {
  StageDisk& disk = disk_[stage];
  auto it = disk.records.find(key);
  if (it == disk.records.end()) {
    rescan(stage);
    it = disk.records.find(key);
    if (it == disk.records.end()) return false;
  }
  const RecordLoc loc = it->second;
  *pack = loc.pack;
  if (!util::fs::read_range(pack_file(stage, loc.pack), loc.offset,
                            loc.length, body, "cache.entry.read"))
    return false;
  if (util::fnv1a64(*body) != loc.sum) {
    quarantine_pack(stage, *pack);
    return false;
  }
  return true;
}

// One lookup/insert pair per stage; all share the lock. A memory miss
// falls through to the stage's packs: on a valid read the value is cached
// in memory (and counted as loaded), so each key touches disk at most once
// per process. A record that fails its checksum or parse quarantines its
// whole pack and the lookup is a miss.
#define MBS_CACHE_STORE_STAGE(Fn, PutFn, Map, Type, Stage, ReadFn) \
  bool CacheStore::Fn(const std::string& key, Type* out) {         \
    std::lock_guard<std::mutex> lock(mu_);                         \
    const auto it = Map.find(key);                                 \
    if (it != Map.end()) {                                         \
      *out = it->second;                                           \
      return true;                                                 \
    }                                                              \
    std::string body;                                              \
    std::uint64_t pack = 0;                                        \
    if (!read_record(Stage, key, &body, &pack)) return false;      \
    Reader br(body);                                               \
    Type v = ReadFn(br);                                           \
    if (br.fail() || !br.at_end()) {                               \
      quarantine_pack(Stage, pack);                                \
      return false;                                                \
    }                                                              \
    *out = v;                                                      \
    Map.emplace(key, std::move(v));                                \
    ++loaded_;                                                     \
    return true;                                                   \
  }                                                                \
  void CacheStore::PutFn(const std::string& key, const Type& v) {  \
    std::lock_guard<std::mutex> lock(mu_);                         \
    if (Map.emplace(key, v).second) dirty_.emplace(Stage, key);    \
  }

MBS_CACHE_STORE_STAGE(load_network, put_network, networks_, core::Network,
                      kNet, read_network)
MBS_CACHE_STORE_STAGE(load_schedule, put_schedule, schedules_,
                      sched::Schedule, kSched, read_schedule)
MBS_CACHE_STORE_STAGE(load_traffic, put_traffic, traffics_, sched::Traffic,
                      kTraffic, read_traffic)
MBS_CACHE_STORE_STAGE(load_step, put_step, steps_, sim::StepResult, kStep,
                      read_step)
MBS_CACHE_STORE_STAGE(load_gpu_step, put_gpu_step, gpu_steps_,
                      arch::GpuStepResult, kGpu, read_gpu_step)
MBS_CACHE_STORE_STAGE(load_systolic_step, put_systolic_step, systolic_steps_,
                      arch::SystolicStepResult, kSys, read_systolic_step)

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
/// A serialized chunk closes at kSaveGrain entries or at about this many
/// bytes: a deep network's traffic record runs to 25 KB, so a full grain of
/// them would be 1.6 MB, and two chunks per lane are in flight.
constexpr std::size_t kChunkBytes = 32 << 10;

/// Rough serialized size of a stored value, about 20 bytes a token, for
/// cutting chunks of similar size.
std::size_t approx_bytes(const core::Network& n) {
  return 80 * static_cast<std::size_t>(n.layer_count());
}
std::size_t approx_bytes(const sched::Traffic& t) {
  return 20 * (4 * t.layers.size() + t.block_dram.size());
}
template <typename T>
std::size_t approx_bytes(const T&) {
  return 700;
}

}  // namespace

bool CacheStore::save() {
  // One save at a time: a save reads the entries it collected without mu_,
  // and only the save that collected an entry erases its dirty mark.
  std::lock_guard<std::mutex> saving(save_mu_);

  struct Pending {
    DirtySet::const_iterator id;
    Value value;
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
      Pending p{it, {}};
      switch (stage) {
        case kNet: p.value = &networks_.at(key); break;
        case kSched: p.value = &schedules_.at(key); break;
        case kTraffic: p.value = &traffics_.at(key); break;
        case kStep: p.value = &steps_.at(key); break;
        case kGpu: p.value = &gpu_steps_.at(key); break;
        default: p.value = &systolic_steps_.at(key); break;
      }
      pending.push_back(p);
    }
  }

  // One pack per stage: a run of pending entries, in key order.
  struct Pack {
    int stage = 0;
    std::size_t begin = 0, end = 0;
    util::FaultDecision fault;
    long consults = 0;  ///< fault-site consults taken for this pack
    std::uint64_t hash = 0;
    bool ok = false;
  };
  std::vector<Pack> packs;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const int stage = pending[i].id->first;
    if (packs.empty() || packs.back().stage != stage)
      packs.push_back({stage, i, i, {}, 0, 0, false});
    packs.back().end = i + 1;
  }

  const long retries = util::env_int("MBS_CACHE_SAVE_RETRIES", 3, 0, 100);
  const long backoff_ms = util::env_int("MBS_CACHE_RETRY_MS", 10, 0, 60000);
  // Fault decisions are taken serially in stage order, one consult per
  // attempt, before any pack is written. An injected failure is retried at
  // once; the backoff is for real write errors, retried without consulting.
  struct Chunk {
    std::size_t pack, begin, end;
  };
  std::vector<Chunk> chunks;
  for (std::size_t k = 0; k < packs.size(); ++k) {
    Pack& p = packs[k];
    do {
      p.fault = util::fault_point("cache.pack.write");
    } while (p.fault.fail && ++p.consults <= retries);
    if (p.fault.fail) continue;
    ++p.consults;
    std::size_t begin = p.begin, bytes = 0;
    for (std::size_t i = p.begin; i < p.end; ++i) {
      bytes += std::visit([](const auto* v) { return approx_bytes(*v); },
                          pending[i].value);
      if (i + 1 - begin == kSaveGrain || bytes >= kChunkBytes ||
          i + 1 == p.end) {
        chunks.push_back({k, begin, i + 1});
        begin = i + 1;
        bytes = 0;
      }
    }
  }

  // Serializes chunk `c` into *out, reusing its capacity.
  auto serialize = [&](const Chunk& c, std::string* out) {
    out->clear();
    for (std::size_t i = c.begin; i < c.end; ++i) {
      Writer body;
      std::visit([&](const auto* v) { write_body(body, *v); },
                 pending[i].value);
      // The record body is one length-prefixed string behind an fnv1a64
      // checksum: a torn write breaks the length or the checksum, never
      // silently yields a shorter-but-parseable body.
      Writer w;
      w.put_string(pending[i].id->second);
      w.put_int(static_cast<std::int64_t>(util::fnv1a64(body.str())));
      w.put_string(body.str());
      *out += w.str();
      *out += '\n';
    }
  };

  // Appends chunk bytes in order, opening a stage's temp file at its first
  // chunk and renaming it to its content hash after its last.
  std::optional<util::fs::StagedFile> file;
  auto append = [&](const Chunk& c, const std::string& bytes) {
    Pack& p = packs[c.pack];
    if (c.begin == p.begin) {
      const std::string header = pack_header(p.stage, p.end - p.begin);
      file.emplace(shard_dir() + "/" + kStageNames[p.stage] + "/pack");
      file->append(header);
      p.hash = util::fnv1a64(header);
    }
    file->append(bytes);
    p.hash = util::fnv1a64(bytes, p.hash);
    if (c.end == p.end) {
      p.ok = file->commit(pack_file(p.stage, p.hash), p.fault);
      file.reset();
    }
  };

  // Lanes run on short-lived threads rather than the kernel pool: a save
  // comes once per sweep, and pool workers would keep their malloc arenas
  // pinned between saves.
  const std::size_t lanes =
      util::in_parallel_region()
          ? 1
          : std::min<std::size_t>(
                static_cast<std::size_t>(util::thread_budget()),
                pending.size() / kSaveGrain);
  // Chunk c is serialized into slot c % window, and a lane claims a chunk
  // only once the chunk `window` before it has been appended, so at most
  // `window` chunks are in flight; their buffers are reused from chunk to
  // chunk. Each slot has its own cache line: lanes grow neighbouring
  // strings at once.
  struct alignas(64) Slot {
    std::string bytes;
    bool ready = false;
  };
  const std::size_t window = 2 * lanes;
  std::vector<Slot> slots(window);
  std::size_t claimed = 0, appended = 0;
  std::exception_ptr error;
  std::mutex m;
  std::condition_variable slot_free, slot_ready;
  auto lane = [&] {
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      slot_free.wait(lock, [&] {
        return error || claimed == chunks.size() ||
               claimed < appended + window;
      });
      if (error || claimed == chunks.size()) return;
      const std::size_t c = claimed++;
      lock.unlock();
      std::exception_ptr failed;
      try {
        serialize(chunks[c], &slots[c % window].bytes);
      } catch (...) {
        failed = std::current_exception();
      }
      lock.lock();
      if (failed && !error) error = failed;
      slots[c % window].ready = true;
      slot_ready.notify_all();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t l = 0; lanes > 1 && l < lanes; ++l) {
    try {
      threads.emplace_back(lane);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the lanes started so far serialize
    }
  }
  if (threads.empty()) {
    std::string bytes;
    for (const Chunk& c : chunks) {
      serialize(c, &bytes);
      append(c, bytes);
    }
  } else {
    try {
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        {
          std::unique_lock<std::mutex> lock(m);
          slot_ready.wait(lock,
                          [&] { return error || slots[c % window].ready; });
          if (error) break;
        }
        append(chunks[c], slots[c % window].bytes);
        std::lock_guard<std::mutex> lock(m);
        slots[c % window].ready = false;
        ++appended;
        slot_free.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(m);
      if (!error) error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(m);
      slot_free.notify_all();
    }
    for (std::thread& t : threads) t.join();
    // Every entry stays dirty; the next save() writes them again.
    if (error) std::rethrow_exception(error);
  }

  // A real write error: stream the pack again, inline, after a backoff.
  for (std::size_t k = 0; k < packs.size(); ++k) {
    Pack& p = packs[k];
    if (p.fault.fail) continue;
    for (long attempt = p.consults; !p.ok && attempt <= retries; ++attempt) {
      if (backoff_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms * attempt));
      p.fault = util::FaultDecision{};
      std::string bytes;
      for (const Chunk& c : chunks) {
        if (c.pack != k) continue;
        serialize(c, &bytes);
        append(c, bytes);
      }
    }
  }

  bool all_ok = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Pack& p : packs) {
    if (p.ok) {
      disk_[p.stage].seen.insert(p.hash);
      for (std::size_t i = p.begin; i < p.end; ++i) dirty_.erase(pending[i].id);
      continue;
    }
    all_ok = false;
    ++save_failures_;
    std::fprintf(stderr,
                 "CacheStore: giving up on the %s pack (%zu entries) after "
                 "%ld attempts\n",
                 kStageNames[p.stage], p.end - p.begin, retries + 1);
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
