#include "util/fault.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mbs::util {

namespace {

struct SiteSpec {
  enum Kind { kFailNth, kEveryK, kTorn, kCrash } kind = kFailNth;
  long n = 0;           // target call number (fail@N, torn@N, crash@N) or K
  long torn_bytes = 0;  // torn@N/B truncation offset
};

struct SiteState {
  std::vector<SiteSpec> specs;
  long calls = 0;
};

std::mutex g_mu;
std::unordered_map<std::string, SiteState>& registry() {
  static std::unordered_map<std::string, SiteState> r;
  return r;
}
std::atomic<bool> g_armed{false};
std::atomic<long> g_injected{0};
std::once_flag g_env_once;

// One "site:kind@args" entry. Returns false on parse failure.
bool parse_entry(const std::string& entry) {
  const size_t colon = entry.find(':');
  const size_t at = entry.find('@', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || at == std::string::npos || colon == 0) {
    return false;
  }
  const std::string site = entry.substr(0, colon);
  const std::string kind = entry.substr(colon + 1, at - colon - 1);
  const std::string args = entry.substr(at + 1);

  SiteSpec spec;
  char* end = nullptr;
  if (kind == "fail") {
    spec.kind = SiteSpec::kFailNth;
  } else if (kind == "every") {
    spec.kind = SiteSpec::kEveryK;
  } else if (kind == "torn") {
    spec.kind = SiteSpec::kTorn;
  } else if (kind == "crash") {
    spec.kind = SiteSpec::kCrash;
  } else {
    return false;
  }
  spec.n = strtol(args.c_str(), &end, 10);
  if (end == args.c_str() || spec.n <= 0) return false;
  if (spec.kind == SiteSpec::kTorn) {
    if (*end != '/') return false;
    const char* b = end + 1;
    spec.torn_bytes = strtol(b, &end, 10);
    if (end == b || spec.torn_bytes < 0) return false;
  }
  if (*end != '\0') return false;

  std::lock_guard<std::mutex> lock(g_mu);
  registry()[site].specs.push_back(spec);
  g_armed.store(true, std::memory_order_release);
  return true;
}

bool arm_from_string(const std::string& spec) {
  bool ok = true;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    if (!entry.empty() && !parse_entry(entry)) {
      std::fprintf(stderr, "fault: bad MBS_FAULTS entry '%s' (ignored)\n",
                   entry.c_str());
      ok = false;
    }
    pos = comma + 1;
  }
  return ok;
}

void init_from_env() {
  const char* env = std::getenv("MBS_FAULTS");
  if (env && *env) arm_from_string(env);
}

bool fsync_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("MBS_FSYNC");
    return v && *v && strcmp(v, "0") != 0;
  }();
  return on;
}

// Plain POSIX write of the whole buffer to an already-open fd.
bool write_all(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t w = write(fd, data + off, len - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

void make_parent_dirs(const std::string& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') {
      mkdir(path.substr(0, i).c_str(), 0777);  // EEXIST is fine
    }
  }
}

// open(2) for writing, creating the parent directories only when the first
// try finds one missing: a mkdir of an existing directory still takes the
// parent's lock, which concurrent writers into one tree would contend on.
int open_for_write(const std::string& path, int flags) {
  int fd = open(path.c_str(), flags, 0666);
  if (fd < 0 && errno == ENOENT) {
    make_parent_dirs(path);
    fd = open(path.c_str(), flags, 0666);
  }
  return fd;
}

// Distinguishes the tmp files of concurrent writes within one process.
std::atomic<long> g_tmp_seq{0};

}  // namespace

FaultDecision fault_point(const char* site) {
  std::call_once(g_env_once, init_from_env);
  FaultDecision d;
  if (!g_armed.load(std::memory_order_acquire)) return d;

  std::unique_lock<std::mutex> lock(g_mu);
  auto it = registry().find(site);
  if (it == registry().end()) return d;
  SiteState& st = it->second;
  st.calls++;
  for (const SiteSpec& spec : st.specs) {
    const bool hit = spec.kind == SiteSpec::kEveryK
                         ? (st.calls % spec.n == 0)
                         : (st.calls == spec.n);
    if (!hit) continue;
    switch (spec.kind) {
      case SiteSpec::kFailNth:
      case SiteSpec::kEveryK:
        d.fail = true;
        break;
      case SiteSpec::kTorn:
        d.torn = true;
        d.torn_bytes = spec.torn_bytes;
        break;
      case SiteSpec::kCrash:
        lock.unlock();
        std::fprintf(stderr, "fault: crash at site %s (call %ld)\n", site,
                     spec.n);
        std::fflush(nullptr);
        std::_Exit(3);
    }
  }
  if (d.fail || d.torn) {
    g_injected.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

bool fault_arm(const std::string& spec) {
  std::call_once(g_env_once, init_from_env);
  return arm_from_string(spec);
}

void fault_clear() {
  std::call_once(g_env_once, init_from_env);
  std::lock_guard<std::mutex> lock(g_mu);
  registry().clear();
  g_armed.store(false, std::memory_order_release);
  g_injected.store(0, std::memory_order_relaxed);
}

long fault_injection_count() {
  return g_injected.load(std::memory_order_relaxed);
}

namespace fs {

bool write_atomic(const std::string& path, const std::string& text,
                  const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail) {
    errno = EIO;
    return false;
  }
  StagedFile file(path);
  return file.append(text) && file.commit(path, d);
}

StagedFile::StagedFile(const std::string& near)
    : tmp_(near + ".tmp." + std::to_string(static_cast<long>(getpid())) +
           "." +
           std::to_string(g_tmp_seq.fetch_add(1, std::memory_order_relaxed))) {
  fd_ = open_for_write(tmp_, O_WRONLY | O_CREAT | O_TRUNC);
  ok_ = fd_ >= 0;
}

StagedFile::~StagedFile() {
  if (fd_ >= 0) {
    close(fd_);
    unlink(tmp_.c_str());
  }
}

bool StagedFile::append(std::string_view data) {
  ok_ = ok_ && write_all(fd_, data.data(), data.size());
  size_ += data.size();
  return ok_;
}

bool StagedFile::commit(const std::string& path, const FaultDecision& d) {
  if (d.fail) {
    errno = EIO;
    return false;
  }
  if (!ok_) return false;
  // A torn write leaves a truncated file at the final path and reports
  // success: what an acknowledged-but-lost write looks like to the next
  // reader.
  bool ok = !d.torn || static_cast<std::uint64_t>(d.torn_bytes) >= size_ ||
            ftruncate(fd_, static_cast<off_t>(d.torn_bytes)) == 0;
  if (ok && fsync_enabled() && fsync(fd_) != 0) ok = false;
  if (close(fd_) != 0) ok = false;
  fd_ = -1;
  if (ok && rename(tmp_.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) unlink(tmp_.c_str());
  return ok;
}

bool read_file(const std::string& path, std::string* out, const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail) {
    errno = EIO;
    return false;
  }
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::string buf;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t r = read(fd, chunk, sizeof(chunk));
    if (r < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return false;
    }
    if (r == 0) break;
    buf.append(chunk, static_cast<size_t>(r));
  }
  close(fd);
  if (d.torn && static_cast<size_t>(d.torn_bytes) < buf.size()) {
    buf.resize(static_cast<size_t>(d.torn_bytes));
  }
  *out = std::move(buf);
  return true;
}

bool read_range(const std::string& path, std::uint64_t offset,
                std::size_t len, std::string* out, const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail) {
    errno = EIO;
    return false;
  }
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::string buf(len, '\0');
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = pread(fd, buf.data() + got, len - got,
                            static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  close(fd);
  if (got < len) return false;
  if (d.torn && static_cast<std::size_t>(d.torn_bytes) < len)
    buf.resize(static_cast<std::size_t>(d.torn_bytes));
  *out = std::move(buf);
  return true;
}

bool rename_file(const std::string& from, const std::string& to,
                 const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail || d.torn) {
    errno = EIO;
    return false;
  }
  return rename(from.c_str(), to.c_str()) == 0;
}

bool remove_file(const std::string& path, const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail || d.torn) {
    errno = EIO;
    return false;
  }
  return unlink(path.c_str()) == 0 || errno == ENOENT;
}

bool create_exclusive(const std::string& path, const std::string& text,
                      const char* site) {
  const FaultDecision d = fault_point(site);
  if (d.fail || d.torn) {
    errno = EIO;
    return false;
  }
  const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (fd < 0) return false;
  const bool ok = write_all(fd, text.data(), text.size());
  close(fd);
  if (!ok) unlink(path.c_str());
  return ok;
}

}  // namespace fs

}  // namespace mbs::util
