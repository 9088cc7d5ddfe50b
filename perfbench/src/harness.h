// Measurement harness of the repository benchmark: clocks, the percentile
// rule, an in-memory span recorder, order-independent answer digests and a
// seeded input generator. Nothing here knows about the library under test.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in seconds / nanoseconds (std::chrono::steady_clock).
double now_s();
std::int64_t now_ns();

/// Process CPU time (user + system) in seconds, over all threads.
double process_cpu_s();
/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// Wall and process CPU time since construction; busy_frac is the share of
/// a thread budget that was busy.
struct BusyClock {
  double wall0 = now_s();
  double cpu0 = process_cpu_s();
  double wall_s() const { return now_s() - wall0; }
  double cpu_s() const { return process_cpu_s() - cpu0; }
  double busy_frac(int threads) const { return cpu_s() / (wall_s() * threads); }
};

double median(std::vector<double> v);

/// The q-quantile (0 < q < 1) of `samples` by nearest rank, reported only
/// when at least 10 samples lie beyond it; otherwise nullopt. With n
/// samples, p50 needs n >= 20 and p99 needs n >= 1000.
std::optional<double> percentile(std::vector<double> samples, double q);

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone and not on any library version.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// Order-independent digest of a set of lines: the lines are sorted before
/// hashing, so the digest depends on what was computed, not on the order a
/// seeded grid or a thread pool produced it in.
class Digest {
 public:
  void add(std::string line) { lines_.push_back(std::move(line)); }
  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  std::vector<std::string> lines_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  int tid = 0;      ///< small per-thread number, for the trace viewer
};

/// Process-wide span recorder. Disabled, begin() returns -1 after one
/// relaxed load and records nothing (the name is not even copied). Spans are kept in memory until
/// spans()/clear(); a span's parent defaults to the innermost open span on
/// the calling thread, and work fanned out to other threads passes its
/// parent explicitly.
class Tracer {
 public:
  void set_enabled(bool on);
  bool enabled() const;
  int begin(std::string_view name, int parent);
  void end(int id);
  /// Innermost open span on this thread, or -1.
  static int current();
  std::vector<Span> spans() const;
  void clear();
};

Tracer& tracer();

/// RAII span. `parent` < -1 means "the innermost open span on this thread".
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, int parent = -2);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Self time of every span in seconds: its duration minus the part of its
/// interval covered by the union of its children's intervals.
std::vector<double> self_seconds(const std::vector<Span>& spans);

struct SpanTotal {
  double self_s = 0;
  std::int64_t calls = 0;
};

/// Self time and call count per span name.
std::map<std::string, SpanTotal> totals_by_name(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events, microseconds);
/// each event carries its id, parent and self time in `args`.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
