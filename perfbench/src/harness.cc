#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace perfbench {

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0 || q >= 1) return std::nullopt;
  // Nearest rank k (1-based); the tolerance keeps 0.99 * 1000 at 990.
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (k < 1 || n - k < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k - 1),
                   samples.end());
  return samples[k - 1];
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t h = 14695981039346656037ull) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string Digest::hex() const {
  std::vector<std::string> sorted = lines_;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = fnv1a64("perfbench-digest-v1");
  for (const std::string& line : sorted) {
    h = fnv1a64(line, h);
    h = fnv1a64("\n", h);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
std::atomic<int> g_next_tid{0};

thread_local std::vector<int> t_open;  // this thread's open span ids
thread_local int t_tid = -1;

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::set_enabled(bool on) { g_enabled.store(on); }

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

int Tracer::begin(std::string_view name, int parent) {
  if (!enabled()) return -1;
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  Span s;
  s.name = name;
  s.parent = parent < -1 ? current() : parent;
  s.tid = t_tid;
  s.start_ns = now_ns();
  int id;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    id = static_cast<int>(g_spans.size());
    g_spans.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::current() { return t_open.empty() ? -1 : t_open.back(); }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

ScopedSpan::ScopedSpan(std::string_view name, int parent)
    : id_(tracer().begin(name, parent)) {}

ScopedSpan::~ScopedSpan() { tracer().end(id_); }

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(hi - lo - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, SpanTotal> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, SpanTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotal& t = out[spans[i].name];
    t.self_s += self[i];
    ++t.calls;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::vector<double> self = self_seconds(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"self_us\":%.3f}}",
                 i ? ",\n" : "", s.name.c_str(), s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, self[i] * 1e6);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
