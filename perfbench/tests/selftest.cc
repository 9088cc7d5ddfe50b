// Self-tests of the benchmark harness: the percentile rule, span self-time
// arithmetic, and answer digests that do not depend on the thread budget or
// on the order a seeded grid was generated in.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  CHECK(!percentile({}, 0.5));
  CHECK(!percentile(one_to(19), 0.5));  // rank 10 leaves 9 beyond
  CHECK(percentile(one_to(20), 0.5) == 10.0);
  CHECK(!percentile(one_to(999), 0.99));
  CHECK(percentile(one_to(1000), 0.99) == 990.0);  // 10 samples beyond
  CHECK(percentile(one_to(2000), 0.99) == 1980.0);
  CHECK(!percentile(one_to(1000), 0.999));
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void self_time_arithmetic() {
  // Root [0, 1000) ns with children that overlap each other (two threads),
  // one that runs past the root's end, and a grandchild.
  const std::vector<Span> spans = {
      span("root", 0, 1000, -1),
      span("a", 100, 300, 0),
      span("b", 200, 500, 0),    // overlaps a: union [100, 500)
      span("c", 900, 1200, 0),   // clipped to [900, 1000)
      span("a", 150, 200, 1),    // grandchild inside the first a
      span("d", 600, 600, 0),    // empty
  };
  const std::vector<double> self = self_seconds(spans);
  CHECK(std::fabs(self[0] - 500e-9) < 1e-15);  // 1000 - 400 - 100
  CHECK(std::fabs(self[1] - 150e-9) < 1e-15);  // 200 - 50
  CHECK(std::fabs(self[2] - 300e-9) < 1e-15);
  CHECK(std::fabs(self[3] - 300e-9) < 1e-15);
  CHECK(std::fabs(self[4] - 50e-9) < 1e-15);
  CHECK(self[5] == 0);
  const auto totals = totals_by_name(spans);
  CHECK(totals.at("a").calls == 2);
  CHECK(std::fabs(totals.at("a").self_s - 200e-9) < 1e-15);

  // The live recorder: nothing while disabled; parents nest per thread,
  // and work on another thread names its parent explicitly.
  tracer().clear();
  { ScopedSpan off("off"); }
  CHECK(tracer().spans().empty());
  tracer().set_enabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    const int parent = Tracer::current();
    mbs::engine::SweepOptions so;
    so.threads = 2;
    mbs::engine::SweepRunner(so).for_each_index(
        4, [&](int) { ScopedSpan worker("worker", parent); });
  }
  tracer().set_enabled(false);
  const std::vector<Span> live = tracer().spans();
  CHECK(live.size() == 6);
  CHECK(live[0].name == "outer" && live[0].parent == -1);
  CHECK(live[1].name == "inner" && live[1].parent == 0);
  for (std::size_t i = 2; i < live.size(); ++i)
    CHECK(live[i].name == "worker" && live[i].parent == 0);
  for (const Span& s : live) CHECK(s.end_ns >= s.start_ns);
  CHECK(self_seconds(live)[0] >= 0);
  tracer().clear();
}

/// A small grid touching every device, stage and grouping path.
std::vector<mbs::engine::Scenario> small_grid() {
  using namespace mbs;
  std::vector<engine::Scenario> grid;
  for (const char* net : {"alexnet", "transformer_base", "resnet50"})
    for (sched::ExecConfig cfg : sched::paper_tab3_configs())
      for (int grouping = 0; grouping < 3; ++grouping) {
        engine::Scenario s;
        s.network = net;
        s.config = cfg;
        s.params.optimal_grouping = grouping == 1;
        if (grouping == 2) s.params.variant = sched::GroupingVariant::kNonContiguous;
        grid.push_back(s);
        s.device = engine::Device::kSystolic;
        s.systolic.dataflow = arch::Dataflow::kWeightStationary;
        grid.push_back(s);
        s.device = engine::Device::kWaveCore;
        s.stage = engine::Stage::kTraffic;
        grid.push_back(s);
      }
  for (const char* net : {"alexnet", "resnet50"}) {
    engine::Scenario s;
    s.network = net;
    s.device = engine::Device::kGpu;
    grid.push_back(s);
  }
  return grid;
}

void digest_stability() {
  using namespace mbs;
  std::vector<engine::Scenario> grid = small_grid();
  std::vector<std::string> digests;
  for (int threads : {1, 2, 4}) {
    util::set_thread_budget(threads);
    engine::SweepOptions so;
    so.threads = threads;
    engine::Evaluator eval;
    digests.push_back(digest_of(engine::SweepRunner(so).run(grid, eval)));
    digests.push_back(attribute_pipeline(grid, threads, StageInputs::kCompute, nullptr));
    Rng rng(static_cast<std::uint64_t>(threads));
    shuffle(grid, rng);
  }
  util::set_thread_budget(-1);
  for (const std::string& d : digests) CHECK(d == digests[0]);
  CHECK(digests[0].size() == 16);

  Digest a, b;
  a.add("x");
  a.add("y");
  b.add("y");
  b.add("x");
  CHECK(a.hex() == b.hex());
  b.add("z");
  CHECK(a.hex() != b.hex());
}

}  // namespace

int main() {
  percentile_rule();
  self_time_arithmetic();
  digest_stability();
  if (g_failures) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
