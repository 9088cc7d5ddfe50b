// perfbench: the repository benchmark.
//
//   perfbench --workload <cold_sweep|hw_sweep|serve|train> --seed <n>
//             --seconds <s> --trace <0|1> --tmp-dir <dir> --data-dir <dir>
//             [--trace-out <file.json>]
//
// Untraced (--trace 0), a run is rounds of setup + timed phase + output
// check until the timed phases add up to --seconds (at least three rounds),
// and it reports the end-to-end metrics. Traced (--trace 1), it runs
// setup + timed phase + attribution once with the span recorder off and
// once with it on, and reports the per-layer metrics of the second pass
// plus the wall-time difference as tracing overhead. Either way the last
// stdout line is one JSON object: correct, attempted, failed, metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "train/gemm_microkernels.h"
#include "util/cpu.h"
#include "util/parallel.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mib", "MiB"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"models.make_network.s", "s"},
      {"sched.build_schedule.s", "s"},
      {"sched.build_schedule.calls", "count"},
      {"sched.build_schedule.greedy.s", "s"},
      {"sched.build_schedule.dp.s", "s"},
      {"sched.build_schedule.noncontig.s", "s"},
      {"sched.compute_traffic.s", "s"},
      {"sched.compute_traffic.calls", "count"},
      {"sched.compute_traffic.in_step.s", "s"},
      {"sim.simulate_step.s", "s"},
      {"sim.simulate_step.calls", "count"},
      {"arch.simulate_systolic_step.s", "s"},
      {"arch.simulate_systolic_step.calls", "count"},
      {"arch.simulate_gpu_step.s", "s"},
      {"arch.simulate_gpu_step.calls", "count"},
  };
  for (const char* st : {"network", "schedule", "traffic", "step", "systolic", "gpu"}) {
    d.push_back({std::string("engine.evaluator.") + st + ".computed", "count"});
    d.push_back({std::string("engine.evaluator.") + st + ".disk_hits", "count"});
  }
  d.push_back({"engine.sweep_runner.busy_frac", "ratio"});
  d.push_back({"engine.cache_store.save.s", "s"});
  d.push_back({"engine.cache_store.entries_written", "count"});
  d.push_back({"engine.cache_store.save_failures", "count"});
  for (const char* st : {"schedule", "traffic", "step", "systolic_step"})
    d.push_back({std::string("engine.cache_store.load_") + st + ".us", "us"});
  d.push_back({"engine.cache_store.loaded_entries", "count"});
  d.push_back({"engine.cache_store.corrupt_entries", "count"});
  d.push_back({"engine.parse_scenario.us", "us"});
  d.push_back({"engine.format_answer.us", "us"});
  d.push_back({"engine.serve.query.p50_us", "us"});
  d.push_back({"engine.serve.query.p99_us", "us"});
  for (const char* tier : {"hot", "store", "computed"}) {
    d.push_back({std::string("engine.serve.") + tier + ".count", "count"});
    d.push_back({std::string("engine.serve.") + tier + ".p50_us", "us"});
    d.push_back({std::string("engine.serve.") + tier + ".p99_us", "us"});
  }
  d.push_back({"engine.serve.hot_hit_ratio", "ratio"});
  d.push_back({"engine.serve.errors", "count"});
  d.push_back({"engine.serve.degraded", "count"});
  for (const char* k : {"conv_fwd", "conv_bwd", "norm", "pool", "relu", "linear",
                        "sgd", "gemm", "im2col"}) {
    d.push_back({std::string("train.kernel.") + k + ".s", "s"});
    d.push_back({std::string("train.kernel.") + k + ".calls", "count"});
  }
  d.push_back({"train.kernel.conv_fwd.gflops", "GF/s"});
  d.push_back({"train.kernel.conv_bwd.gflops", "GF/s"});
  d.push_back({"train.kernel.busy_frac", "ratio"});
  for (const char* p : {"forward", "backward", "sgd"})
    d.push_back({std::string("train.step.") + p + ".s", "s"});
  for (const char* st : {"stage0", "stage1"})
    for (const char* k : {"conv_fwd", "conv_bwd", "norm_fwd", "norm_bwd"})
      d.push_back({std::string("train.layer.") + st + "." + k + ".us", "us"});
  d.push_back({"unattributed.s", "s"});
  d.push_back({"trace.overhead_frac", "ratio"});
  return d;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_sweep|hw_sweep|serve|train> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp-dir <dir> --data-dir <dir> "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

/// MBS_CACHE_DIR, MBS_FAULTS, MBS_KERNEL, MBS_NO_CONV_CACHE, MBS_THREADS
/// and the rest would each change what is measured.
void clear_mbs_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "MBS_", 4) == 0)
      names.emplace_back(*e, std::strcspn(*e, "="));
  for (const std::string& n : names) unsetenv(n.c_str());
}

void print_json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

/// A metric of the traced pass that a workload did not set itself, from
/// the spans: <span>.s is self time, <span>.calls the count, <span>.us the
/// mean self time per call. sched.build_schedule totals its three
/// groupings.
double from_spans(const std::string& name,
                  const std::map<std::string, SpanTotal>& totals) {
  auto split = name.rfind('.');
  const std::string base = name.substr(0, split), suffix = name.substr(split + 1);
  SpanTotal t;
  for (const auto& [span, total] : totals)
    if (span == base || (base == "sched.build_schedule" &&
                         span.rfind("sched.build_schedule.", 0) == 0)) {
      t.self_s += total.self_s;
      t.calls += total.calls;
    }
  if (suffix == "s") return t.self_s;
  if (suffix == "calls") return static_cast<double>(t.calls);
  if (suffix == "us") return t.calls ? t.self_s / static_cast<double>(t.calls) * 1e6 : 0;
  return 0;
}

std::vector<double> latencies_of(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> us;
  for (const Span& s : spans)
    if (s.name == name) us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  clear_mbs_environment();
  Options o;
  std::string trace_out;
  bool have_trace_flag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v.c_str());
    else if (flag == "--trace") { o.trace = v == "1"; have_trace_flag = v == "0" || v == "1"; }
    else if (flag == "--tmp-dir") o.tmp_dir = v;
    else if (flag == "--data-dir") o.data_dir = v;
    else if (flag == "--trace-out") trace_out = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (!have_trace_flag) usage("--trace must be 0 or 1");
  if (o.tmp_dir.empty() || o.data_dir.empty()) usage("--tmp-dir and --data-dir are required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");

  // A fixed budget: four threads, or fewer on a smaller host.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  o.threads = std::min(4, nproc);
  mbs::util::set_thread_budget(o.threads);

  std::unique_ptr<Workload> w;
  if (o.workload == "cold_sweep") w = make_cold_sweep(o);
  else if (o.workload == "hw_sweep") w = make_hw_sweep(o);
  else if (o.workload == "serve") w = make_serve(o);
  else if (o.workload == "train") w = make_train(o);
  else usage(("unknown workload '" + o.workload + "'").c_str());

  std::printf("host nproc=%d threads=%d isa=%s compiler=\"%s\" build=%s\n", nproc,
              o.threads, mbs::util::to_string(mbs::train::active_gemm_isa()),
              __VERSION__, PERFBENCH_BUILD_TYPE);

  Tally tally;
  std::map<std::string, double> metrics;
  const double t_start = now_s();
  int rounds = 0;
  if (!o.trace) {
    std::vector<double> setup_s, ops_per_s, cpu_us;
    double timed = 0, longest_round = 0;
    // At least three rounds; stop early only to finish well inside 180 s.
    while (rounds < 3 || timed < o.seconds) {
      const double r0 = now_s();
      // A cheap setup is repeated (each drops the last one's state), up to
      // ten times while the repetitions take under 50 ms, so its median
      // rests on enough samples.
      double spent = 0;
      for (int k = 0; k < 10 && spent < 0.05; ++k) {
        const double s0 = now_s();
        w->setup();
        setup_s.push_back(now_s() - s0);
        spent += setup_s.back();
      }
      const Workload::Timed t = w->run();
      ops_per_s.push_back(static_cast<double>(t.ops) / t.seconds);
      cpu_us.push_back(t.cpu_s / static_cast<double>(t.ops) * 1e6);
      timed += t.seconds;
      w->check(tally);
      w->teardown();
      ++rounds;
      longest_round = std::max(longest_round, now_s() - r0);
      if (now_s() - t_start + longest_round > 120) break;
    }
    metrics["setup_s"] = median(setup_s);
    metrics["ops_per_s"] = median(ops_per_s);
    metrics["cpu_us_per_op"] = median(cpu_us);
    metrics["peak_rss_mib"] = peak_rss_mib();
    std::printf("rounds=%d timed_s=%.3f %s/s per round:", rounds, timed, w->op_name());
    for (double v : ops_per_s) std::printf(" %.1f", v);
    std::printf("\n");
  } else {
    LayerMetrics layer;
    double wall[2] = {0, 0};
    std::vector<Span> spans;
    for (int pass = 0; pass < 2; ++pass) {
      tracer().clear();
      tracer().set_enabled(pass == 1);
      const double t0 = now_s();
      {
        ScopedSpan root("perfbench." + o.workload);
        w->setup();
        w->run();
        w->attribute(layer, tally);
      }
      wall[pass] = now_s() - t0;
      tracer().set_enabled(false);
      if (pass == 1) spans = tracer().spans();
      w->check(tally);
      w->teardown();
      ++rounds;
    }
    const std::map<std::string, SpanTotal> totals = totals_by_name(spans);
    for (const MetricDef& d : per_layer_defs()) {
      auto it = layer.find(d.name);
      metrics[d.name] = it != layer.end() ? it->second : from_spans(d.name, totals);
    }
    // Whole-query latency of the traced serve pass, all tiers.
    const std::vector<double> query_us = latencies_of(spans, "engine.serve.query");
    metrics["engine.serve.query.p50_us"] = percentile(query_us, 0.50).value_or(0);
    metrics["engine.serve.query.p99_us"] = percentile(query_us, 0.99).value_or(0);
    metrics["unattributed.s"] = spans.empty() ? 0 : self_seconds(spans)[0];
    metrics["trace.overhead_frac"] = (wall[1] - wall[0]) / wall[0];
    std::printf("traced wall %.3f s, untraced %.3f s, %zu spans\n", wall[1], wall[0],
                spans.size());
    if (!trace_out.empty()) {
      if (write_chrome_trace(trace_out, spans))
        std::printf("trace written to %s\n", trace_out.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  for (const std::string& line : w->notes()) std::printf("%s\n", line.c_str());
  for (const std::string& p : tally.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("workload=%s seed=%llu rounds=%d attempted=%lld failed=%lld "
              "error_rate=%.6g\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), rounds,
              static_cast<long long>(tally.attempted), static_cast<long long>(tally.failed),
              tally.attempted ? static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 0.0);

  // The metric set of this mode, each with its unit.
  const std::vector<MetricDef> defs = o.trace ? per_layer_defs() : kEndToEnd;
  for (const MetricDef& d : defs)
    std::printf("metric %-40s %.6g %s\n", d.name.c_str(), metrics[d.name],
                d.unit.c_str());
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", defs[i].name.c_str());
    print_json_number(metrics[defs[i].name]);
    std::printf(", \"unit\": \"%s\"}", defs[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
