// Cycle-level systolic backend: hand-computed fold/cycle counts per
// dataflow, conservation invariants of the step-level result, and the
// double-buffer / bandwidth edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/memory.h"
#include "arch/systolic.h"
#include "core/block.h"
#include "models/zoo.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"
#include "sim/simulator.h"

namespace mbs::arch {
namespace {

/// 4x4 array at 1 GHz: small enough that every fold below is checkable by
/// hand from the model's documented formula
///   cycles = preload + stream + span_a + span_b - 2.
SystolicConfig tiny_array() {
  SystolicConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.clock_hz = 1e9;
  return cfg;
}

TEST(GemmCycles, OutputStationarySingleFold) {
  // C[2x3] = A[2x5] * B[5x3] fits one fold: K=5 streams through a 2x3
  // mapped region -> 5 + 2 + 3 - 2 = 8 cycles, no partial-sum spills.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 8);
  EXPECT_EQ(g.folds, 1);
  EXPECT_EQ(g.mapped_pe_folds, 6);
  EXPECT_EQ(g.macs, 30);
  EXPECT_DOUBLE_EQ(g.mapping_eff(tiny_array()), 6.0 / 16.0);
  // fp16 streams: A once (2x5), B once (5x3), C written once (2x3).
  EXPECT_EQ(g.bytes.a, 2 * 2 * 5);
  EXPECT_EQ(g.bytes.b, 2 * 5 * 3);
  EXPECT_EQ(g.bytes.c, 2 * 2 * 3);
  // Single fold's working set = all three tiles.
  EXPECT_EQ(g.max_fold_bytes, 2 * (2 * 5 + 5 * 3 + 2 * 3));
}

TEST(GemmCycles, WeightStationaryFoldsReduction) {
  // K=5 folds over 4 array rows as k_t = 4 then 1; one n-fold (Gw=3).
  // fold 1: preload 4 + stream Gh=2 + (4 + 3 - 2) = 11 cycles
  // fold 2: preload 1 + stream 2 + (1 + 3 - 2) = 5 cycles
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kWeightStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 11 + 5);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 3 + 1 * 3);
  EXPECT_EQ(g.macs, 30);
  // A streams per fold (2x4 then 2x1), B preloads each fold exactly once
  // (total = K*Gw), C partials: written by both k-folds, re-read by the
  // second -> 3 * Gh*Gw elements.
  EXPECT_EQ(g.bytes.a, 2 * (2 * 4 + 2 * 1));
  EXPECT_EQ(g.bytes.b, 2 * 5 * 3);
  EXPECT_EQ(g.bytes.c, 2 * 3 * 2 * 3);
  EXPECT_EQ(g.max_fold_bytes, 2 * (4 * 3 + 2 * 4 + 2 * 3));
}

TEST(GemmCycles, InputStationaryFoldsReduction) {
  // Mirror of ws with A pinned: folds (k_t=4, m_t=2) and (k_t=1, m_t=2),
  // streaming Gw=3: 4+3+(4+2-2)=11 and 1+3+(1+2-2)=5 cycles.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kInputStationary, {2, 3, 5});
  EXPECT_EQ(g.comp_cycles, 11 + 5);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 2 + 1 * 2);
  EXPECT_EQ(g.macs, 30);
  EXPECT_EQ(g.bytes.a, 2 * (4 * 2 + 1 * 2));  // A preloads once per fold
  EXPECT_EQ(g.bytes.b, 2 * (3 * 4 + 3 * 1));  // B streams per fold
  EXPECT_EQ(g.bytes.c, 2 * 3 * 2 * 3);        // psums: write, write+read
}

TEST(GemmCycles, SingleMacGemm) {
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary,
                                 {1, 1, 1})
                .comp_cycles,
            1);  // 0 preload + 1 stream + 1 + 1 - 2
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kWeightStationary,
                                 {1, 1, 1})
                .comp_cycles,
            2);  // 1 preload + 1 stream + 1 + 1 - 2
  EXPECT_EQ(simulate_gemm_cycles(tiny_array(), Dataflow::kInputStationary,
                                 {1, 1, 1})
                .comp_cycles,
            2);
}

TEST(GemmCycles, FullArrayFoldMapsEveryPe) {
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {4, 4, 4});
  EXPECT_EQ(g.comp_cycles, 4 + 4 + 4 - 2);
  EXPECT_EQ(g.folds, 1);
  EXPECT_DOUBLE_EQ(g.mapping_eff(tiny_array()), 1.0);
}

TEST(GemmCycles, EdgeFoldsAreExact) {
  // Gh=5 over 4 rows: folds of m_t = 4 and 1 (one n-fold, Gw=3, K=2):
  // (2+4+3-2) + (2+1+3-2) = 7 + 4.
  const GemmCycles g =
      simulate_gemm_cycles(tiny_array(), Dataflow::kOutputStationary, {5, 3, 2});
  EXPECT_EQ(g.comp_cycles, 11);
  EXPECT_EQ(g.folds, 2);
  EXPECT_EQ(g.mapped_pe_folds, 4 * 3 + 1 * 3);
}

// ---------------------------------------------------------------------------
// Closed forms == the per-tile and per-fold loops they replaced.
// ---------------------------------------------------------------------------

/// The wave model as a loop over every output tile (the form simulate_gemm
/// had before its sums were reduced to closed form).
GemmTiming reference_gemm(const SystolicConfig& cfg, const GemmShape& shape) {
  const std::int64_t m = cfg.tile_m();
  const std::int64_t n = cfg.cols;
  const std::int64_t k_rows = cfg.rows;
  const std::int64_t tiles_h = (shape.gh + m - 1) / m;
  const std::int64_t tiles_w = (shape.gw + n - 1) / n;
  const std::int64_t waves = (shape.k + k_rows - 1) / k_rows;
  GemmTiming t;
  t.macs = shape.macs();
  for (std::int64_t th = 0; th < tiles_h; ++th) {
    const std::int64_t m_t = std::min(m, shape.gh - th * m);
    for (std::int64_t tw = 0; tw < tiles_w; ++tw) {
      const std::int64_t n_t = std::min(n, shape.gw - tw * n);
      if (cfg.weight_double_buffering)
        t.cycles += k_rows + waves * std::max(m_t, k_rows) + n_t;
      else
        t.cycles += waves * (k_rows + m_t) + k_rows + n_t;
    }
  }
  t.buf_read_bytes = 2 * (shape.gh * shape.k * tiles_w +
                          shape.k * shape.gw * tiles_h);
  t.buf_write_bytes = 2 * shape.gh * shape.gw;
  t.utilization = static_cast<double>(t.macs) /
                  (static_cast<double>(t.cycles) * cfg.rows * cfg.cols);
  return t;
}

/// The cycle-level model as a loop over every fold (the form
/// simulate_gemm_cycles had before its sums were reduced to closed form).
GemmCycles reference_gemm_cycles(const SystolicConfig& cfg, Dataflow df,
                                 const GemmShape& shape) {
  constexpr std::int64_t kElemBytes = 2;
  const std::int64_t R = cfg.rows;
  const std::int64_t C = cfg.cols;
  GemmCycles g;
  auto add_fold = [&](std::int64_t preload, std::int64_t stream,
                      std::int64_t span_a, std::int64_t span_b,
                      std::int64_t macs, std::int64_t fold_elems) {
    g.comp_cycles += preload + stream + span_a + span_b - 2;
    g.mapped_pe_folds += span_a * span_b;
    g.macs += macs;
    g.folds += 1;
    g.max_fold_bytes = std::max(g.max_fold_bytes, kElemBytes * fold_elems);
  };
  if (df == Dataflow::kOutputStationary) {
    for (std::int64_t h0 = 0; h0 < shape.gh; h0 += R) {
      const std::int64_t m_t = std::min(R, shape.gh - h0);
      for (std::int64_t w0 = 0; w0 < shape.gw; w0 += C) {
        const std::int64_t n_t = std::min(C, shape.gw - w0);
        add_fold(0, shape.k, m_t, n_t, m_t * n_t * shape.k,
                 m_t * shape.k + shape.k * n_t + m_t * n_t);
        g.bytes.a += kElemBytes * m_t * shape.k;
        g.bytes.b += kElemBytes * shape.k * n_t;
        g.bytes.c += kElemBytes * m_t * n_t;
      }
    }
    return g;
  }
  for (std::int64_t k0 = 0; k0 < shape.k; k0 += R) {
    const std::int64_t k_t = std::min(R, shape.k - k0);
    const std::int64_t psum_rw = k0 == 0 ? 1 : 2;
    if (df == Dataflow::kWeightStationary) {
      for (std::int64_t w0 = 0; w0 < shape.gw; w0 += C) {
        const std::int64_t n_t = std::min(C, shape.gw - w0);
        add_fold(k_t, shape.gh, k_t, n_t, k_t * n_t * shape.gh,
                 k_t * n_t + shape.gh * k_t + shape.gh * n_t);
        g.bytes.a += kElemBytes * shape.gh * k_t;
        g.bytes.b += kElemBytes * k_t * n_t;
        g.bytes.c += kElemBytes * psum_rw * shape.gh * n_t;
      }
    } else {
      for (std::int64_t h0 = 0; h0 < shape.gh; h0 += C) {
        const std::int64_t m_t = std::min(C, shape.gh - h0);
        add_fold(k_t, shape.gw, k_t, m_t, k_t * m_t * shape.gw,
                 k_t * m_t + shape.gw * k_t + m_t * shape.gw);
        g.bytes.a += kElemBytes * k_t * m_t;
        g.bytes.b += kElemBytes * shape.gw * k_t;
        g.bytes.c += kElemBytes * psum_rw * m_t * shape.gw;
      }
    }
  }
  return g;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

struct ArrayGeometry {
  int rows, cols;
};

class ClosedFormReference : public ::testing::TestWithParam<ArrayGeometry> {};

TEST_P(ClosedFormReference, EveryFieldMatchesTheFoldLoops) {
  const ArrayGeometry a = GetParam();
  // Cases whose reference loop would run more than this many tiles or folds
  // are skipped (two 200003-long dimensions on a small array); every other
  // (shape, array, tile_m, double-buffering, dataflow) point is compared.
  constexpr std::int64_t kMaxReferenceFolds = 1 << 18;
  std::int64_t compared = 0, skipped = 0;
  for (std::int64_t acc : {static_cast<std::int64_t>(a.rows) * a.cols * 4,
                           std::int64_t{128 * 1024}}) {
    SystolicConfig cfg;
    cfg.rows = a.rows;
    cfg.cols = a.cols;
    cfg.acc_half_bytes = acc;
    ASSERT_GT(cfg.tile_m(), 0);
    // Each dimension sits on, beside and well past every tile edge it can
    // be cut at: rows and cols for all three, tile_m for Gh too.
    auto edges = [](std::initializer_list<std::int64_t> tiles) {
      std::vector<std::int64_t> dims;
      for (std::int64_t x : tiles)
        for (std::int64_t d : {std::int64_t{1}, x - 1, x, x + 1, 3 * x,
                               3 * x + 5, std::int64_t{200003}})
          if (d > 0 && std::find(dims.begin(), dims.end(), d) == dims.end())
            dims.push_back(d);
      return dims;
    };
    const std::vector<std::int64_t> dims = edges({cfg.rows, cfg.cols});
    for (std::int64_t gh : edges({cfg.rows, cfg.cols, cfg.tile_m()}))
      for (std::int64_t gw : dims)
        for (std::int64_t k : dims) {
          const GemmShape shape{gh, gw, k};
          SCOPED_TRACE(testing::Message()
                       << a.rows << "x" << a.cols << " tile_m=" << cfg.tile_m()
                       << " shape=" << gh << "x" << gw << "x" << k);
          if (ceil_div(gh, cfg.tile_m()) * ceil_div(gw, cfg.cols) <=
              kMaxReferenceFolds) {
            for (bool db : {true, false}) {
              SCOPED_TRACE(db ? "double-buffered" : "single-buffered");
              cfg.weight_double_buffering = db;
              const GemmTiming got = simulate_gemm(cfg, shape);
              const GemmTiming want = reference_gemm(cfg, shape);
              EXPECT_EQ(got.cycles, want.cycles);
              EXPECT_EQ(got.macs, want.macs);
              EXPECT_EQ(got.utilization, want.utilization);
              EXPECT_EQ(got.buf_read_bytes, want.buf_read_bytes);
              EXPECT_EQ(got.buf_write_bytes, want.buf_write_bytes);
              ++compared;
            }
          } else {
            skipped += 2;
          }
          const std::int64_t folds[] = {
              ceil_div(gh, cfg.rows) * ceil_div(gw, cfg.cols),
              ceil_div(k, cfg.rows) * ceil_div(gw, cfg.cols),
              ceil_div(k, cfg.rows) * ceil_div(gh, cfg.cols)};
          const Dataflow dfs[] = {Dataflow::kOutputStationary,
                                  Dataflow::kWeightStationary,
                                  Dataflow::kInputStationary};
          for (int i = 0; i < 3; ++i) {
            if (folds[i] > kMaxReferenceFolds) {
              ++skipped;
              continue;
            }
            SCOPED_TRACE(to_string(dfs[i]));
            const GemmCycles got = simulate_gemm_cycles(cfg, dfs[i], shape);
            const GemmCycles want = reference_gemm_cycles(cfg, dfs[i], shape);
            EXPECT_EQ(got.comp_cycles, want.comp_cycles);
            EXPECT_EQ(got.macs, want.macs);
            EXPECT_EQ(got.folds, want.folds);
            EXPECT_EQ(got.mapped_pe_folds, want.mapped_pe_folds);
            EXPECT_EQ(got.bytes.a, want.bytes.a);
            EXPECT_EQ(got.bytes.b, want.bytes.b);
            EXPECT_EQ(got.bytes.c, want.bytes.c);
            EXPECT_EQ(got.max_fold_bytes, want.max_fold_bytes);
            ++compared;
          }
        }
  }
  // Skips are the points with two very long dimensions; most of the grid
  // runs against the reference.
  EXPECT_GT(compared, 2 * skipped);
}

INSTANTIATE_TEST_SUITE_P(
    Arrays, ClosedFormReference,
    ::testing::Values(ArrayGeometry{1, 1}, ArrayGeometry{7, 3},
                      ArrayGeometry{64, 64}, ArrayGeometry{128, 128},
                      ArrayGeometry{256, 256}));

// ---------------------------------------------------------------------------
// Step-level invariants.
// ---------------------------------------------------------------------------

struct StepFixture {
  core::Network net = models::make_network("alexnet");
  sched::Schedule schedule =
      sched::build_schedule(net, sched::ExecConfig::kMbs2);
  sched::Traffic traffic = sched::compute_traffic(net, schedule);

  SystolicSimParams params() const {
    SystolicSimParams p;
    p.dram_bw_bytes_per_s = arch::hbm2().per_core_bandwidth(2);
    p.buffer_bw_bytes = 5e11;
    p.vector_flops = 2.87e12;
    return p;
  }
};

class SystolicStepDataflows : public ::testing::TestWithParam<Dataflow> {};

TEST_P(SystolicStepDataflows, ConservationInvariants) {
  StepFixture f;
  SystolicSimParams p = f.params();
  p.options.dataflow = GetParam();
  const SystolicStepResult r =
      simulate_systolic_step(f.net, f.schedule, f.traffic, p);

  EXPECT_EQ(r.stats.comp_cycles + r.stats.stall_cycles,
            r.stats.total_cycles());
  EXPECT_GT(r.stats.comp_cycles, 0);
  EXPECT_GT(r.stats.util, 0);
  EXPECT_LE(r.stats.util, 1.0);
  EXPECT_GT(r.stats.mapping_eff, 0);
  EXPECT_LE(r.stats.mapping_eff, 1.0);
  // Times are the cycle counters in seconds — nothing else contributes.
  EXPECT_DOUBLE_EQ(r.time_s, r.compute_time_s + r.stall_time_s);
  EXPECT_DOUBLE_EQ(
      r.time_s,
      static_cast<double>(r.stats.total_cycles()) / p.array.clock_hz);
  EXPECT_GT(r.dram_bytes, 0);
  EXPECT_GT(r.total_macs, 0);
  EXPECT_GT(r.bw_ifmap, 0);
  EXPECT_GT(r.bw_filter, 0);
  EXPECT_GT(r.bw_ofmap, 0);
}

TEST_P(SystolicStepDataflows, UnlimitedBandwidthMeansZeroStalls) {
  StepFixture f;
  SystolicSimParams p = f.params();
  p.options.dataflow = GetParam();
  p.options.scratchpad_bytes = 1;  // even with no double buffering
  p.dram_bw_bytes_per_s = 0;       // unconstrained
  const SystolicStepResult r =
      simulate_systolic_step(f.net, f.schedule, f.traffic, p);
  EXPECT_EQ(r.stats.stall_cycles, 0);
  EXPECT_DOUBLE_EQ(r.time_s, r.compute_time_s);
}

TEST_P(SystolicStepDataflows, DeterministicAcrossCalls) {
  StepFixture f;
  SystolicSimParams p = f.params();
  p.options.dataflow = GetParam();
  const SystolicStepResult a =
      simulate_systolic_step(f.net, f.schedule, f.traffic, p);
  const SystolicStepResult b =
      simulate_systolic_step(f.net, f.schedule, f.traffic, p);
  EXPECT_EQ(a.stats.comp_cycles, b.stats.comp_cycles);
  EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.bw_ifmap, b.bw_ifmap);
}

INSTANTIATE_TEST_SUITE_P(AllDataflows, SystolicStepDataflows,
                         ::testing::Values(Dataflow::kOutputStationary,
                                           Dataflow::kWeightStationary,
                                           Dataflow::kInputStationary),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SystolicStep, MacsMatchAnalyticBackend) {
  // Same chunks, same first-GEMM data-grad skip: both backends count the
  // exact same useful arithmetic, whatever the mapping.
  StepFixture f;
  const sim::StepResult analytic =
      sim::simulate_step(f.net, f.schedule, sim::WaveCoreConfig{});
  for (Dataflow df : {Dataflow::kOutputStationary,
                      Dataflow::kWeightStationary,
                      Dataflow::kInputStationary}) {
    SystolicSimParams p = f.params();
    p.options.dataflow = df;
    const SystolicStepResult r =
        simulate_systolic_step(f.net, f.schedule, f.traffic, p);
    EXPECT_DOUBLE_EQ(r.total_macs, analytic.total_macs);
    EXPECT_DOUBLE_EQ(r.dram_bytes, analytic.dram_bytes);
  }
}

TEST(SystolicStep, AttentionMatchesAnalyticBackendUnconstrained) {
  // The attention kind's activation-activation GEMMs (Q.K^T, P.V and their
  // four backward shapes) and softmax vector work are modeled twice —
  // analytically (sim::simulate_step) and at cycle level. With
  // unconstrained DRAM both backends must agree exactly on useful
  // arithmetic and bytes moved, for every dataflow and sequence length.
  // This is the differential gate for the attention traffic model: a
  // one-sided change to either backend breaks it.
  for (const char* name : {"vit_small", "transformer_base"})
    for (int seq : {0, 256}) {
      const core::Network net = models::make_network(name, seq);
      int attention_layers = 0;
      for (const core::Block& b : net.blocks)
        b.for_each_layer([&](const core::Layer& l, int) {
          attention_layers += (l.kind == core::LayerKind::kAttention) ? 1 : 0;
        });
      ASSERT_GT(attention_layers, 0) << name;

      const sched::Schedule schedule =
          sched::build_schedule(net, sched::ExecConfig::kMbs2);
      const sched::Traffic traffic = sched::compute_traffic(net, schedule);
      const sim::StepResult analytic =
          sim::simulate_step(net, schedule, sim::WaveCoreConfig{});

      for (Dataflow df : {Dataflow::kOutputStationary,
                          Dataflow::kWeightStationary,
                          Dataflow::kInputStationary}) {
        SystolicSimParams p;
        p.options.dataflow = df;
        p.dram_bw_bytes_per_s = 0;  // unconstrained
        p.buffer_bw_bytes = 5e11;
        p.vector_flops = 2.87e12;
        const SystolicStepResult r =
            simulate_systolic_step(net, schedule, traffic, p);
        EXPECT_EQ(r.stats.stall_cycles, 0)
            << name << " seq=" << seq << " " << to_string(df);
        EXPECT_DOUBLE_EQ(r.total_macs, analytic.total_macs)
            << name << " seq=" << seq << " " << to_string(df);
        EXPECT_DOUBLE_EQ(r.dram_bytes, analytic.dram_bytes)
            << name << " seq=" << seq << " " << to_string(df);
      }
    }
}

TEST(SystolicStep, TinyScratchpadSerializesGemmTransfers) {
  // A single-conv network (no vector layers, and its one GEMM skips the
  // data-grad pass): with a scratchpad smaller than any fold, every DRAM
  // byte serializes behind compute, so the stall count equals the traffic
  // model's per-phase transfer cycles exactly.
  core::Network net;
  net.name = "one_conv";
  net.input = {3, 32, 32};
  net.mini_batch_per_core = 8;
  net.blocks.push_back(core::make_simple_block(
      "conv", {core::make_conv("conv", net.input, 16, 3, 1, 1)}));
  net.check();
  const sched::Schedule schedule =
      sched::build_schedule(net, sched::ExecConfig::kMbs2);
  const sched::Traffic traffic = sched::compute_traffic(net, schedule);

  SystolicSimParams p;
  p.options.scratchpad_bytes = 1;  // smaller than one tile: no overlap
  p.dram_bw_bytes_per_s = 256e9;
  p.vector_flops = 2.87e12;
  p.buffer_bw_bytes = 5e11;
  const SystolicStepResult r =
      simulate_systolic_step(net, schedule, traffic, p);

  double dram[2] = {0, 0};
  for (const sched::TrafficRecord& rec : traffic.records)
    dram[rec.phase == sched::Phase::kForward ? 0 : 1] +=
        rec.dram_read + rec.dram_write;
  const double bytes_per_cycle = p.dram_bw_bytes_per_s / p.array.clock_hz;
  const std::int64_t expected =
      static_cast<std::int64_t>(std::ceil(dram[0] / bytes_per_cycle)) +
      static_cast<std::int64_t>(std::ceil(dram[1] / bytes_per_cycle));
  EXPECT_EQ(r.stats.stall_cycles, expected);
}

TEST(SystolicStep, ScratchpadGatesOverlapOnly) {
  // Between no-overlap (1 byte) and full-overlap (huge), only stall cycles
  // may move — tile geometry, compute cycles and traffic stay fixed.
  StepFixture f;
  SystolicSimParams tiny = f.params();
  tiny.options.scratchpad_bytes = 1;
  SystolicSimParams huge = f.params();
  huge.options.scratchpad_bytes = std::int64_t{1} << 40;
  const SystolicStepResult a =
      simulate_systolic_step(f.net, f.schedule, f.traffic, tiny);
  const SystolicStepResult b =
      simulate_systolic_step(f.net, f.schedule, f.traffic, huge);
  EXPECT_EQ(a.stats.comp_cycles, b.stats.comp_cycles);
  EXPECT_GE(a.stats.stall_cycles, b.stats.stall_cycles);
  EXPECT_DOUBLE_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_DOUBLE_EQ(a.total_macs, b.total_macs);
}

}  // namespace
}  // namespace mbs::arch
