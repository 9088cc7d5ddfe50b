#include "arch/systolic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "arch/vector_ops.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"

namespace mbs::arch {

const char* to_string(GemmPass p) {
  switch (p) {
    case GemmPass::kForward: return "forward";
    case GemmPass::kDataGrad: return "data-grad";
    case GemmPass::kWeightGrad: return "weight-grad";
  }
  return "?";
}

GemmShape gemm_shape(const core::Layer& layer, int sub_batch, GemmPass pass) {
  assert(layer.is_gemm());
  const std::int64_t n = sub_batch;
  GemmShape s;
  if (layer.kind == core::LayerKind::kFc) {
    // FC is a plain GEMM: features are 1x1 "images".
    const std::int64_t in = layer.in.elements();
    const std::int64_t out = layer.out.c;
    switch (pass) {
      case GemmPass::kForward: s = {n, out, in}; break;
      case GemmPass::kDataGrad: s = {n, in, out}; break;
      case GemmPass::kWeightGrad: s = {in, out, n}; break;
    }
    return s;
  }
  const std::int64_t ci = layer.in.c;
  const std::int64_t co = layer.out.c;
  const std::int64_t rs =
      static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;
  const std::int64_t hw_o = static_cast<std::int64_t>(layer.out.h) * layer.out.w;
  const std::int64_t hw_i = static_cast<std::int64_t>(layer.in.h) * layer.in.w;
  switch (pass) {
    case GemmPass::kForward: s = {n * hw_o, co, ci * rs}; break;
    case GemmPass::kDataGrad: s = {n * hw_i, ci, co * rs}; break;
    case GemmPass::kWeightGrad: s = {ci * rs, co, n * hw_o}; break;
  }
  return s;
}

std::vector<GemmShape> attention_gemm_shapes(const core::Layer& layer,
                                             GemmPass pass) {
  assert(layer.is_attention());
  const std::int64_t s = static_cast<std::int64_t>(layer.in.h) * layer.in.w;
  const std::int64_t dh = (layer.in.c / 3) / layer.heads;
  switch (pass) {
    case GemmPass::kForward:
      // scores[S x S] = Q[S x dh] . K^T; ctx[S x dh] = P[S x S] . V.
      return {{s, s, dh}, {s, dh, s}};
    case GemmPass::kDataGrad:
      // dP[S x S] = dCtx . V^T; dV[S x dh] = P^T . dCtx;
      // dQ[S x dh] = dS . K;    dK[S x dh] = dS^T . Q.
      return {{s, s, dh}, {s, dh, s}, {s, dh, s}, {s, dh, s}};
    case GemmPass::kWeightGrad:
      return {};
  }
  return {};
}

namespace {

using core::Layer;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// ceil(bytes / per-cycle rate) as whole cycles; 0 when the rate is
/// unconstrained (rate <= 0 models infinite bandwidth).
std::int64_t transfer_cycles(double bytes, double bytes_per_cycle) {
  if (bytes_per_cycle <= 0 || bytes <= 0) return 0;
  return static_cast<std::int64_t>(std::ceil(bytes / bytes_per_cycle));
}

}  // namespace

GemmTiming simulate_gemm(const SystolicConfig& cfg, const GemmShape& shape) {
  assert(shape.gh > 0 && shape.gw > 0 && shape.k > 0);
  const std::int64_t m = cfg.tile_m();
  const std::int64_t n = cfg.cols;
  const std::int64_t k_rows = cfg.rows;

  const std::int64_t tiles_h = ceil_div(shape.gh, m);
  const std::int64_t tiles_w = ceil_div(shape.gw, n);
  const std::int64_t waves = ceil_div(shape.k, k_rows);

  // An m_t x n_t output tile costs row(m_t) + n_t cycles.
  auto row = [&](std::int64_t m_t) {
    if (cfg.weight_double_buffering) {
      // Initial weight fill, then each wave streams m_t rows; the next
      // wave's weights shift into the second register concurrently, which
      // only fully hides the k_rows-cycle load when m_t >= k_rows.
      return k_rows + waves * std::max(m_t, k_rows);
    }
    // Every wave pays the full weight shift-in gap (Fig. 8b top).
    return waves * (k_rows + m_t) + k_rows;
  };
  // Every tile is full except the last along each dimension: the grid sum
  // is tiles_w copies of the row terms plus tiles_h copies of Gw.
  const std::int64_t edge_h = shape.gh % m;
  const std::int64_t rows_sum =
      (shape.gh / m) * row(m) + (edge_h > 0 ? row(edge_h) : 0);
  GemmTiming t;
  t.macs = shape.macs();
  t.cycles = tiles_w * rows_sum + tiles_h * shape.gw;

  // Global-buffer streaming: an A block (m_t x K) is re-read for every tile
  // column; a B block (K x n_t) for every tile row; C written back once in
  // 16b after the 32b accumulation completes.
  t.buf_read_bytes = 2 * (shape.gh * shape.k * tiles_w +
                          shape.k * shape.gw * tiles_h);
  t.buf_write_bytes = 2 * shape.gh * shape.gw;

  t.utilization = static_cast<double>(t.macs) /
                  (static_cast<double>(t.cycles) * cfg.rows * cfg.cols);
  return t;
}

GemmCycles simulate_gemm_cycles(const SystolicConfig& cfg, Dataflow df,
                                const GemmShape& shape) {
  assert(shape.gh > 0 && shape.gw > 0 && shape.k > 0);
  constexpr std::int64_t kElemBytes = 2;  // fp16 operands
  const std::int64_t R = cfg.rows;
  const std::int64_t C = cfg.cols;
  const auto [gh, gw, k] = shape;

  // A fold costs preload + stream + span_a + span_b - 2 cycles: stationary-
  // operand shift-in, then a skewed stream across a span_a x span_b mapped
  // region. Every fold along a dimension is full except the last, so each
  // per-fold sum is a tile count times a dimension, and the largest fold
  // has full tiles (fold bytes only grow with tile size).
  GemmCycles g;
  g.macs = shape.macs();

  if (df == Dataflow::kOutputStationary) {
    // C tiles pinned to the array: Gh folds over rows, Gw over cols, the
    // full reduction streams through each fold with no partial-sum spills.
    // Fold (m_t, n_t): preload 0, stream K, spans m_t x n_t.
    const std::int64_t tiles_h = ceil_div(gh, R);
    const std::int64_t tiles_w = ceil_div(gw, C);
    g.folds = tiles_h * tiles_w;
    g.comp_cycles = g.folds * (k - 2) + tiles_w * gh + tiles_h * gw;
    g.mapped_pe_folds = gh * gw;
    g.bytes.a = kElemBytes * k * gh * tiles_w;
    g.bytes.b = kElemBytes * k * gw * tiles_h;
    g.bytes.c = kElemBytes * gh * gw;
    const std::int64_t m_t = std::min(R, gh);
    const std::int64_t n_t = std::min(C, gw);
    g.max_fold_bytes = kElemBytes * (m_t * k + k * n_t + m_t * n_t);
    return g;
  }

  // ws/is fold the reduction over the array rows and one output dimension
  // over the columns (Gw for ws, Gh for is) while the other streams. Fold
  // (k_t, t_t): preload k_t, stream the other dimension, spans k_t x t_t.
  // C partial sums spill after each fold and are re-read by every fold
  // after the first along k: 1 + 2 (tiles_k - 1) passes.
  const bool ws = df == Dataflow::kWeightStationary;
  const std::int64_t tiled = ws ? gw : gh;
  const std::int64_t streamed = ws ? gh : gw;
  const std::int64_t tiles_k = ceil_div(k, R);
  const std::int64_t tiles_t = ceil_div(tiled, C);
  g.folds = tiles_k * tiles_t;
  g.comp_cycles = 2 * k * tiles_t + g.folds * (streamed - 2) + tiles_k * tiled;
  g.mapped_pe_folds = k * tiled;
  const std::int64_t stationary = kElemBytes * k * tiled;
  const std::int64_t streaming = kElemBytes * streamed * k * tiles_t;
  g.bytes.a = ws ? streaming : stationary;
  g.bytes.b = ws ? stationary : streaming;
  g.bytes.c = kElemBytes * (2 * tiles_k - 1) * streamed * tiled;
  const std::int64_t k_t = std::min(R, k);
  const std::int64_t t_t = std::min(C, tiled);
  g.max_fold_bytes = kElemBytes * (k_t * t_t + streamed * k_t + streamed * t_t);
  return g;
}

SystolicStepResult simulate_systolic_step(const core::Network& net,
                                          const sched::Schedule& schedule,
                                          const sched::Traffic& traffic,
                                          const SystolicSimParams& p) {
  const SystolicConfig& cfg = p.array;
  const Dataflow df = p.options.dataflow;

  const std::vector<sched::LayerBytes>& by_layer =
      sched::layer_bytes(net, traffic);

  const double dram_bpc = p.dram_bw_bytes_per_s > 0
                              ? p.dram_bw_bytes_per_s / cfg.clock_hz
                              : 0;
  const double buf_bpc =
      p.buffer_bw_bytes > 0 ? p.buffer_bw_bytes / cfg.clock_hz : 0;
  const double vec_opc =
      p.vector_flops > 0 ? p.vector_flops / cfg.clock_hz : 0;

  SystolicStepResult out;
  std::int64_t gemm_macs = 0;
  std::int64_t folds_total = 0;
  std::int64_t mapped_pe_total = 0;
  OperandBytes stream;

  bool first_gemm = true;
  std::size_t flat = 0;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    const std::vector<int> chunks = grp.chunks(schedule.mini_batch);

    net.blocks[bi].for_each_layer([&](const Layer& l, int) {
      const sched::LayerBytes& lb = by_layer[flat++];

      std::int64_t comp[2] = {0, 0};  // forward, backward
      std::int64_t max_fold_bytes = 0;
      bool gate_on_scratchpad = false;
      auto add = [&](const GemmCycles& gc, std::int64_t scale, int phase) {
        comp[phase] += gc.comp_cycles * scale;
        gemm_macs += gc.macs * scale;
        folds_total += gc.folds * scale;
        mapped_pe_total += gc.mapped_pe_folds * scale;
        stream.a += gc.bytes.a * scale;
        stream.b += gc.bytes.b * scale;
        stream.c += gc.bytes.c * scale;
        max_fold_bytes = std::max(max_fold_bytes, gc.max_fold_bytes);
      };
      if (l.is_gemm()) {
        gate_on_scratchpad = true;
        const bool skip_dgrad = first_gemm;
        first_gemm = false;
        // All chunks but the last have one size, so each pass is simulated
        // once per distinct size.
        int timed = 0;
        GemmCycles fwd, wgrad, dgrad;
        for (int c : chunks) {
          if (c != timed) {
            timed = c;
            fwd = simulate_gemm_cycles(cfg, df,
                                       gemm_shape(l, c, GemmPass::kForward));
            wgrad = simulate_gemm_cycles(
                cfg, df, gemm_shape(l, c, GemmPass::kWeightGrad));
            if (!skip_dgrad)
              dgrad = simulate_gemm_cycles(
                  cfg, df, gemm_shape(l, c, GemmPass::kDataGrad));
          }
          add(fwd, 1, 0);
          add(wgrad, 1, 1);
          if (!skip_dgrad) add(dgrad, 1, 1);
        }
      } else if (l.is_attention()) {
        // Attention GEMMs run on the array too; shapes are per (sample,
        // head), so one simulation per distinct shape scales exactly by
        // mini_batch * heads (chunking changes nothing: the shapes carry no
        // batch dimension). The softmax runs on the vector unit.
        gate_on_scratchpad = true;
        const std::int64_t scale =
            static_cast<std::int64_t>(schedule.mini_batch) * l.heads;
        auto run_attention = [&](GemmPass pass, int phase) {
          for (const GemmShape& sh : attention_gemm_shapes(l, pass))
            add(simulate_gemm_cycles(cfg, df, sh), scale, phase);
        };
        run_attention(GemmPass::kForward, 0);
        run_attention(GemmPass::kDataGrad, 1);
        if (vec_opc > 0) {
          const double soft =
              attention_softmax_ops(l) * schedule.mini_batch;
          comp[0] += static_cast<std::int64_t>(std::ceil(soft / vec_opc));
          comp[1] += static_cast<std::int64_t>(std::ceil(soft / vec_opc));
        }
      } else {
        // Vector layers: op throughput, floored by global-buffer bandwidth
        // (mirrors the analytic model's max with buffer time).
        const double n = schedule.mini_batch;
        const std::int64_t ops_f = vec_opc > 0
            ? static_cast<std::int64_t>(
                  std::ceil(vector_ops_fwd(l) * n / vec_opc))
            : 0;
        const std::int64_t ops_b = vec_opc > 0
            ? static_cast<std::int64_t>(
                  std::ceil(vector_ops_bwd(l) * n / vec_opc))
            : 0;
        comp[0] = std::max(ops_f, transfer_cycles(lb.buf[0], buf_bpc));
        comp[1] = std::max(ops_b, transfer_cycles(lb.buf[1], buf_bpc));
      }

      // Double-buffer gate: a GEMM layer's DRAM transfers overlap compute
      // only when two copies of its largest fold fit in the scratchpad
      // (one computing, one filling); otherwise transfer and compute
      // serialize. Vector layers stream through the (double-buffered)
      // global buffer and always overlap.
      const bool overlap =
          !gate_on_scratchpad || 2 * max_fold_bytes <= p.options.scratchpad_bytes;
      for (int ph = 0; ph < 2; ++ph) {
        const std::int64_t dram = transfer_cycles(lb.dram[ph], dram_bpc);
        out.stats.comp_cycles += comp[ph];
        out.stats.stall_cycles +=
            overlap ? std::max<std::int64_t>(0, dram - comp[ph]) : dram;
      }
    });
  }

  const std::int64_t total = out.stats.total_cycles();
  out.stats.util =
      total > 0 ? static_cast<double>(gemm_macs) /
                      (static_cast<double>(total) * cfg.rows * cfg.cols)
                : 0;
  out.stats.mapping_eff =
      folds_total > 0 ? static_cast<double>(mapped_pe_total) /
                            (static_cast<double>(folds_total) * cfg.rows *
                             cfg.cols)
                      : 0;

  out.time_s = static_cast<double>(total) / cfg.clock_hz;
  out.compute_time_s = static_cast<double>(out.stats.comp_cycles) / cfg.clock_hz;
  out.stall_time_s = static_cast<double>(out.stats.stall_cycles) / cfg.clock_hz;

  // Chip-level totals; DRAM bytes are the schedule's analytic traffic by
  // construction, so the backends can never disagree on bytes moved.
  out.dram_bytes = p.cores * traffic.dram_bytes();
  out.total_macs = static_cast<double>(p.cores) * static_cast<double>(gemm_macs);
  if (out.time_s > 0) {
    out.bw_ifmap = static_cast<double>(stream.a) / out.time_s;
    out.bw_filter = static_cast<double>(stream.b) / out.time_s;
    out.bw_ofmap = static_cast<double>(stream.c) / out.time_s;
  }
  return out;
}

}  // namespace mbs::arch
