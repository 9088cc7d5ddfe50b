#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "arch/vector_ops.h"

namespace mbs::sim {

namespace {

using core::Layer;
using core::LayerKind;

/// Fig. 12 category of a layer. Attention is GEMM-dominated compute and
/// reports under the conv slot (LayerTypeTimes' layout is
/// serialization-frozen, so it cannot grow a field).
double* type_slot(LayerTypeTimes& t, LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return &t.conv;
    case LayerKind::kAttention: return &t.conv;
    case LayerKind::kFc: return &t.fc;
    case LayerKind::kNorm: return &t.norm;
    case LayerKind::kPool: return &t.pool;
    default: return &t.sum;
  }
}

}  // namespace

StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const WaveCoreConfig& hw) {
  return simulate_step(net, schedule, sched::compute_traffic(net, schedule), hw);
}

StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const sched::Traffic& traffic,
                         const WaveCoreConfig& hw) {
  const std::vector<sched::LayerBytes>& by_layer =
      sched::layer_bytes(net, traffic);

  const double dram_bw = hw.unlimited_dram_bw
                             ? std::numeric_limits<double>::infinity()
                             : hw.memory.per_core_bandwidth(hw.cores);

  StepResult out;
  double gemm_cycles = 0;
  double gemm_macs = 0;
  double vector_ops_total = 0;
  double gemm_buf_bytes = 0;

  arch::SystolicConfig systolic = hw.systolic;
  systolic.weight_double_buffering =
      sched::uses_weight_double_buffering(schedule.config);

  bool first_gemm = true;
  std::size_t flat = 0;
  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const sched::Group& grp = schedule.groups[static_cast<std::size_t>(
        schedule.group_of_block(static_cast<int>(bi)))];
    const std::vector<int> chunks = grp.chunks(schedule.mini_batch);

    net.blocks[bi].for_each_layer([&](const Layer& l, int) {
      const sched::LayerBytes& lb = by_layer[flat++];

      double compute_fwd = 0;
      double compute_bwd = 0;
      auto add = [&](const arch::GemmTiming& t, double scale, double* compute) {
        gemm_cycles += scale * static_cast<double>(t.cycles);
        gemm_macs += scale * static_cast<double>(t.macs);
        gemm_buf_bytes +=
            scale * static_cast<double>(t.buf_read_bytes + t.buf_write_bytes);
        *compute += scale * t.seconds(systolic);
      };
      if (l.is_gemm()) {
        const bool skip_dgrad = first_gemm;
        first_gemm = false;
        // All chunks but the last have one size, so each pass is timed once
        // per distinct size; the per-chunk sums keep their order.
        int timed = 0;
        arch::GemmTiming fwd, wgrad, dgrad;
        for (int c : chunks) {
          if (c != timed) {
            timed = c;
            fwd = arch::simulate_gemm(
                systolic, arch::gemm_shape(l, c, arch::GemmPass::kForward));
            wgrad = arch::simulate_gemm(
                systolic, arch::gemm_shape(l, c, arch::GemmPass::kWeightGrad));
            if (!skip_dgrad)
              dgrad = arch::simulate_gemm(
                  systolic, arch::gemm_shape(l, c, arch::GemmPass::kDataGrad));
          }
          add(fwd, 1, &compute_fwd);
          add(wgrad, 1, &compute_bwd);
          if (!skip_dgrad) add(dgrad, 1, &compute_bwd);
        }
      } else if (l.is_attention()) {
        // Attention's Q.K^T / P.V GEMMs run on the array; shapes are per
        // (sample, head), so one simulation per distinct shape scales
        // exactly by mini_batch * heads regardless of the chunking. The
        // softmax runs on the vector unit.
        const double scale =
            static_cast<double>(schedule.mini_batch) * l.heads;
        auto run_attention = [&](arch::GemmPass pass, double* compute) {
          for (const arch::GemmShape& sh : arch::attention_gemm_shapes(l, pass))
            add(arch::simulate_gemm(systolic, sh), scale, compute);
        };
        run_attention(arch::GemmPass::kForward, &compute_fwd);
        run_attention(arch::GemmPass::kDataGrad, &compute_bwd);
        const double soft =
            arch::attention_softmax_ops(l) * schedule.mini_batch;
        vector_ops_total += 2 * soft;
        compute_fwd += soft / hw.vector_flops;
        compute_bwd += soft / hw.vector_flops;
      } else {
        const double n = schedule.mini_batch;
        const double ops_f = arch::vector_ops_fwd(l) * n;
        const double ops_b = arch::vector_ops_bwd(l) * n;
        vector_ops_total += ops_f + ops_b;
        compute_fwd = ops_f / hw.vector_flops;
        compute_bwd = ops_b / hw.vector_flops;
        // Vector layers also contend for global-buffer bandwidth.
        compute_fwd = std::max(compute_fwd, lb.buf[0] / hw.buffer_bw_bytes);
        compute_bwd = std::max(compute_bwd, lb.buf[1] / hw.buffer_bw_bytes);
      }

      const double t_fwd = std::max(compute_fwd, lb.dram[0] / dram_bw);
      const double t_bwd = std::max(compute_bwd, lb.dram[1] / dram_bw);
      out.time_s += t_fwd + t_bwd;
      out.compute_time_s += compute_fwd + compute_bwd;
      out.memory_time_s += (lb.dram[0] + lb.dram[1]) / dram_bw;
      *type_slot(out.time_by_type, l.kind) += t_fwd + t_bwd;
    });
  }

  out.systolic_utilization =
      gemm_cycles > 0
          ? gemm_macs / (gemm_cycles *
                         static_cast<double>(systolic.macs_per_cycle()))
          : 0;

  // Chip-level totals: both cores run the same schedule on their halves of
  // the global mini-batch in parallel.
  const double cores = hw.cores;
  out.dram_bytes = cores * traffic.dram_bytes();
  out.buffer_bytes = cores * (traffic.buffer_bytes() + gemm_buf_bytes);
  out.total_macs = cores * gemm_macs;

  arch::EnergyModel em = hw.energy;
  em.dram_pj_per_byte = hw.memory.energy_pj_per_byte;
  out.energy = arch::compute_energy(em, out.dram_bytes, out.buffer_bytes,
                                    out.total_macs, cores * vector_ops_total,
                                    out.time_s);
  return out;
}

}  // namespace mbs::sim
