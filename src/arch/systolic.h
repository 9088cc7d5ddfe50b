// WaveCore's systolic-array compute model (Sec. 4.1).
//
// Convolutions and FC layers execute as im2col GEMMs (Tab. 1). A GEMM is
// blocked into m x n output tiles (n = array width; m sized so a tile fills
// one accumulation half-buffer). Each tile is computed in ceil(K / rows)
// waves. Without weight double buffering every wave pays a `rows`-cycle
// weight shift-in gap (Fig. 8b top); with the ArchOpt PE (one extra 16b
// register per PE) the next wave's weights load during the current wave's
// streaming, leaving only the initial fill and final drain (Fig. 8b bottom).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/dataflow.h"
#include "core/layer.h"

namespace mbs::core {
struct Network;
}
namespace mbs::sched {
struct Schedule;
struct Traffic;
}

namespace mbs::arch {

/// Systolic array geometry and clocking (defaults: Sec. 4, Tab. 2).
struct SystolicConfig {
  int rows = 128;              ///< PE array height (k)
  int cols = 128;              ///< PE array width (n)
  double clock_hz = 0.7e9;     ///< 0.7 GHz (Tab. 2)
  /// One part of the triple-buffered 32b accumulation buffer; determines the
  /// tile height m = acc_half_bytes / (cols * 4B) (Sec. 4.2: 128 KiB).
  std::int64_t acc_half_bytes = 128 * 1024;
  bool weight_double_buffering = true;

  /// Tile height m (rows of C per tile).
  int tile_m() const {
    return static_cast<int>(acc_half_bytes / (static_cast<std::int64_t>(cols) * 4));
  }
  /// Peak MACs per cycle.
  std::int64_t macs_per_cycle() const {
    return static_cast<std::int64_t>(rows) * cols;
  }
};

/// im2col GEMM dimensions: C[Gh x Gw] = A[Gh x K] * B[K x Gw].
struct GemmShape {
  std::int64_t gh = 0;
  std::int64_t gw = 0;
  std::int64_t k = 0;

  std::int64_t macs() const { return gh * gw * k; }
};

/// The three GEMM passes of a convolution/FC layer during training (Tab. 1).
enum class GemmPass { kForward, kDataGrad, kWeightGrad };

const char* to_string(GemmPass p);

/// Tab. 1: GEMM dimensions of an im2col convolution (or FC layer) for the
/// given training pass and sub-batch size.
GemmShape gemm_shape(const core::Layer& layer, int sub_batch, GemmPass pass);

/// GEMM dimensions of one attention layer per (sample, head): both operands
/// are streamed activations, so unlike gemm_shape the batch does not fold
/// into the shapes — callers scale results by sub_batch * heads. kForward is
/// {Q.K^T, P.V}; kDataGrad is {dP = dCtx.V^T, dV = P^T.dCtx, dQ = dS.K,
/// dK = dS^T.Q}; kWeightGrad is empty (attention owns no weights).
std::vector<GemmShape> attention_gemm_shapes(const core::Layer& layer,
                                             GemmPass pass);

/// Result of running one GEMM through the array.
struct GemmTiming {
  std::int64_t cycles = 0;
  std::int64_t macs = 0;          ///< useful MACs (Gh*Gw*K)
  double utilization = 0;         ///< macs / (cycles * rows * cols)
  std::int64_t buf_read_bytes = 0;   ///< A and B streamed from global buffer
  std::int64_t buf_write_bytes = 0;  ///< C tiles written back (16b)
  double seconds(const SystolicConfig& cfg) const {
    return static_cast<double>(cycles) / cfg.clock_hz;
  }
};

/// Simulates one GEMM: tiling, waves, fill/drain and (optionally) the
/// inter-wave weight shift-in gaps. Exact for edge (partial) tiles, in O(1).
GemmTiming simulate_gemm(const SystolicConfig& cfg, const GemmShape& shape);

// ---------------------------------------------------------------------------
// Cycle-level backend (Device::kSystolic).
//
// Unlike the wave model above — which is the paper's analytic pipeline
// formula — this backend counts exact fill/stream/drain cycles of every fold
// a GEMM makes across the PE array under an explicit dataflow (os/ws/is),
// partial edge folds included (summed in closed form), tracks the operand
// bytes folds stream through the PE-array scratchpad, and charges DRAM stall
// cycles against the schedule's per-(layer, phase) traffic with a
// double-buffered scratchpad overlap gate.
// ---------------------------------------------------------------------------

/// Cycle accounting of a simulated region (one GEMM or a whole step).
struct ComputeStats {
  std::int64_t comp_cycles = 0;   ///< cycles the array/vector unit is busy
  std::int64_t stall_cycles = 0;  ///< cycles lost waiting on DRAM
  double util = 0;         ///< useful MACs / (total cycles * rows * cols)
  double mapping_eff = 0;  ///< mean mapped-PE fraction over all folds

  std::int64_t total_cycles() const { return comp_cycles + stall_cycles; }
};

/// Scratchpad bytes one GEMM streams per array-side operand (fp16).
/// A = left/streaming operand (activations), B = top/preloaded operand
/// (weights), C = outputs including partial-sum spills between k-folds.
struct OperandBytes {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;

  std::int64_t total() const { return a + b + c; }
};

/// One GEMM through the cycle-level array under a dataflow.
struct GemmCycles {
  std::int64_t comp_cycles = 0;
  std::int64_t macs = 0;           ///< useful MACs (Gh*Gw*K)
  std::int64_t folds = 0;          ///< mapping rounds executed
  std::int64_t mapped_pe_folds = 0;  ///< sum over folds of PEs mapped
  OperandBytes bytes;              ///< scratchpad streaming totals
  /// Working set of the largest single fold (operands + outputs); the
  /// double-buffer gate needs 2x this to overlap DRAM with compute.
  std::int64_t max_fold_bytes = 0;

  double mapping_eff(const SystolicConfig& cfg) const {
    return folds > 0 ? static_cast<double>(mapped_pe_folds) /
                           (static_cast<double>(folds) * cfg.rows * cfg.cols)
                     : 0;
  }
};

/// Runs one GEMM through the array in O(1) (closed-form fold sums). Exact
/// for partial edge folds; os folds over (Gh/rows x Gw/cols) with K
/// streaming, ws/is fold the reduction dimension over the array rows and
/// spill 32b partial sums to the scratchpad between k-folds.
GemmCycles simulate_gemm_cycles(const SystolicConfig& cfg, Dataflow df,
                                const GemmShape& shape);

/// Scenario-level knobs of the cycle backend (the array geometry itself
/// comes from the hardware config; these select the mapping).
struct SystolicOptions {
  Dataflow dataflow = Dataflow::kOutputStationary;
  /// PE-array staging scratchpad; a (layer, phase) overlaps DRAM transfers
  /// with compute only when two copies of its largest fold fit.
  std::int64_t scratchpad_bytes = 512 * 1024;
};

/// Full parameter set of simulate_systolic_step.
struct SystolicSimParams {
  SystolicConfig array;
  SystolicOptions options;
  /// Per-core DRAM bandwidth in bytes/s; <= 0 means unconstrained (no
  /// stall cycles anywhere).
  double dram_bw_bytes_per_s = 0;
  /// Global-buffer bandwidth seen by the vector unit (bytes/s).
  double buffer_bw_bytes = 0;
  double vector_flops = 0;  ///< vector-unit throughput (ops/s)
  int cores = 2;            ///< chip-level scale-out factor
};

/// Cycle-level result of one training step on one core (chip-level totals
/// where noted).
struct SystolicStepResult {
  ComputeStats stats;
  double time_s = 0;          ///< total_cycles / clock
  double compute_time_s = 0;  ///< comp_cycles / clock
  double stall_time_s = 0;    ///< stall_cycles / clock
  double dram_bytes = 0;      ///< chip (cores x per-core schedule traffic)
  double total_macs = 0;      ///< chip
  /// Average per-core scratchpad streaming bandwidth by operand (bytes/s).
  double bw_ifmap = 0;   ///< A operand
  double bw_filter = 0;  ///< B operand
  double bw_ofmap = 0;   ///< C operand (writes + partial-sum re-reads)
};

/// Simulates one training step at cycle granularity: every sub-batch GEMM of
/// every layer runs through simulate_gemm_cycles (data-grad skipped for the
/// first GEMM layer, like the analytic model); vector layers run on the
/// vector unit; DRAM stalls come from `traffic` per (layer, phase), fully
/// hidden behind compute when the double-buffer gate holds. DRAM bytes moved
/// are the schedule's analytic traffic by construction — the two backends
/// diverge in time, never in traffic.
SystolicStepResult simulate_systolic_step(const core::Network& net,
                                          const sched::Schedule& schedule,
                                          const sched::Traffic& traffic,
                                          const SystolicSimParams& p);

}  // namespace mbs::arch
