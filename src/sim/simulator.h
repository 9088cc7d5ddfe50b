// WaveCore training-step simulator.
//
// Executes a schedule over the architecture model and reports the metrics
// the paper's evaluation uses: per-step execution time (Fig. 10a, 12, 13),
// DRAM traffic (Fig. 10c, 11), energy (Fig. 10b), systolic-array
// utilization (Fig. 14), and a per-layer-type time breakdown (Fig. 12).
//
// The simulator accounts for all memory, buffer, and arithmetic activity
// (Sec. 5): GEMM layers run on the systolic array with their per-sub-batch
// im2col GEMM shapes; normalization/pooling/activation/merge layers run on
// the vector units and are usually bandwidth bound. Per layer, compute
// overlaps DRAM transfers (the local buffers are double buffered, Sec. 4.2),
// so layer time = max(compute, DRAM); layers execute in sequence.
#pragma once

#include <cstdint>

#include "arch/energy.h"
#include "arch/memory.h"
#include "arch/systolic.h"
#include "core/network.h"
#include "sched/schedule.h"
#include "sched/traffic.h"

namespace mbs::sim {

/// Full accelerator configuration (defaults: the Sec. 4.2 WaveCore).
struct WaveCoreConfig {
  arch::SystolicConfig systolic;          ///< per-core array
  arch::MemoryConfig memory = arch::hbm2();  ///< chip-level DRAM
  int cores = 2;
  std::int64_t global_buffer_bytes = 10ll * 1024 * 1024;  ///< per core
  double buffer_bw_bytes = 501.0 * 1024 * 1024 * 1024;    ///< per core (Fig. 9)
  double vector_flops = 2.87e12;          ///< per-core vector/scalar units
  arch::EnergyModel energy;               ///< dram_pj overridden by `memory`
  bool unlimited_dram_bw = false;         ///< Fig. 14's isolation mode
};

/// Per-layer-type execution time (Fig. 12's stacked bars). "sum" covers the
/// element-wise merge/activation work (Add/Concat/ReLU).
struct LayerTypeTimes {
  double conv = 0;
  double fc = 0;
  double norm = 0;
  double pool = 0;
  double sum = 0;

  double total() const { return conv + fc + norm + pool + sum; }
  bool operator==(const LayerTypeTimes&) const = default;
};

/// Results of one simulated training step (chip level: two cores each
/// processing their half of the global mini-batch in parallel).
struct StepResult {
  double time_s = 0;            ///< per-step execution time
  double dram_bytes = 0;        ///< chip DRAM traffic (2x per-core)
  double buffer_bytes = 0;      ///< chip global-buffer traffic
  double total_macs = 0;        ///< chip useful MACs
  double systolic_utilization = 0;  ///< conv+FC MAC-weighted (Fig. 14)
  double compute_time_s = 0;    ///< sum of per-layer compute components
  double memory_time_s = 0;     ///< sum of per-layer DRAM components
  LayerTypeTimes time_by_type;
  arch::EnergyBreakdown energy;

  bool operator==(const StepResult&) const = default;
};

/// Simulates one training step of `net` under `schedule` on `hw`, charging
/// each layer the DRAM and buffer bytes of `traffic`, which must be
/// sched::compute_traffic(net, schedule) (the Evaluator passes its memo).
StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const sched::Traffic& traffic,
                         const WaveCoreConfig& hw);

/// As above, computing the schedule's traffic first.
StepResult simulate_step(const core::Network& net,
                         const sched::Schedule& schedule,
                         const WaveCoreConfig& hw);

}  // namespace mbs::sim
