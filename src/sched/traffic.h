// DRAM and global-buffer traffic accounting for one training step.
//
// This is the model behind the paper's traffic results (Fig. 10c, Fig. 11):
// it walks every tensor edge of the network under a given schedule and
// decides, per configuration, whether the edge moves through DRAM or stays
// in the on-chip global buffer, and how often weights and weight-gradient
// partial sums are (re-)fetched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.h"
#include "sched/schedule.h"

namespace mbs::sched {

/// Training phase a traffic record belongs to.
enum class Phase { kForward, kBackward };

/// What kind of data moved (used for reporting and for ablations).
enum class TrafficClass {
  kInput,        ///< network input samples
  kFeature,      ///< inter-layer activations moving in forward propagation
  kGradient,     ///< inter-layer loss gradients moving in back propagation
  kWeight,       ///< parameter reads (forward and data-gradient passes)
  kWgradPartial, ///< weight-gradient partial-sum writes and re-reads
  kStash,        ///< forward tensors stored for reuse in back propagation
  kMask,         ///< 1-bit ReLU gradient masks (MBS only)
};

const char* to_string(TrafficClass c);
const char* to_string(Phase p);

/// One aggregated traffic contribution, attributed to a layer and phase.
struct TrafficRecord {
  int block = 0;           ///< block index in the network
  int layer = 0;           ///< layer index within the block (for_each_layer order)
  core::LayerKind kind = core::LayerKind::kConv;
  bool is_gemm = false;    ///< runs on the systolic array
  Phase phase = Phase::kForward;
  TrafficClass cls = TrafficClass::kFeature;
  double dram_read = 0;    ///< bytes per training step (whole mini-batch)
  double dram_write = 0;
  double buf_read = 0;     ///< global-buffer bytes (energy model input)
  double buf_write = 0;
};

/// All traffic of one training step on one core.
struct Traffic {
  std::vector<TrafficRecord> records;

  double dram_bytes() const;
  double dram_read_bytes() const;
  double dram_write_bytes() const;
  double buffer_bytes() const;
  double dram_bytes_by_class(TrafficClass c) const;
  /// DRAM bytes attributed to a single block.
  double dram_bytes_for_block(int block) const;
};

/// DRAM and global-buffer bytes of one (block, layer), summed by phase.
struct LayerBytes {
  double dram[2] = {0, 0};  ///< indexed by 0 = forward, 1 = backward
  double buf[2] = {0, 0};
};

/// Sums `traffic`'s records per (block, layer, phase) in record order. The
/// result holds one cell per layer of `net` in flat execution order (blocks
/// in order, each in Block::for_each_layer order), so (block b, layer l)
/// sits at index layer_count(blocks 0..b-1) + l. Aborts on a record that
/// names no layer of `net`.
std::vector<LayerBytes> layer_bytes(const core::Network& net,
                                    const Traffic& traffic);

/// Computes the per-step traffic of `schedule` over `net`. All byte counts
/// are per core (the paper reports per-chip numbers as 2x this).
Traffic compute_traffic(const core::Network& net, const Schedule& schedule);

struct Dataflow;

/// Total DRAM bytes per step of a schedule over one network: the objective
/// that greedy, DP and non-contiguous grouping minimize. The dataflow graph
/// is built once, at construction; each call runs the compute_traffic walker
/// with a sink that keeps only the DRAM read and write totals, and returns
/// exactly compute_traffic(net, schedule).dram_bytes(), bit for bit. `net`
/// must outlive the objective.
class DramObjective {
 public:
  explicit DramObjective(const core::Network& net);
  ~DramObjective();

  double operator()(const Schedule& schedule) const;

 private:
  const core::Network& net_;
  std::unique_ptr<const Dataflow> df_;
};

/// Convenience: total DRAM bytes per step, DramObjective(net)(schedule).
double dram_traffic_bytes(const core::Network& net, const Schedule& schedule);

}  // namespace mbs::sched
