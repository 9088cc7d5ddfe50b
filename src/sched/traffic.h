// DRAM and global-buffer traffic accounting for one training step.
//
// This is the model behind the paper's traffic results (Fig. 10c, Fig. 11):
// it walks every tensor edge of the network under a given schedule and
// decides, per configuration, whether the edge moves through DRAM or stays
// in the on-chip global buffer, and how often weights and weight-gradient
// partial sums are (re-)fetched.
#pragma once

#include <cstdint>
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
/// The walker emits about eight per layer; compute_traffic folds them into
/// a Traffic summary as it goes, and compute_traffic_records keeps them.
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

/// DRAM and global-buffer bytes of one (block, layer), summed by phase.
struct LayerBytes {
  double dram[2] = {0, 0};  ///< indexed by 0 = forward, 1 = backward
  double buf[2] = {0, 0};
};

/// Number of TrafficClass values.
constexpr int kTrafficClassCount = 7;

/// All traffic of one training step on one core, as per-layer and per-step
/// sums of the walker's records. Every sum is accumulated in record order
/// with the same operations as a fold over compute_traffic_records(), so
/// each accessor holds exactly the bits that fold gives. A record's buffer
/// bytes are buf_read + buf_write, and every DRAM transfer also moves
/// through the buffer (buf_read includes dram_write, buf_write dram_read).
struct Traffic {
  /// One cell per layer of the network in flat execution order (blocks in
  /// order, each in Block::for_each_layer order).
  std::vector<LayerBytes> layers;
  /// DRAM read + write bytes per block.
  std::vector<double> block_dram;
  /// DRAM read + write bytes per TrafficClass.
  double class_dram[kTrafficClassCount] = {};
  double dram_read = 0;
  double dram_write = 0;
  double buffer = 0;  ///< buffer read + write bytes of every record
  std::int64_t record_count = 0;

  double dram_bytes() const { return dram_read + dram_write; }
  double dram_read_bytes() const { return dram_read; }
  double dram_write_bytes() const { return dram_write; }
  double buffer_bytes() const { return buffer; }
  double dram_bytes_by_class(TrafficClass c) const {
    return class_dram[static_cast<int>(c)];
  }
  /// DRAM bytes attributed to a single block (0 for a block out of range).
  double dram_bytes_for_block(int block) const;
};

/// The per-layer cells of `traffic`: (block b, layer l) sits at index
/// layer_count(blocks 0..b-1) + l. Aborts when `traffic` does not hold one
/// cell per layer of `net`.
const std::vector<LayerBytes>& layer_bytes(const core::Network& net,
                                           const Traffic& traffic);

/// Computes the per-step traffic of `schedule` over `net`. All byte counts
/// are per core (the paper reports per-chip numbers as 2x this).
Traffic compute_traffic(const core::Network& net, const Schedule& schedule);

/// The same walk as compute_traffic, keeping every record in emission
/// order: record-level reporting and the tests that check the summary.
std::vector<TrafficRecord> compute_traffic_records(const core::Network& net,
                                                   const Schedule& schedule);

/// Total DRAM bytes per step of a schedule over one network: the objective
/// that greedy, DP and non-contiguous grouping minimize. Each call returns
/// exactly compute_traffic(net, schedule).dram_bytes(), bit for bit, in
/// O(blocks).
///
/// An objective serves one schedule shape: `net` and the `shape` schedule's
/// config, mini-batch, buffer and per-block sub-batch limits. Construction
/// runs the compute_traffic walker's tensor and layer emitters on synthetic
/// group tables to fill, once:
///  - a constant term;
///  - per group boundary, its cost when split and when merged;
///  - per pair of adjacent boundaries, a 2x2 cost table;
///  - per block, its layers' weight, weight-gradient and attention terms
///    for every (iterations, sub_batch) a group can run at: each distinct
///    block limit, and the whole mini-batch.
/// A call sums the entries the schedule's group table selects.
///
/// Locality: the dataflow's only cross-block edges run from block b-1's
/// output into block b. A tensor's traffic therefore depends only on
/// whether the boundary into its consumers' block is split and, for an
/// Add/Concat consumer, whether the boundary after that merge is (the
/// routed gradient lives where the merge output lives). A block's layer
/// terms depend only on its group's (iterations, sub_batch).
///
/// Exactness: every DRAM addend of the walk is an integer-valued double
/// (bytes per sample x mini-batch, mask and argmax bytes, weight bytes x
/// iterations, multiples of the attention score bytes). Construction aborts
/// unless every addend is an integer and the worst-case total stays below
/// 2^53; every partial sum is then exact, so the total does not depend on
/// summation order.
///
/// Scoring a schedule of another shape aborts, and so does a group whose
/// (iterations, sub_batch) the scheduler cannot form. Nothing changes after
/// construction, so one objective can be shared across threads. `net` must
/// outlive the objective.
class DramObjective {
 public:
  DramObjective(const core::Network& net, const Schedule& shape);

  double operator()(const Schedule& schedule) const;

 private:
  const core::Network& net_;
  ExecConfig config_;
  int mini_batch_;
  std::int64_t buffer_bytes_;
  std::vector<int> block_max_sub_;
  double constant_ = 0;
  /// [2 * b + split]: boundary b lies between blocks b - 1 and b.
  std::vector<double> boundary_;
  /// [4 * b + 2 * split(b) + split(b + 1)].
  std::vector<double> boundary_pair_;
  /// Sub-batch -> column of layer_ (-1 when no group can run at it).
  std::vector<int> sub_slot_;
  /// Column -> the iteration count of its sub-batch.
  std::vector<int> slot_iterations_;
  /// [block * slot_iterations_.size() + slot].
  std::vector<double> layer_;
};

/// Total DRAM bytes per step, compute_traffic(net, schedule).dram_bytes():
/// one walk that keeps only the DRAM totals.
double dram_traffic_bytes(const core::Network& net, const Schedule& schedule);

}  // namespace mbs::sched
