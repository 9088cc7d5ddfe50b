#include "sched/traffic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mbs::sched {

namespace {

using core::Block;
using core::DataType;
using core::Layer;
using core::LayerKind;
using core::Network;

constexpr DataType kFeat = DataType::kF16;

/// A layer with global (block, layer-within-block) indices and resolved
/// input/output tensor ids.
struct FlatLayer {
  int block = 0;
  int layer = 0;
  const Layer* l = nullptr;
  std::vector<int> in_tensors;
  int out_tensor = -1;
};

/// A tensor edge in the dataflow graph: produced once, consumed by one or
/// more layers (block inputs fan out to every branch).
struct TensorInfo {
  int producer = -1;  ///< flat layer index; -1 for the network input
  int producer_block = -1;
  std::vector<int> consumers;  ///< flat layer indices, in execution order
  std::int64_t bytes_ps = 0;   ///< per-sample bytes (16b features)
  std::int64_t elems_ps = 0;
  bool network_input = false;
  bool feeds_merge = false;    ///< consumed by a merge layer (Add/Concat)
};

}  // namespace

/// Whole-network dataflow graph at tensor granularity.
struct Dataflow {
  std::vector<FlatLayer> layers;
  std::vector<TensorInfo> tensors;
  int first_gemm_flat = -1;  ///< first conv/fc: its data-gradient is skipped
};

namespace {

Dataflow build_dataflow(const Network& net) {
  Dataflow df;

  auto add_tensor = [&](int producer, int block, std::int64_t elems) {
    TensorInfo t;
    t.producer = producer;
    t.producer_block = block;
    t.elems_ps = elems;
    t.bytes_ps = core::bytes_for(elems, kFeat);
    df.tensors.push_back(t);
    return static_cast<int>(df.tensors.size()) - 1;
  };

  // Network input.
  int cur = add_tensor(-1, -1, net.input.elements());
  df.tensors[static_cast<std::size_t>(cur)].network_input = true;

  for (std::size_t bi = 0; bi < net.blocks.size(); ++bi) {
    const Block& blk = net.blocks[bi];
    const int block_in_tensor = cur;
    int layer_in_block = 0;

    auto add_layer = [&](const Layer& l) {
      FlatLayer fl;
      fl.block = static_cast<int>(bi);
      fl.layer = layer_in_block++;
      fl.l = &l;
      df.layers.push_back(fl);
      return static_cast<int>(df.layers.size()) - 1;
    };
    auto connect = [&](int flat, int in_tensor) {
      df.layers[static_cast<std::size_t>(flat)].in_tensors.push_back(in_tensor);
      df.tensors[static_cast<std::size_t>(in_tensor)].consumers.push_back(flat);
    };

    // Branch chains. The identity branch contributes its (= the block's)
    // input tensor directly to the merge.
    std::vector<int> branch_out_tensors;
    for (const core::Branch& branch : blk.branches) {
      int t = block_in_tensor;
      for (const Layer& l : branch.layers) {
        const int flat = add_layer(l);
        connect(flat, t);
        t = add_tensor(flat, static_cast<int>(bi), l.out.elements());
        df.layers[static_cast<std::size_t>(flat)].out_tensor = t;
        if (df.first_gemm_flat < 0 && l.is_gemm()) df.first_gemm_flat = flat;
      }
      branch_out_tensors.push_back(t);
    }

    // Merge chain: the first merge layer consumes every branch output; the
    // rest form a chain.
    int t = branch_out_tensors.empty() ? block_in_tensor
                                       : branch_out_tensors[0];
    for (std::size_t mi = 0; mi < blk.merge.size(); ++mi) {
      const Layer& l = blk.merge[mi];
      const int flat = add_layer(l);
      if (mi == 0 && (l.kind == LayerKind::kAdd || l.kind == LayerKind::kConcat)) {
        for (int bt : branch_out_tensors) {
          connect(flat, bt);
          df.tensors[static_cast<std::size_t>(bt)].feeds_merge = true;
        }
      } else {
        connect(flat, t);
      }
      t = add_tensor(flat, static_cast<int>(bi), l.out.elements());
      df.layers[static_cast<std::size_t>(flat)].out_tensor = t;
    }
    cur = blk.merge.empty() ? branch_out_tensors[0] : t;
  }
  return df;
}

/// True when this layer's backward pass needs its 16b forward input
/// (convolution/FC weight gradients, normalization gradients, attention's
/// Q/K/V operands).
bool needs_input_stash(const Layer& l) {
  return l.kind == LayerKind::kConv || l.kind == LayerKind::kFc ||
         l.kind == LayerKind::kNorm || l.kind == LayerKind::kAttention;
}

/// Per-sample working-set bytes of a layer viewed in isolation. Attention
/// additionally holds its heads x S x S score matrix between the two GEMMs.
std::int64_t layer_ws(const Layer& l) {
  return l.input_bytes_per_sample(kFeat) + l.output_bytes_per_sample(kFeat) +
         l.attention_score_bytes_per_sample(kFeat);
}

/// Block -> index of its group: the first group that contains the block,
/// as Schedule::group_of_block answers. Aborts when a block has no group.
std::vector<int> group_table(const Network& net, const Schedule& sched) {
  const int n = static_cast<int>(net.blocks.size());
  std::vector<int> group_of(static_cast<std::size_t>(n), -1);
  auto own = [&](int block, std::size_t g) {
    if (block < 0 || block >= n) return;
    int& owner = group_of[static_cast<std::size_t>(block)];
    if (owner < 0) owner = static_cast<int>(g);
  };
  for (std::size_t g = 0; g < sched.groups.size(); ++g) {
    const Group& grp = sched.groups[g];
    if (grp.members.empty()) {
      for (int b = std::max(grp.first, 0); b <= std::min(grp.last, n - 1); ++b)
        own(b, g);
    } else {
      for (int b : grp.members) own(b, g);
    }
  }
  for (int b = 0; b < n; ++b) {
    if (group_of[static_cast<std::size_t>(b)] < 0) {
      std::fprintf(stderr,
                   "traffic: block %d of network '%s' belongs to no group "
                   "of the schedule\n",
                   b, net.name.c_str());
      std::abort();
    }
  }
  return group_of;
}

/// Materializes every traffic contribution as a TrafficRecord.
struct RecordSink {
  const Dataflow& df;
  std::vector<TrafficRecord> out;

  void add(int flat, Phase phase, TrafficClass cls, double dram_rd,
           double dram_wr, double buf_rd, double buf_wr) {
    const FlatLayer& fl = df.layers[static_cast<std::size_t>(flat)];
    TrafficRecord r;
    r.block = fl.block;
    r.layer = fl.layer;
    r.kind = fl.l->kind;
    r.is_gemm = fl.l->is_gemm();
    r.phase = phase;
    r.cls = cls;
    r.dram_read = dram_rd;
    r.dram_write = dram_wr;
    // Every DRAM transfer also moves through the global buffer.
    r.buf_read = buf_rd + dram_wr;
    r.buf_write = buf_wr + dram_rd;
    out.push_back(r);
  }
};

/// Folds each contribution into a Traffic summary as it arrives, with the
/// operations a fold over RecordSink's records would apply in that order.
struct SummarySink {
  const Dataflow& df;
  Traffic out;

  SummarySink(const Network& net, const Dataflow& dataflow) : df(dataflow) {
    out.layers.resize(df.layers.size());
    out.block_dram.resize(net.blocks.size());
  }

  void add(int flat, Phase phase, TrafficClass cls, double dram_rd,
           double dram_wr, double buf_rd, double buf_wr) {
    const double buf_read = buf_rd + dram_wr;
    const double buf_write = buf_wr + dram_rd;
    const double dram = dram_rd + dram_wr;
    const double buf = buf_read + buf_write;
    out.dram_read += dram_rd;
    out.dram_write += dram_wr;
    out.buffer += buf;
    out.class_dram[static_cast<int>(cls)] += dram;
    const FlatLayer& fl = df.layers[static_cast<std::size_t>(flat)];
    out.block_dram[static_cast<std::size_t>(fl.block)] += dram;
    LayerBytes& lb = out.layers[static_cast<std::size_t>(flat)];
    const int ph = phase == Phase::kForward ? 0 : 1;
    lb.dram[ph] += dram;
    lb.buf[ph] += buf;
    ++out.record_count;
  }
};

/// Keeps only the DRAM read and write totals, each summed in record order,
/// so read + write is the same IEEE operation sequence as
/// Traffic::dram_read_bytes() + Traffic::dram_write_bytes().
struct DramSink {
  double read = 0;
  double write = 0;

  void add(int, Phase, TrafficClass, double dram_rd, double dram_wr, double,
           double) {
    read += dram_rd;
    write += dram_wr;
  }
};

/// The traffic walker: visits every tensor edge, then every layer, of a
/// dataflow built once, and hands each contribution to `Sink::add` in a
/// fixed order. compute_traffic, compute_traffic_records and
/// dram_traffic_bytes differ only in the sink; DramObjective calls the
/// emitters one tensor or layer at a time to fill its tables.
template <class Sink>
class TrafficBuilder {
 public:
  TrafficBuilder(const Network& net, const Dataflow& df,
                 const Schedule& sched, Sink& sink)
      : net_(net), sched_(sched), df_(df), group_of_(group_table(net, sched)),
        n_(sched.mini_batch), masks_(uses_relu_masks(sched.config)),
        sink_(sink) {}

  void run() {
    for (std::size_t ti = 0; ti < df_.tensors.size(); ++ti)
      emit_tensor(static_cast<int>(ti));
    for (std::size_t fi = 0; fi < df_.layers.size(); ++fi)
      emit_layer(static_cast<int>(fi));
  }

  /// Moves `block` into group `group` for the emissions that follow.
  void set_group(int block, int group) {
    group_of_[static_cast<std::size_t>(block)] = group;
  }

 private:
  const Group& group_of(int block) const {
    return sched_.groups[static_cast<std::size_t>(
        group_of_[static_cast<std::size_t>(block)])];
  }

  /// Does the edge tensor->consumer move through DRAM?
  bool edge_via_dram(int tensor, int consumer_flat) const {
    const TensorInfo& t = df_.tensors[static_cast<std::size_t>(tensor)];
    if (t.network_input) return true;
    const FlatLayer& c = df_.layers[static_cast<std::size_t>(consumer_flat)];
    const ExecConfig cfg = sched_.config;

    if (cfg == ExecConfig::kBaseline || cfg == ExecConfig::kArchOpt)
      return true;

    // Rank of this consumer among the tensor's consumers (fan-out order).
    const auto it = std::find(t.consumers.begin(), t.consumers.end(),
                              consumer_flat);
    const int rank = static_cast<int>(it - t.consumers.begin());

    // Is this the branch output that reaches the merge layer last (and can
    // therefore stay resident without extra provisioning)?
    const bool is_last_merge_operand = [&] {
      if (!t.feeds_merge) return false;
      const std::vector<int>& ins = c.in_tensors;
      int latest = -2;
      for (int in : ins) {
        const int p = df_.tensors[static_cast<std::size_t>(in)].producer;
        latest = std::max(latest, p);
      }
      return t.producer == latest;
    }();

    if (cfg == ExecConfig::kIL) {
      // On chip only when the whole mini-batch fits at both endpoints.
      const std::int64_t p_ws =
          t.producer < 0 ? 0
                         : layer_ws(*df_.layers[static_cast<std::size_t>(
                                         t.producer)].l);
      const std::int64_t need =
          static_cast<std::int64_t>(n_) * std::max(p_ws, layer_ws(*c.l));
      if (need > sched_.buffer_bytes) return true;
      // Cross-branch sharing additionally requires Eq. 1/2 provisioning for
      // the whole mini-batch.
      if ((rank > 0) || (t.feeds_merge && !is_last_merge_operand)) {
        const Block& blk = net_.blocks[static_cast<std::size_t>(c.block)];
        return static_cast<std::int64_t>(n_) * blk.footprint_inter_branch() >
               sched_.buffer_bytes;
      }
      return false;
    }

    // Serialized configs: group boundaries always spill.
    if (group_of_[static_cast<std::size_t>(t.producer_block)] !=
        group_of_[static_cast<std::size_t>(c.block)])
      return true;
    if (uses_inter_branch_reuse(cfg)) return false;
    // MBS1 / MBS-FS: no cross-branch provisioning. A block input is only
    // resident for its first consumer; branch outputs other than the last
    // produced one are spilled before the merge.
    if (rank > 0) return true;
    if (t.feeds_merge && !is_last_merge_operand) return true;
    return false;
  }

  /// Can a norm-style double pass over `bytes_ps` per sample be buffered?
  bool double_pass_buffered(int consumer_flat, std::int64_t in_bytes_ps) const {
    if (uses_serialization(sched_.config)) return true;  // chunk fits by construction
    const std::int64_t need = static_cast<std::int64_t>(n_) * 2 * in_bytes_ps;
    (void)consumer_flat;
    return need <= sched_.buffer_bytes;
  }

  void add(int flat, Phase phase, TrafficClass cls, double dram_rd,
           double dram_wr, double buf_rd, double buf_wr) {
    sink_.add(flat, phase, cls, dram_rd, dram_wr, buf_rd, buf_wr);
  }

 public:
  /// Emits forward feature movement, stash writes, gradient movement and
  /// stash reads for one tensor.
  void emit_tensor(int ti) {
    const TensorInfo& t = df_.tensors[static_cast<std::size_t>(ti)];
    const double bytes = static_cast<double>(t.bytes_ps) * n_;

    // --- Forward: producer side -------------------------------------------
    bool any_dram_consumer = false;
    for (int c : t.consumers) any_dram_consumer |= edge_via_dram(ti, c);

    bool stash16 = false;
    for (int c : t.consumers)
      stash16 |= needs_input_stash(*df_.layers[static_cast<std::size_t>(c)].l);
    // Without 1-bit masks, ReLU backward re-reads its 16b output, which must
    // therefore be present in DRAM.
    const bool act_out = t.producer >= 0 &&
        df_.layers[static_cast<std::size_t>(t.producer)].l->kind ==
            LayerKind::kAct;
    if (act_out && !masks_) stash16 = true;

    if (t.producer >= 0) {
      // Producer always writes its result into the global buffer.
      add(t.producer, Phase::kForward, TrafficClass::kFeature, 0, 0, 0, bytes);
      if (any_dram_consumer || stash16) {
        const TrafficClass cls =
            any_dram_consumer ? TrafficClass::kFeature : TrafficClass::kStash;
        add(t.producer, Phase::kForward, cls, 0, bytes, 0, 0);
      }
    }

    // --- Forward: consumer side -------------------------------------------
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      const bool via_dram = edge_via_dram(ti, c);
      const TrafficClass cls =
          t.network_input ? TrafficClass::kInput : TrafficClass::kFeature;
      if (via_dram)
        add(c, Phase::kForward, cls, bytes, 0, 0, 0);
      else
        add(c, Phase::kForward, cls, 0, 0, bytes, 0);
      // Normalization iterates over its input twice (mean/variance, then
      // the normalization itself).
      if (fc.l->kind == LayerKind::kNorm) {
        if (double_pass_buffered(c, t.bytes_ps) || !via_dram)
          add(c, Phase::kForward, cls, 0, 0, bytes, 0);
        else
          add(c, Phase::kForward, cls, bytes, 0, 0, 0);
      }
    }

    // --- Backward: stash reads --------------------------------------------
    bool shared_read_done = false;
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      if (!needs_input_stash(*fc.l)) continue;
      // With inter-branch reuse, consumers in the same block share one read.
      if (uses_inter_branch_reuse(sched_.config) && shared_read_done) {
        add(c, Phase::kBackward, TrafficClass::kStash, 0, 0, bytes, 0);
        continue;
      }
      add(c, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      shared_read_done = true;
      // Normalization backward also needs two passes over x.
      if (fc.l->kind == LayerKind::kNorm) {
        if (double_pass_buffered(c, t.bytes_ps))
          add(c, Phase::kBackward, TrafficClass::kStash, 0, 0, bytes, 0);
        else
          add(c, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      }
    }
    // ReLU backward: 1-bit mask (MBS) or a re-read of the 16b output.
    if (act_out) {
      const double mask_bytes =
          static_cast<double>(core::bytes_for(t.elems_ps, DataType::kBit)) * n_;
      if (masks_) {
        add(t.producer, Phase::kForward, TrafficClass::kMask, 0, mask_bytes, 0, 0);
        add(t.producer, Phase::kBackward, TrafficClass::kMask, mask_bytes, 0, 0, 0);
      } else {
        add(t.producer, Phase::kBackward, TrafficClass::kStash, bytes, 0, 0, 0);
      }
    }
    // Max pooling stores argmax indices (1 byte per output element).
    if (t.producer >= 0) {
      const Layer& pl = *df_.layers[static_cast<std::size_t>(t.producer)].l;
      if (pl.kind == LayerKind::kPool && pl.pool_kind == core::PoolKind::kMax) {
        const double idx_bytes =
            static_cast<double>(core::bytes_for(t.elems_ps, DataType::kI8)) * n_;
        add(t.producer, Phase::kForward, TrafficClass::kStash, 0, idx_bytes, 0, 0);
        add(t.producer, Phase::kBackward, TrafficClass::kStash, idx_bytes, 0, 0, 0);
      }
    }

    // --- Backward: gradient movement ---------------------------------------
    // grad(t) is produced (as partials) by each consumer's backward pass and
    // consumed by the producer's backward pass. Add/Concat backward is pure
    // routing: the gradient of an Add/Concat input aliases the gradient of
    // its output, so such consumers write nothing — the producer reads the
    // aliased gradient from wherever it lives. The network input needs no
    // gradient.
    if (t.producer < 0) return;
    if (t.consumers.empty()) return;  // final output; loss is out of scope
    for (int c : t.consumers) {
      const FlatLayer& fc = df_.layers[static_cast<std::size_t>(c)];
      const bool routed = fc.l->kind == LayerKind::kAdd ||
                          fc.l->kind == LayerKind::kConcat;
      bool via_dram;
      if (routed) {
        // Location of grad(merge output): spilled iff any forward edge of
        // the merge's output tensor moved through DRAM (mirror rule).
        via_dram = false;
        const TensorInfo& mo =
            df_.tensors[static_cast<std::size_t>(fc.out_tensor)];
        for (int mc : mo.consumers)
          via_dram |= edge_via_dram(fc.out_tensor, mc);
      } else {
        via_dram = edge_via_dram(ti, c);
        // The partial producer materializes its contribution.
        if (via_dram)
          add(c, Phase::kBackward, TrafficClass::kGradient, 0, bytes, 0, 0);
        else
          add(c, Phase::kBackward, TrafficClass::kGradient, 0, 0, 0, bytes);
      }
      if (via_dram)
        add(t.producer, Phase::kBackward, TrafficClass::kGradient, bytes, 0,
            0, 0);
      else
        add(t.producer, Phase::kBackward, TrafficClass::kGradient, 0, 0,
            bytes, 0);
    }
  }

  /// Emits the movement of the score/probability matrix internal to an
  /// attention layer. P = softmax(Q.K^T) sits between the two
  /// activation-activation GEMMs; it is always stashed to DRAM for the
  /// backward pass (the softmax gradient and dV both consume it), and the
  /// remaining intermediate passes stay on chip only while a sub-batch of
  /// score matrices fits in the global buffer. Because the schedule's
  /// per-sample block footprint includes the score matrix, serialized
  /// configs always fit; the unserialized configs spill once B*H*S*S
  /// outgrows the buffer — exactly the reuse pattern MBS is meant to keep
  /// on chip.
  void emit_attention(int fi) {
    const FlatLayer& fl = df_.layers[static_cast<std::size_t>(fi)];
    const Layer& l = *fl.l;
    const std::int64_t score_ps = l.attention_score_bytes_per_sample(kFeat);
    const double p = static_cast<double>(score_ps) * n_;

    add(fi, Phase::kForward, TrafficClass::kStash, 0, p, 0, 0);
    add(fi, Phase::kBackward, TrafficClass::kStash, p, 0, 0, 0);

    const std::int64_t sub = group_of(fl.block).sub_batch;
    if (sub * score_ps <= sched_.buffer_bytes) {
      // Scores/P shuttle through the buffer: GEMM1 writes scores, the
      // softmax reads them in place; backward re-reads P (for dV and the
      // softmax gradient) and streams dP/dS without leaving the chip.
      add(fi, Phase::kForward, TrafficClass::kFeature, 0, 0, p, p);
      add(fi, Phase::kBackward, TrafficClass::kFeature, 0, 0, 3 * p, p);
    } else {
      // A sub-batch of score matrices overflows the buffer: forward, the
      // softmax re-reads the spilled scores and GEMM2 re-reads P (its spill
      // is the stash write above); backward, dP and dS are materialized in
      // DRAM (dS read twice, for dQ and dK) and P is re-read for dV.
      add(fi, Phase::kForward, TrafficClass::kFeature, 2 * p, p, 0, 0);
      add(fi, Phase::kBackward, TrafficClass::kFeature, 4 * p, 2 * p, 0, 0);
    }
  }

  /// Emits weight and weight-gradient traffic for one layer.
  void emit_layer(int fi) {
    const FlatLayer& fl = df_.layers[static_cast<std::size_t>(fi)];
    const Layer& l = *fl.l;
    if (l.kind == LayerKind::kAttention) {
      emit_attention(fi);
      return;
    }
    const double w = static_cast<double>(l.param_bytes(kFeat));
    if (w == 0) return;
    const int it = group_of(fl.block).iterations;

    if (l.kind == LayerKind::kNorm) {
      // GN scale/shift parameters are small enough to stay on chip for the
      // whole step (Sec. 3.1): one read, one gradient write.
      add(fi, Phase::kForward, TrafficClass::kWeight, w, 0, 0, 0);
      add(fi, Phase::kBackward, TrafficClass::kWgradPartial, 0, w, 0, 0);
      return;
    }

    // Forward: weights re-read once per sub-batch iteration.
    add(fi, Phase::kForward, TrafficClass::kWeight, w * it, 0, 0, 0);
    // Backward data gradient re-reads (transposed) weights, except for the
    // first GEMM layer which needs no input gradient.
    if (fi != df_.first_gemm_flat)
      add(fi, Phase::kBackward, TrafficClass::kWeight, w * it, 0, 0, 0);
    // Weight-gradient partial sums: written every iteration, re-read on
    // every iteration after the first (Sec. 3 "Data Synchronization").
    add(fi, Phase::kBackward, TrafficClass::kWgradPartial, w * (it - 1),
        w * it, 0, 0);
  }

 private:
  const Network& net_;
  const Schedule& sched_;
  const Dataflow& df_;
  std::vector<int> group_of_;
  int n_;
  bool masks_;
  Sink& sink_;
};

}  // namespace

const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kInput: return "input";
    case TrafficClass::kFeature: return "feature";
    case TrafficClass::kGradient: return "gradient";
    case TrafficClass::kWeight: return "weight";
    case TrafficClass::kWgradPartial: return "wgrad";
    case TrafficClass::kStash: return "stash";
    case TrafficClass::kMask: return "mask";
  }
  return "?";
}

const char* to_string(Phase p) {
  return p == Phase::kForward ? "fwd" : "bwd";
}

double Traffic::dram_bytes_for_block(int block) const {
  if (block < 0 || static_cast<std::size_t>(block) >= block_dram.size())
    return 0;
  return block_dram[static_cast<std::size_t>(block)];
}

const std::vector<LayerBytes>& layer_bytes(const core::Network& net,
                                           const Traffic& traffic) {
  if (traffic.layers.size() != static_cast<std::size_t>(net.layer_count())) {
    std::fprintf(stderr,
                 "layer_bytes: traffic holds %zu layers, network '%s' has "
                 "%d\n",
                 traffic.layers.size(), net.name.c_str(), net.layer_count());
    std::abort();
  }
  return traffic.layers;
}

Traffic compute_traffic(const core::Network& net, const Schedule& schedule) {
  const Dataflow df = build_dataflow(net);
  SummarySink sink(net, df);
  TrafficBuilder<SummarySink>(net, df, schedule, sink).run();
  return std::move(sink.out);
}

std::vector<TrafficRecord> compute_traffic_records(const core::Network& net,
                                                   const Schedule& schedule) {
  const Dataflow df = build_dataflow(net);
  RecordSink sink{df, {}};
  TrafficBuilder<RecordSink>(net, df, schedule, sink).run();
  return std::move(sink.out);
}

namespace {

/// Adds the DRAM bytes of each record to `*cell`, aborting on any that are
/// not a whole number below 2^53: DramObjective adds its entries in another
/// order than the walk adds records, which is exact only for integers.
struct TableSink {
  const Network& net;
  double* cell = nullptr;

  void add(int, Phase, TrafficClass, double dram_rd, double dram_wr, double,
           double) {
    for (const double bytes : {dram_rd, dram_wr}) {
      if (!(bytes >= 0 && bytes < 0x1p53 && std::trunc(bytes) == bytes)) {
        std::fprintf(stderr,
                     "DramObjective: network '%s' moves %a DRAM bytes in "
                     "one record, not an integer below 2^53\n",
                     net.name.c_str(), bytes);
        std::abort();
      }
      *cell += bytes;
    }
  }
};

}  // namespace

DramObjective::DramObjective(const core::Network& net, const Schedule& shape)
    : net_(net), config_(shape.config), mini_batch_(shape.mini_batch),
      buffer_bytes_(shape.buffer_bytes), block_max_sub_(shape.block_max_sub) {
  const int n = static_cast<int>(net.blocks.size());
  if (block_max_sub_.size() != static_cast<std::size_t>(n) ||
      std::any_of(block_max_sub_.begin(), block_max_sub_.end(),
                  [&](int sub) { return sub < 1 || sub > mini_batch_; })) {
    std::fprintf(stderr,
                 "DramObjective: network '%s' has %d blocks, the shape "
                 "schedule %zu sub-batch limits in [1, %d]\n",
                 net.name.c_str(), n, block_max_sub_.size(), mini_batch_);
    std::abort();
  }
  const Dataflow df = build_dataflow(net);

  // A serialized group runs at its tightest member's limit, and an
  // unserialized one at the whole mini-batch.
  sub_slot_.assign(static_cast<std::size_t>(mini_batch_) + 1, -1);
  sub_slot_[static_cast<std::size_t>(mini_batch_)] = 0;
  for (int sub : block_max_sub_) sub_slot_[static_cast<std::size_t>(sub)] = 0;
  for (int sub = 1; sub <= mini_batch_; ++sub) {
    int& slot = sub_slot_[static_cast<std::size_t>(sub)];
    if (slot < 0) continue;
    slot = static_cast<int>(slot_iterations_.size());
    slot_iterations_.push_back(iterations_for(mini_batch_, sub));
  }
  const std::size_t slots = slot_iterations_.size();

  // The probe schedule puts every block in its own group, so every boundary
  // is split; an entry merges at most two boundaries around one tensor.
  Schedule probe;
  probe.config = config_;
  probe.mini_batch = mini_batch_;
  probe.buffer_bytes = buffer_bytes_;
  for (int b = 0; b < n; ++b) probe.groups.push_back(Group{b, b, 1, 1, {}});
  TableSink sink{net};
  TrafficBuilder<TableSink> walk(net, df, probe, sink);

  boundary_.assign(2 * static_cast<std::size_t>(n), 0);
  boundary_pair_.assign(4 * static_cast<std::size_t>(n), 0);
  for (int ti = 0; ti < static_cast<int>(df.tensors.size()); ++ti) {
    const TensorInfo& t = df.tensors[static_cast<std::size_t>(ti)];
    // The network input reads no group: its edges always move through DRAM
    // and it has no gradient. Every other tensor reads the groups of its
    // producer's block, its consumers' blocks and the blocks that consume
    // its consumers' outputs (for routed gradients).
    const int lo = t.producer_block;
    int hi = lo;
    if (t.producer >= 0) {
      for (int c : t.consumers) {
        const FlatLayer& fc = df.layers[static_cast<std::size_t>(c)];
        if (fc.block - lo > 1) {
          std::fprintf(stderr,
                       "DramObjective: network '%s' has an edge from block "
                       "%d to block %d; grouping tables need every edge to "
                       "stay in a block or reach the next one\n",
                       net.name.c_str(), lo, fc.block);
          std::abort();
        }
        hi = std::max(hi, fc.block);
        for (int mc : df.tensors[static_cast<std::size_t>(fc.out_tensor)]
                          .consumers)
          hi = std::max(hi, df.layers[static_cast<std::size_t>(mc)].block);
      }
    }
    if (hi == lo) {
      sink.cell = &constant_;
      walk.emit_tensor(ti);
    } else if (hi == lo + 1) {
      for (int split = 0; split < 2; ++split) {
        walk.set_group(hi, split ? hi : lo);
        sink.cell = &boundary_[static_cast<std::size_t>(2 * hi + split)];
        walk.emit_tensor(ti);
      }
      walk.set_group(hi, hi);
    } else {
      const int b = lo + 1;
      for (int first = 0; first < 2; ++first)
        for (int second = 0; second < 2; ++second) {
          const int mid = first ? b : lo;
          walk.set_group(b, mid);
          walk.set_group(b + 1, second ? b + 1 : mid);
          sink.cell = &boundary_pair_[static_cast<std::size_t>(
              4 * b + 2 * first + second)];
          walk.emit_tensor(ti);
        }
      walk.set_group(b, b);
      walk.set_group(b + 1, b + 1);
    }
  }

  layer_.assign(static_cast<std::size_t>(n) * slots, 0);
  for (int sub = 1; sub <= mini_batch_; ++sub) {
    const int slot = sub_slot_[static_cast<std::size_t>(sub)];
    if (slot < 0) continue;
    for (Group& g : probe.groups) {
      g.sub_batch = sub;
      g.iterations = slot_iterations_[static_cast<std::size_t>(slot)];
    }
    for (std::size_t fi = 0; fi < df.layers.size(); ++fi) {
      sink.cell = &layer_[static_cast<std::size_t>(df.layers[fi].block) *
                              slots +
                          static_cast<std::size_t>(slot)];
      walk.emit_layer(static_cast<int>(fi));
    }
  }

  // Every addend is a non-negative integer, so the largest alternative of
  // every term bounds each partial sum of any schedule's total.
  double worst = constant_;
  auto add_largest = [&](const std::vector<double>& table, std::size_t width) {
    for (std::size_t i = 0; i < table.size(); i += width)
      worst += *std::max_element(table.begin() + static_cast<std::ptrdiff_t>(i),
                                 table.begin() +
                                     static_cast<std::ptrdiff_t>(i + width));
  };
  add_largest(boundary_, 2);
  add_largest(boundary_pair_, 4);
  add_largest(layer_, slots);
  if (!(worst < 0x1p53)) {
    std::fprintf(stderr,
                 "DramObjective: network '%s' can move %.17g DRAM bytes per "
                 "step, at or above 2^53, where the sum is no longer exact\n",
                 net.name.c_str(), worst);
    std::abort();
  }
}

double DramObjective::operator()(const Schedule& schedule) const {
  if (schedule.config != config_ || schedule.mini_batch != mini_batch_ ||
      schedule.buffer_bytes != buffer_bytes_ ||
      schedule.block_max_sub != block_max_sub_) {
    std::fprintf(stderr,
                 "DramObjective: built for network '%s' under %s at "
                 "mini-batch %d and a %lld-byte buffer, asked to score a "
                 "schedule of another shape (%s, mini-batch %d, %lld bytes)\n",
                 net_.name.c_str(), to_string(config_), mini_batch_,
                 static_cast<long long>(buffer_bytes_),
                 to_string(schedule.config), schedule.mini_batch,
                 static_cast<long long>(schedule.buffer_bytes));
    std::abort();
  }
  const std::vector<int> group_of = group_table(net_, schedule);
  const std::size_t n = group_of.size();
  const std::size_t slots = slot_iterations_.size();
  double total = constant_;
  for (std::size_t b = 1; b < n; ++b) {
    const std::size_t split = group_of[b - 1] != group_of[b];
    total += boundary_[2 * b + split];
    if (b + 1 < n)
      total += boundary_pair_[4 * b + 2 * split +
                              (group_of[b] != group_of[b + 1])];
  }
  for (std::size_t b = 0; b < n; ++b) {
    const Group& g = schedule.groups[static_cast<std::size_t>(group_of[b])];
    const int slot = g.sub_batch >= 1 && g.sub_batch <= mini_batch_
                         ? sub_slot_[static_cast<std::size_t>(g.sub_batch)]
                         : -1;
    if (slot < 0 ||
        slot_iterations_[static_cast<std::size_t>(slot)] != g.iterations) {
      std::fprintf(stderr,
                   "DramObjective: block %zu of network '%s' runs at "
                   "sub-batch %d x %d iterations, which no group of this "
                   "shape can form\n",
                   b, net_.name.c_str(), g.sub_batch, g.iterations);
      std::abort();
    }
    total += layer_[b * slots + static_cast<std::size_t>(slot)];
  }
  return total;
}

double dram_traffic_bytes(const core::Network& net, const Schedule& schedule) {
  const Dataflow df = build_dataflow(net);
  DramSink sink;
  TrafficBuilder<DramSink>(net, df, schedule, sink).run();
  return sink.read + sink.write;
}

}  // namespace mbs::sched
