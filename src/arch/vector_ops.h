// Vector-unit op counts of the non-GEMM work (norm, pool, activation and
// merge layers, and attention's softmax), shared by both step simulators.
#pragma once

#include "core/layer.h"

namespace mbs::arch {

/// Approximate vector-unit operations per sample, forward.
inline double vector_ops_fwd(const core::Layer& l) {
  return static_cast<double>(l.flops_per_sample());
}

/// Approximate vector-unit operations per sample, backward.
inline double vector_ops_bwd(const core::Layer& l) {
  switch (l.kind) {
    case core::LayerKind::kNorm:
      // Gradients w.r.t. input plus scale/shift parameter gradients.
      return 2.0 * static_cast<double>(l.flops_per_sample());
    case core::LayerKind::kAct:
      return static_cast<double>(l.in.elements());
    case core::LayerKind::kPool:
      return static_cast<double>(l.out.elements());
    default:
      return 0;  // Add/Concat backward is gradient routing
  }
}

/// Softmax ops of one attention layer, per sample per direction (~4 ops per
/// score-matrix element: max, exp-subtract, sum, divide — and the backward
/// Jacobian-vector product costs the same).
inline double attention_softmax_ops(const core::Layer& l) {
  const double s = static_cast<double>(l.in.h) * l.in.w;
  return 4.0 * l.heads * s * s;
}

}  // namespace mbs::arch
