// Energy model (Sec. 4.2 "Power Modeling", Sec. 6 energy results).
//
// The paper derives per-access and per-op energies from CACTI, Orion 2.0,
// the Rambus DRAM power model and published multiplier/adder/flip-flop
// figures; we embed equivalent per-unit constants (see DESIGN.md
// substitutions). Two properties the paper calls out are preserved:
// a global-buffer access is ~8x cheaper than a DRAM access (Sec. 6), and
// PEs skip multiply/accumulate work when an input is zero (Sec. 4.1).
#pragma once

#include <cstdint>

namespace mbs::arch {

/// Per-unit energy constants and static power.
struct EnergyModel {
  double dram_pj_per_byte = 25.0;    ///< overridden by MemoryConfig
  double buffer_pj_per_byte = 3.1;   ///< global buffer, ~DRAM/8 (Sec. 6)
  double mac_pj = 2.0;               ///< 16b multiply + 32b accumulate + regs
  double vector_op_pj = 0.4;         ///< vector/scalar unit op
  /// Fraction of MACs skipped because one input is zero (ReLU-induced
  /// sparsity; Sec. 4.1 "skip computes").
  double zero_skip_fraction = 0.4;
  /// Leakage/clock-tree power. Calibrated so ArchOpt's energy gain stays
  /// ~2% (Sec. 6: "ArchOpt has little energy benefit as it conserves only
  /// static energy").
  double static_power_w = 4.0;
};

/// Energy of one training step, broken into the components the paper
/// discusses (DRAM vs buffer vs arithmetic vs static).
struct EnergyBreakdown {
  double dram_j = 0;
  double buffer_j = 0;
  double mac_j = 0;
  double vector_j = 0;
  double static_j = 0;

  double total() const {
    return dram_j + buffer_j + mac_j + vector_j + static_j;
  }
  double dram_fraction() const {
    const double t = total();
    return t > 0 ? dram_j / t : 0;
  }
  bool operator==(const EnergyBreakdown&) const = default;
};

/// Combines activity counts into a step-energy breakdown.
EnergyBreakdown compute_energy(const EnergyModel& model, double dram_bytes,
                               double buffer_bytes, double macs,
                               double vector_ops, double step_seconds);

}  // namespace mbs::arch
