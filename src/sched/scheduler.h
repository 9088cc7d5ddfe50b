// The MBS scheduler: builds an execution schedule for a network under one of
// the Tab. 3 configurations (Sec. 3 "Layer Grouping Optimizes Reuse").
#pragma once

#include "core/network.h"
#include "sched/schedule.h"

namespace mbs::sched {

/// Builds a schedule for `net` under `config`.
///
/// * Baseline / ArchOpt / IL: a single group spanning the whole network with
///   sub-batch = mini-batch (no serialization).
/// * MBS-FS: one group, sub-batch = the minimum feasible size over all blocks.
/// * MBS1 / MBS2: initial groups of equal minimum iteration count, then
///   greedy merging of adjacent groups while total modeled DRAM traffic
///   improves; MBS2 additionally provisions for inter-branch reuse (Eq. 1/2)
///   when computing footprints.
///
/// Two search-space knobs refine the MBS1/MBS2 grouping step:
///
/// * `params.optimal_grouping` replaces greedy merging with a dynamic
///   program over contiguous partitions (the exhaustive-search reference of
///   the paper's footnote 1): O(blocks^2) evaluations of the O(layers)
///   DramObjective, whose dataflow graph is built once per call.
/// * `params.variant == GroupingVariant::kNonContiguous` lets the greedy
///   merger combine *any* two groups, not just adjacent ones; the resulting
///   groups carry explicit member lists (`Group::members`). It takes
///   precedence over `optimal_grouping` (the DP searches the contiguous
///   space only). The default, `kContiguous`, preserves current schedules
///   bit for bit.
///
/// Determinism: for fixed inputs the result is a pure function of
/// (net, config, params) — the engine memoizes it under
/// `Scenario::schedule_key()`, which covers every `ScheduleParams` field.
Schedule build_schedule(const core::Network& net, ExecConfig config,
                        const ScheduleParams& params = {});

}  // namespace mbs::sched
