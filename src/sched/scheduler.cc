#include "sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

#include "sched/traffic.h"

namespace mbs::sched {

namespace {

/// Recomputes each group's sub-batch size and iteration count from its
/// blocks' individual limits (a group runs at the tightest block's size).
void refresh_groups(Schedule& s) {
  for (Group& g : s.groups) {
    int sub = s.mini_batch;
    if (g.members.empty()) {
      for (int b = g.first; b <= g.last; ++b)
        sub = std::min(sub, s.block_max_sub[static_cast<std::size_t>(b)]);
    } else {
      for (int b : g.members)
        sub = std::min(sub, s.block_max_sub[static_cast<std::size_t>(b)]);
    }
    g.sub_batch = sub;
    g.iterations = iterations_for(s.mini_batch, sub);
  }
}

/// Initial grouping: maximal runs of blocks with equal minimum iteration
/// count (the red line of Fig. 4 determines the cut points).
std::vector<Group> initial_groups(const Schedule& s, int n_blocks) {
  std::vector<Group> groups;
  int start = 0;
  auto iters = [&](int b) {
    return iterations_for(s.mini_batch,
                          s.block_max_sub[static_cast<std::size_t>(b)]);
  };
  for (int b = 1; b <= n_blocks; ++b) {
    if (b == n_blocks || iters(b) != iters(start)) {
      Group g;
      g.first = start;
      g.last = b - 1;
      groups.push_back(g);
      start = b;
    }
  }
  return groups;
}

/// Greedy merging: repeatedly apply the adjacent-group merge that reduces
/// total modeled DRAM traffic the most, until no merge helps (Sec. 3).
void greedy_merge(const DramObjective& dram_bytes, Schedule& s) {
  refresh_groups(s);
  double best = dram_bytes(s);
  while (s.groups.size() > 1) {
    int best_idx = -1;
    double best_traffic = best;
    for (std::size_t g = 0; g + 1 < s.groups.size(); ++g) {
      Schedule cand = s;
      cand.groups[g].last = cand.groups[g + 1].last;
      cand.groups.erase(cand.groups.begin() + static_cast<std::ptrdiff_t>(g) + 1);
      refresh_groups(cand);
      const double traffic = dram_bytes(cand);
      if (traffic < best_traffic) {
        best_traffic = traffic;
        best_idx = static_cast<int>(g);
      }
    }
    if (best_idx < 0) break;
    s.groups[static_cast<std::size_t>(best_idx)].last =
        s.groups[static_cast<std::size_t>(best_idx) + 1].last;
    s.groups.erase(s.groups.begin() + best_idx + 1);
    refresh_groups(s);
    best = best_traffic;
  }
}

/// Non-contiguous greedy merging (GroupingVariant::kNonContiguous):
/// starting from the same initial groups, repeatedly apply the merge of
/// *any* two groups — adjacent or not — that reduces total modeled DRAM
/// traffic the most. Merged groups carry explicit sorted member lists and
/// the group vector stays ordered by first block. Because all tensor edges
/// of the evaluated networks connect adjacent blocks, merging non-adjacent
/// groups keeps no extra data on chip while still tightening the merged
/// sub-batch to the minimum over members, so in practice this search picks
/// exactly the adjacent merges the contiguous greedy picks — the variant is
/// the in-tree demonstration that the paper's contiguity restriction loses
/// nothing.
void greedy_merge_noncontig(const DramObjective& dram_bytes, Schedule& s) {
  // Every group carries members explicitly so downstream consumers can
  // rely on one representation for this variant.
  for (Group& g : s.groups) g.members = g.blocks();
  refresh_groups(s);
  double best = dram_bytes(s);

  auto merge_into = [](Schedule& sched, std::size_t a, std::size_t b) {
    Group& ga = sched.groups[a];
    Group& gb = sched.groups[b];
    std::vector<int> merged;
    merged.reserve(ga.members.size() + gb.members.size());
    std::merge(ga.members.begin(), ga.members.end(), gb.members.begin(),
               gb.members.end(), std::back_inserter(merged));
    ga.members = std::move(merged);
    ga.first = ga.members.front();
    ga.last = ga.members.back();
    sched.groups.erase(sched.groups.begin() + static_cast<std::ptrdiff_t>(b));
    std::sort(sched.groups.begin(), sched.groups.end(),
              [](const Group& x, const Group& y) { return x.first < y.first; });
  };

  while (s.groups.size() > 1) {
    std::size_t best_a = 0, best_b = 0;
    double best_traffic = best;
    for (std::size_t a = 0; a < s.groups.size(); ++a)
      for (std::size_t b = a + 1; b < s.groups.size(); ++b) {
        Schedule cand = s;
        merge_into(cand, a, b);
        refresh_groups(cand);
        const double traffic = dram_bytes(cand);
        if (traffic < best_traffic) {
          best_traffic = traffic;
          best_a = a;
          best_b = b;
        }
      }
    if (best_a == best_b) break;
    merge_into(s, best_a, best_b);
    refresh_groups(s);
    best = best_traffic;
  }
}

/// Optimal contiguous partition via dynamic programming (footnote 1).
/// Evaluates candidate partitions with the full traffic model; to keep this
/// polynomial it exploits that traffic is additive over groups given fixed
/// block footprints: dp[j] = min_i dp[i] + cost(i, j) where cost is the
/// traffic of a schedule containing group [i, j) with every other block in
/// singleton groups, minus the singleton baseline (a constant shift that
/// preserves the argmin). That is O(blocks^2) evaluations of the O(layers)
/// objective, which walks a dataflow graph built once per build_schedule.
void dp_optimal(const DramObjective& dram_bytes, int n, Schedule& s) {
  // Singleton baseline: every block its own group.
  Schedule singles = s;
  singles.groups.clear();
  for (int b = 0; b < n; ++b) {
    Group g;
    g.first = g.last = b;
    singles.groups.push_back(g);
  }
  refresh_groups(singles);

  // cost(i, j): traffic with blocks [i, j] merged and all others singleton.
  auto cost = [&](int i, int j) {
    Schedule cand = singles;
    std::vector<Group> groups;
    for (int b = 0; b < i; ++b) groups.push_back(Group{b, b, 1, 1, {}});
    groups.push_back(Group{i, j, 1, 1, {}});
    for (int b = j + 1; b < n; ++b) groups.push_back(Group{b, b, 1, 1, {}});
    cand.groups = std::move(groups);
    refresh_groups(cand);
    return dram_bytes(cand);
  };
  const double base = dram_bytes(singles);

  std::vector<double> dp(static_cast<std::size_t>(n) + 1,
                         std::numeric_limits<double>::infinity());
  std::vector<int> cut(static_cast<std::size_t>(n) + 1, 0);
  dp[0] = 0;
  for (int j = 1; j <= n; ++j) {
    for (int i = 0; i < j; ++i) {
      const double c = dp[static_cast<std::size_t>(i)] +
                       (cost(i, j - 1) - base);
      if (c < dp[static_cast<std::size_t>(j)]) {
        dp[static_cast<std::size_t>(j)] = c;
        cut[static_cast<std::size_t>(j)] = i;
      }
    }
  }
  std::vector<Group> groups;
  for (int j = n; j > 0; j = cut[static_cast<std::size_t>(j)]) {
    Group g;
    g.first = cut[static_cast<std::size_t>(j)];
    g.last = j - 1;
    groups.push_back(g);
  }
  std::reverse(groups.begin(), groups.end());
  s.groups = std::move(groups);
  refresh_groups(s);
}

}  // namespace

Schedule build_schedule(const core::Network& net, ExecConfig config,
                        const ScheduleParams& params) {
  Schedule s;
  s.config = config;
  s.mini_batch =
      params.mini_batch > 0 ? params.mini_batch : net.mini_batch_per_core;
  s.buffer_bytes = params.buffer_bytes;
  s.block_footprint = block_footprints(net, config, params.feature_type);
  s.block_max_sub.reserve(s.block_footprint.size());
  for (std::int64_t fp : s.block_footprint)
    s.block_max_sub.push_back(
        max_sub_batch(fp, s.buffer_bytes, s.mini_batch));

  const int n = static_cast<int>(net.blocks.size());
  assert(n > 0);

  if (!uses_serialization(config)) {
    Group g;
    g.first = 0;
    g.last = n - 1;
    g.sub_batch = s.mini_batch;
    g.iterations = 1;
    s.groups.push_back(g);
    return s;
  }

  if (config == ExecConfig::kMbsFs) {
    // Full serialization: a single group at the tightest block's sub-batch.
    Group g;
    g.first = 0;
    g.last = n - 1;
    s.groups.push_back(g);
    refresh_groups(s);
    return s;
  }

  s.groups = initial_groups(s, n);
  refresh_groups(s);
  const DramObjective dram_bytes(net);
  if (params.variant == GroupingVariant::kNonContiguous)
    greedy_merge_noncontig(dram_bytes, s);
  else if (params.optimal_grouping)
    dp_optimal(dram_bytes, n, s);
  else
    greedy_merge(dram_bytes, s);
  return s;
}

}  // namespace mbs::sched
