// Tests for the MBS scheduler and the traffic model: structural invariants
// of every (network, config) pair, the grouping algorithms, and the traffic
// orderings the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "sched/config.h"
#include "sched/scheduler.h"
#include "sched/traffic.h"

namespace mbs::sched {
namespace {

using core::Network;

const ExecConfig kAllConfigs[] = {ExecConfig::kBaseline, ExecConfig::kArchOpt,
                                  ExecConfig::kIL,       ExecConfig::kMbsFs,
                                  ExecConfig::kMbs1,     ExecConfig::kMbs2};

/// Global-buffer sizes the grouping searches are checked at, in MiB.
const int kObjectiveBufferMiB[] = {4, 10, 16, 32};

// ---- Basic helpers ----------------------------------------------------------

TEST(Config, Predicates) {
  EXPECT_FALSE(uses_weight_double_buffering(ExecConfig::kBaseline));
  EXPECT_TRUE(uses_weight_double_buffering(ExecConfig::kArchOpt));
  EXPECT_TRUE(uses_weight_double_buffering(ExecConfig::kMbs2));
  EXPECT_FALSE(uses_serialization(ExecConfig::kIL));
  EXPECT_TRUE(uses_serialization(ExecConfig::kMbsFs));
  EXPECT_TRUE(uses_serialization(ExecConfig::kMbs1));
  EXPECT_FALSE(uses_inter_branch_reuse(ExecConfig::kMbs1));
  EXPECT_TRUE(uses_inter_branch_reuse(ExecConfig::kMbs2));
  EXPECT_TRUE(uses_relu_masks(ExecConfig::kMbs2));
  EXPECT_FALSE(uses_relu_masks(ExecConfig::kBaseline));
}

TEST(SubBatch, MaxSubBatchClamps) {
  EXPECT_EQ(max_sub_batch(1, 1024, 32), 32);     // tiny footprint -> mini-batch
  EXPECT_EQ(max_sub_batch(1024, 1024, 32), 1);   // exactly one sample
  EXPECT_EQ(max_sub_batch(2048, 1024, 32), 1);   // even one sample spills
  EXPECT_EQ(max_sub_batch(100, 1000, 32), 10);
}

TEST(SubBatch, IterationsCeil) {
  EXPECT_EQ(iterations_for(32, 32), 1);
  EXPECT_EQ(iterations_for(32, 17), 2);
  EXPECT_EQ(iterations_for(32, 3), 11);
  EXPECT_EQ(iterations_for(32, 1), 32);
}

TEST(Group, ChunksGreedyFill) {
  Group g;
  g.sub_batch = 3;
  g.iterations = 11;
  const auto chunks = g.chunks(32);
  ASSERT_EQ(chunks.size(), 11u);  // Fig. 5: 3,3,3,3,3,3,3,3,3,3,2
  int sum = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i], i + 1 < chunks.size() ? 3 : 2);
    sum += chunks[i];
  }
  EXPECT_EQ(sum, 32);
}

TEST(Group, ChunksExactDivision) {
  Group g;
  g.sub_batch = 8;
  g.iterations = 4;
  const auto chunks = g.chunks(32);
  ASSERT_EQ(chunks.size(), 4u);
  for (int c : chunks) EXPECT_EQ(c, 8);
}

// ---- Parameterized invariants over every (network, config) pair ------------

class ScheduleInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, ExecConfig>> {};

TEST_P(ScheduleInvariants, ValidatesAndCoversAllBlocks) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const Schedule s = build_schedule(net, std::get<1>(GetParam()));
  EXPECT_EQ(s.validate(net), "");
  EXPECT_EQ(s.groups.front().first, 0);
  EXPECT_EQ(s.groups.back().last, static_cast<int>(net.blocks.size()) - 1);
  // Every block belongs to exactly one group.
  for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b)
    EXPECT_GE(s.group_of_block(b), 0);
}

TEST_P(ScheduleInvariants, SerializedFootprintsFitTheBuffer) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const ExecConfig cfg = std::get<1>(GetParam());
  const Schedule s = build_schedule(net, cfg);
  if (!uses_serialization(cfg)) {
    EXPECT_EQ(s.groups.size(), 1u);
    EXPECT_EQ(s.groups[0].iterations, 1);
    return;
  }
  for (const Group& g : s.groups)
    for (int b = g.first; b <= g.last; ++b) {
      const auto fp = s.block_footprint[static_cast<std::size_t>(b)];
      if (g.sub_batch > 1) {
        EXPECT_LE(fp * g.sub_batch, s.buffer_bytes)
            << "block " << b << " sub-batch " << g.sub_batch;
      }
    }
}

TEST_P(ScheduleInvariants, TrafficIsPositiveAndFinite) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const Schedule s = build_schedule(net, std::get<1>(GetParam()));
  const Traffic t = compute_traffic(net, s);
  EXPECT_GT(t.dram_bytes(), 0);
  EXPECT_GT(t.buffer_bytes(), 0);
  EXPECT_GE(t.dram_read_bytes(), 0);
  EXPECT_GE(t.dram_write_bytes(), 0);
  EXPECT_NEAR(t.dram_bytes(), t.dram_read_bytes() + t.dram_write_bytes(),
              1.0);
}

TEST_P(ScheduleInvariants, MasksOnlyUnderMbs) {
  const Network net = models::make_network(std::get<0>(GetParam()));
  const ExecConfig cfg = std::get<1>(GetParam());
  const Schedule s = build_schedule(net, cfg);
  const Traffic t = compute_traffic(net, s);
  const double mask = t.dram_bytes_by_class(TrafficClass::kMask);
  if (uses_relu_masks(cfg) && net.name != "AlexNet") {
    EXPECT_GT(mask, 0);
  }
  if (!uses_relu_masks(cfg)) {
    EXPECT_EQ(mask, 0);
  }
}

std::string schedule_invariant_name(
    const ::testing::TestParamInfo<std::tuple<std::string, ExecConfig>>&
        info) {
  std::string name = std::get<0>(info.param);
  name += "_";
  name += to_string(std::get<1>(info.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworksAllConfigs, ScheduleInvariants,
    ::testing::Combine(::testing::ValuesIn(models::evaluated_network_names()),
                       ::testing::ValuesIn(kAllConfigs)),
    schedule_invariant_name);

// The Transformer family must satisfy the same structural invariants under
// every configuration — the zoo-growth contract of docs/WORKLOADS.md.
INSTANTIATE_TEST_SUITE_P(
    TransformerFamilyAllConfigs, ScheduleInvariants,
    ::testing::Combine(
        ::testing::ValuesIn(models::transformer_network_names()),
        ::testing::ValuesIn(kAllConfigs)),
    schedule_invariant_name);

// ---- Traffic orderings (the paper's Fig. 10c structure) ---------------------

class TrafficOrdering : public ::testing::TestWithParam<std::string> {
 protected:
  double traffic(ExecConfig cfg) const {
    const Network net = models::make_network(GetParam());
    return dram_traffic_bytes(net, build_schedule(net, cfg));
  }
};

TEST_P(TrafficOrdering, BaselineEqualsArchOpt) {
  // Weight double buffering changes timing, not bytes moved.
  EXPECT_DOUBLE_EQ(traffic(ExecConfig::kBaseline),
                   traffic(ExecConfig::kArchOpt));
}

TEST_P(TrafficOrdering, IlNeverExceedsBaseline) {
  EXPECT_LE(traffic(ExecConfig::kIL), traffic(ExecConfig::kBaseline));
}

TEST_P(TrafficOrdering, Mbs1BeatsMbsFs) {
  // Greedy grouping dominates naive full serialization (Sec. 6).
  EXPECT_LT(traffic(ExecConfig::kMbs1), traffic(ExecConfig::kMbsFs));
}

TEST_P(TrafficOrdering, Mbs2NeverWorseThanMbs1) {
  EXPECT_LE(traffic(ExecConfig::kMbs2), traffic(ExecConfig::kMbs1) * 1.0001);
}

TEST_P(TrafficOrdering, Mbs2CutsDeepCnnTrafficSubstantially) {
  if (GetParam() == "alexnet") GTEST_SKIP() << "AlexNet is compute dominated";
  // Paper: 71-78% DRAM traffic reduction for the deep CNNs (Sec. 6).
  EXPECT_LT(traffic(ExecConfig::kMbs2),
            0.45 * traffic(ExecConfig::kArchOpt));
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, TrafficOrdering,
                         ::testing::ValuesIn(models::evaluated_network_names()));

// ---- Grouping algorithms -----------------------------------------------------

TEST(Grouping, ResNet50SubBatchSizesGrowMonotonically) {
  // Down-sampling shrinks features, so deeper groups admit larger
  // sub-batches (Fig. 5: 3 -> 6 -> 11 -> 16 in the paper's run).
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbs2);
  ASSERT_GE(s.groups.size(), 2u);
  for (std::size_t g = 1; g < s.groups.size(); ++g)
    EXPECT_GE(s.groups[g].sub_batch, s.groups[g - 1].sub_batch);
}

TEST(Grouping, GreedyNeverWorseThanInitialOrFs) {
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const double greedy =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs1));
    const double fs =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbsFs));
    EXPECT_LE(greedy, fs * 1.0001) << name;
  }
}

TEST(Grouping, DpOptimalNeverWorseThanGreedy) {
  // Footnote 1: exhaustive grouping improves traffic by roughly 1%.
  for (const std::string& name : models::all_network_names()) {
    const Network net = models::make_network(name);
    for (ExecConfig cfg : {ExecConfig::kMbs1, ExecConfig::kMbs2})
      for (int mib : kObjectiveBufferMiB) {
        SCOPED_TRACE(name + " " + to_string(cfg) + " " +
                     std::to_string(mib) + " MiB");
        ScheduleParams p;
        p.buffer_bytes = std::int64_t{mib} * 1024 * 1024;
        const double greedy =
            dram_traffic_bytes(net, build_schedule(net, cfg, p));
        p.optimal_grouping = true;
        const double dp = dram_traffic_bytes(net, build_schedule(net, cfg, p));
        EXPECT_LE(dp, greedy * 1.0001);
        // ... and greedy stays close to optimal. Checked at the default
        // point only: AlexNet's greedy is 12.0% above the DP at 24 and
        // 32 MiB, under MBS1 and MBS2 alike.
        if (cfg == ExecConfig::kMbs2 && mib == 10 &&
            (name == "resnet50" || name == "alexnet")) {
          EXPECT_LE(greedy, dp * 1.08);
        }
      }
  }
}

// ---- The grouping objective ------------------------------------------------

/// `s` with its groups replaced by the contiguous ranges `groups`, each
/// group's sub-batch the tightest member block's limit, as the scheduler
/// sizes groups.
Schedule regrouped(Schedule s, std::vector<Group> groups) {
  for (Group& g : groups) {
    g.sub_batch = s.mini_batch;
    for (int b = g.first; b <= g.last; ++b)
      g.sub_batch =
          std::min(g.sub_batch, s.block_max_sub[static_cast<std::size_t>(b)]);
    g.iterations = iterations_for(s.mini_batch, g.sub_batch);
  }
  s.groups = std::move(groups);
  return s;
}

TEST(DramObjective, EqualsComputeTrafficBitForBit) {
  // The record-free objective must return exactly the DRAM total of the
  // materialized records, for every schedule the grouping searches score.
  for (const std::string& name : models::all_network_names()) {
    const Network net = models::make_network(name);
    const DramObjective objective(net);
    const int n = static_cast<int>(net.blocks.size());
    const bool all_dp_candidates =
        name == "alexnet" || name == "resnet50" || name == "vit_small" ||
        name == "transformer_base";
    for (ExecConfig cfg : {ExecConfig::kMbs1, ExecConfig::kMbs2})
      for (int mib : kObjectiveBufferMiB) {
        SCOPED_TRACE(name + " " + to_string(cfg) + " " +
                     std::to_string(mib) + " MiB");
        auto expect_exact = [&](const Schedule& s) {
          EXPECT_EQ(objective(s), compute_traffic(net, s).dram_bytes());
        };
        ScheduleParams p;
        p.buffer_bytes = std::int64_t{mib} * 1024 * 1024;
        const Schedule greedy = build_schedule(net, cfg, p);
        expect_exact(greedy);
        ScheduleParams dp = p;
        dp.optimal_grouping = true;
        expect_exact(build_schedule(net, cfg, dp));
        ScheduleParams noncontig = p;
        noncontig.variant = GroupingVariant::kNonContiguous;
        const Schedule relaxed = build_schedule(net, cfg, noncontig);
        for (const Group& g : relaxed.groups) ASSERT_FALSE(g.members.empty());
        expect_exact(relaxed);

        std::vector<Group> singles;
        for (int b = 0; b < n; ++b) singles.push_back(Group{b, b, 1, 1, {}});
        expect_exact(regrouped(greedy, singles));
        if (!all_dp_candidates) continue;
        // Every DP candidate: blocks [i, j] merged, the rest singletons.
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j) {
            std::vector<Group> groups;
            for (int b = 0; b < i; ++b) groups.push_back(Group{b, b, 1, 1, {}});
            groups.push_back(Group{i, j, 1, 1, {}});
            for (int b = j + 1; b < n; ++b)
              groups.push_back(Group{b, b, 1, 1, {}});
            expect_exact(regrouped(greedy, std::move(groups)));
          }
      }
  }
}

TEST(Grouping, MbsFsIsSingleGroup) {
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbsFs);
  EXPECT_EQ(s.groups.size(), 1u);
}

TEST(Grouping, BufferSizeMonotonicity) {
  // A larger global buffer can only reduce MBS traffic (Fig. 11).
  const Network net = models::make_network("resnet50");
  double prev = 1e300;
  for (double mib : {5.0, 10.0, 20.0, 30.0, 40.0}) {
    ScheduleParams p;
    p.buffer_bytes = static_cast<std::int64_t>(mib * 1024 * 1024);
    const double t =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs2, p));
    EXPECT_LE(t, prev * 1.0001) << mib << " MiB";
    prev = t;
  }
}

// ---- Grouping variants (non-contiguous search space) ------------------------

/// Field-by-field equality of two schedules, down to the bit pattern of
/// every group and footprint entry.
void expect_bitwise_equal(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.mini_batch, b.mini_batch);
  EXPECT_EQ(a.buffer_bytes, b.buffer_bytes);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].first, b.groups[g].first) << "group " << g;
    EXPECT_EQ(a.groups[g].last, b.groups[g].last) << "group " << g;
    EXPECT_EQ(a.groups[g].sub_batch, b.groups[g].sub_batch) << "group " << g;
    EXPECT_EQ(a.groups[g].iterations, b.groups[g].iterations) << "group " << g;
    EXPECT_EQ(a.groups[g].members, b.groups[g].members) << "group " << g;
  }
  EXPECT_EQ(a.block_footprint, b.block_footprint);
  EXPECT_EQ(a.block_max_sub, b.block_max_sub);
}

TEST(GroupingVariants, VariantOffIsBitwiseIdenticalToCurrentSchedules) {
  // The kContiguous default must be indistinguishable from a pre-variant
  // build: explicit kContiguous == default-constructed params, groups carry
  // no member lists, and the modeled traffic agrees to the last bit.
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    for (ExecConfig cfg : kAllConfigs) {
      const Schedule def = build_schedule(net, cfg);
      ScheduleParams p;
      p.variant = GroupingVariant::kContiguous;
      const Schedule explicit_off = build_schedule(net, cfg, p);
      expect_bitwise_equal(def, explicit_off);
      for (const Group& g : def.groups) EXPECT_TRUE(g.members.empty());
      EXPECT_EQ(dram_traffic_bytes(net, def),
                dram_traffic_bytes(net, explicit_off))
          << name << " " << to_string(cfg);
    }
  }
}

TEST(GroupingVariants, NonContiguousSchedulesValidate) {
  ScheduleParams p;
  p.variant = GroupingVariant::kNonContiguous;
  for (const auto& name : {"resnet50", "alexnet", "vit_base"}) {
    const Network net = models::make_network(name);
    for (ExecConfig cfg : {ExecConfig::kMbs1, ExecConfig::kMbs2}) {
      const Schedule s = build_schedule(net, cfg, p);
      EXPECT_EQ(s.validate(net), "") << name << " " << to_string(cfg);
      // Every block owned by exactly one group, via the member lists.
      for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b)
        EXPECT_GE(s.group_of_block(b), 0) << name << " block " << b;
    }
  }
}

TEST(GroupingVariants, NonContiguousNeverImprovesTraffic) {
  // All tensor edges connect adjacent blocks, so merging non-adjacent
  // groups keeps no extra data on chip while tightening the sub-batch:
  // the wider search must land exactly on the contiguous greedy's result.
  ScheduleParams noncontig;
  noncontig.variant = GroupingVariant::kNonContiguous;
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const double contiguous =
        dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbs2));
    const double relaxed = dram_traffic_bytes(
        net, build_schedule(net, ExecConfig::kMbs2, noncontig));
    EXPECT_DOUBLE_EQ(relaxed, contiguous) << name;
  }
}

TEST(GroupingVariants, BoundaryPredicateMatchesFirstBlockRule) {
  // For contiguous schedules the generalized predecessor-based boundary
  // rule must coincide with the historical "block is some group's first".
  const Network net = models::make_network("resnet50");
  for (ExecConfig cfg : kAllConfigs) {
    const Schedule s = build_schedule(net, cfg);
    for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b) {
      bool is_first = false;
      for (const Group& g : s.groups) is_first |= (g.first == b);
      EXPECT_EQ(s.is_group_boundary(b), is_first)
          << to_string(cfg) << " block " << b;
    }
  }
}

TEST(GroupingVariants, NonContiguousGroupAccessors) {
  // A hand-built non-contiguous schedule: membership, boundaries, and the
  // validate() partition check all follow the member lists.
  Group a;
  a.members = {0, 2};
  a.first = 0;
  a.last = 2;
  Group b;
  b.members = {1};
  b.first = b.last = 1;
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a.contains(1));
  EXPECT_TRUE(a.contains(2));
  EXPECT_EQ(a.blocks(), (std::vector<int>{0, 2}));

  Schedule s;
  s.config = ExecConfig::kMbs1;
  s.mini_batch = 4;
  s.buffer_bytes = 1 << 20;
  s.groups = {a, b};
  for (Group& g : s.groups) {
    g.sub_batch = 4;
    g.iterations = 1;
  }
  s.block_footprint = {1, 1, 1};
  s.block_max_sub = {4, 4, 4};
  EXPECT_EQ(s.group_of_block(0), 0);
  EXPECT_EQ(s.group_of_block(1), 1);
  EXPECT_EQ(s.group_of_block(2), 0);
  // Blocks 1 and 2 both start boundary runs (their predecessors belong to
  // the other group).
  EXPECT_TRUE(s.is_group_boundary(0));
  EXPECT_TRUE(s.is_group_boundary(1));
  EXPECT_TRUE(s.is_group_boundary(2));

  core::Network net;
  net.name = "toy";
  net.input = core::FeatureShape{1, 4, 4};
  for (int i = 0; i < 3; ++i)
    net.blocks.push_back(core::make_simple_block(
        "b" + std::to_string(i),
        {core::make_act("act" + std::to_string(i), net.input)}));
  EXPECT_EQ(s.validate(net), "");
  // Dropping a block from the partition is caught.
  s.groups[1].members = {};
  s.groups[1].first = s.groups[1].last = 2;  // now 1 is unowned, 2 doubly
  EXPECT_NE(s.validate(net), "");
  // A member-less first > last group mixed into a non-contiguous schedule
  // is reported as an error, not expanded into a bogus block range
  // (regression: validate must range-check before calling blocks()).
  s.groups[1].first = 2;
  s.groups[1].last = 1;
  EXPECT_NE(s.validate(net), "");
}

TEST(GroupingVariants, MiniBatchAndBufferComposeWithVariant) {
  const Network net = models::make_network("transformer_base");
  ScheduleParams p;
  p.variant = GroupingVariant::kNonContiguous;
  p.mini_batch = 64;
  p.buffer_bytes = 5ll * 1024 * 1024;
  const Schedule s = build_schedule(net, ExecConfig::kMbs2, p);
  EXPECT_EQ(s.mini_batch, 64);
  EXPECT_EQ(s.validate(net), "");
  EXPECT_GT(dram_traffic_bytes(net, s), 0);
}

TEST(Grouping, MiniBatchOverrideRespected) {
  const Network net = models::make_network("resnet50");
  ScheduleParams p;
  p.mini_batch = 64;
  const Schedule s = build_schedule(net, ExecConfig::kMbs2, p);
  EXPECT_EQ(s.mini_batch, 64);
  EXPECT_EQ(s.validate(net), "");
}

// ---- Footprint policies ------------------------------------------------------

TEST(Footprints, InterBranchAtLeastPerBranch) {
  for (const auto& name : models::evaluated_network_names()) {
    const Network net = models::make_network(name);
    const auto per_branch =
        block_footprints(net, ExecConfig::kMbs1, core::DataType::kF16);
    const auto inter =
        block_footprints(net, ExecConfig::kMbs2, core::DataType::kF16);
    ASSERT_EQ(per_branch.size(), inter.size());
    for (std::size_t i = 0; i < inter.size(); ++i)
      EXPECT_GE(inter[i], per_branch[i]) << name << " block " << i;
  }
}

TEST(Footprints, Mbs2NeedsMoreIterationsThanMbs1) {
  // Eq. 1/2 provisioning shrinks sub-batches, so MBS2 runs at least as many
  // sub-batch iterations (Sec. 6's stated MBS2 cost).
  const Network net = models::make_network("resnet50");
  const Schedule s1 = build_schedule(net, ExecConfig::kMbs1);
  const Schedule s2 = build_schedule(net, ExecConfig::kMbs2);
  EXPECT_GE(s2.total_iterations(), s1.total_iterations());
}

// ---- Traffic class structure -------------------------------------------------

TEST(TrafficClasses, WeightTrafficScalesWithIterations) {
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic fs =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbsFs));
  // MBS-FS re-reads weights once per sub-batch iteration.
  EXPECT_GT(fs.dram_bytes_by_class(TrafficClass::kWeight),
            3 * base.dram_bytes_by_class(TrafficClass::kWeight));
}

TEST(TrafficClasses, AlexNetFsWeightBlowup) {
  // Sec. 6: AlexNet's FC weights make MBS-FS increase total traffic ~2.6x.
  const Network net = models::make_network("alexnet");
  const double base =
      dram_traffic_bytes(net, build_schedule(net, ExecConfig::kBaseline));
  const double fs =
      dram_traffic_bytes(net, build_schedule(net, ExecConfig::kMbsFs));
  EXPECT_GT(fs, 1.8 * base);
  EXPECT_LT(fs, 3.5 * base);
}

TEST(TrafficClasses, MbsEliminatesMostFeatureTraffic) {
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic mbs2 =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  EXPECT_LT(mbs2.dram_bytes_by_class(TrafficClass::kFeature),
            0.1 * base.dram_bytes_by_class(TrafficClass::kFeature));
  EXPECT_LT(mbs2.dram_bytes_by_class(TrafficClass::kGradient),
            0.1 * base.dram_bytes_by_class(TrafficClass::kGradient));
}

TEST(TrafficClasses, StashSimilarAcrossConfigs) {
  // Data stored for backward reuse is fundamental to training, not to the
  // schedule; it should be the dominant remaining MBS traffic.
  const Network net = models::make_network("resnet50");
  const Traffic base =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic mbs2 =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  const double sb = base.dram_bytes_by_class(TrafficClass::kStash);
  const double sm = mbs2.dram_bytes_by_class(TrafficClass::kStash);
  EXPECT_GT(sm, 0.5 * sb);
  EXPECT_LT(sm, 1.5 * sb);
}

TEST(TrafficClasses, InputTrafficIndependentOfConfig) {
  const Network net = models::make_network("resnet50");
  const Traffic a =
      compute_traffic(net, build_schedule(net, ExecConfig::kBaseline));
  const Traffic b =
      compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  EXPECT_DOUBLE_EQ(a.dram_bytes_by_class(TrafficClass::kInput),
                   b.dram_bytes_by_class(TrafficClass::kInput));
}

TEST(TrafficClasses, PerBlockAttributionSumsToTotal) {
  const Network net = models::make_network("resnet50");
  const Schedule s = build_schedule(net, ExecConfig::kMbs2);
  const Traffic t = compute_traffic(net, s);
  double sum = 0;
  for (int b = 0; b < static_cast<int>(net.blocks.size()); ++b)
    sum += t.dram_bytes_for_block(b);
  EXPECT_NEAR(sum, t.dram_bytes(), t.dram_bytes() * 1e-9);
}

TEST(LayerBytes, FlatCellsEqualAPerLayerMapSum) {
  // The step walkers used to sum records into a (block, layer)-keyed map;
  // the flat cells must hold the same bits, in for_each_layer order.
  for (const std::string& name : models::all_network_names()) {
    const Network net = models::make_network(name);
    for (ExecConfig cfg : paper_tab3_configs()) {
      SCOPED_TRACE(name + " " + to_string(cfg));
      const Traffic t = compute_traffic(net, build_schedule(net, cfg));
      std::map<std::pair<int, int>, LayerBytes> by_layer;
      for (const TrafficRecord& r : t.records) {
        LayerBytes& lb = by_layer[{r.block, r.layer}];
        const int ph = r.phase == Phase::kForward ? 0 : 1;
        lb.dram[ph] += r.dram_read + r.dram_write;
        lb.buf[ph] += r.buf_read + r.buf_write;
      }
      const std::vector<LayerBytes> flat = layer_bytes(net, t);
      ASSERT_EQ(flat.size(), static_cast<std::size_t>(net.layer_count()));
      std::size_t i = 0;
      for (std::size_t b = 0; b < net.blocks.size(); ++b)
        for (int l = 0; l < net.blocks[b].layer_count(); ++l, ++i) {
          const LayerBytes want = by_layer[{static_cast<int>(b), l}];
          for (int ph = 0; ph < 2; ++ph) {
            EXPECT_EQ(flat[i].dram[ph], want.dram[ph]) << b << "/" << l;
            EXPECT_EQ(flat[i].buf[ph], want.buf[ph]) << b << "/" << l;
          }
        }
      // No record fell outside the network's layers.
      EXPECT_EQ(by_layer.size(), flat.size());
    }
  }
}

TEST(LayerBytesDeathTest, RejectsRecordsOutsideTheNetwork) {
  const Network net = models::make_network("alexnet");
  Traffic t = compute_traffic(net, build_schedule(net, ExecConfig::kMbs2));
  Traffic past_block = t;
  past_block.records.back().block = 0;
  past_block.records.back().layer = net.blocks.front().layer_count();
  EXPECT_DEATH(layer_bytes(net, past_block), "is not a layer of network");
  Traffic past_net = t;
  past_net.records.front().block = static_cast<int>(net.blocks.size());
  EXPECT_DEATH(layer_bytes(net, past_net), "is not a layer of network");
  Traffic negative = t;
  negative.records.front().layer = -1;
  EXPECT_DEATH(layer_bytes(net, negative), "is not a layer of network");
}

TEST(TrafficDeathTest, RejectsBlocksWithoutAGroup) {
  // An unowned block has no sub-batch for its attention scores and no
  // iteration count for its weight traffic, so every walk refuses it.
  const Network net = models::make_network("vit_small");
  Schedule s = build_schedule(net, ExecConfig::kMbs2);
  s.groups.back().last -= 1;
  EXPECT_DEATH(compute_traffic(net, s), "belongs to no group of the schedule");
  EXPECT_DEATH((void)DramObjective(net)(s),
               "belongs to no group of the schedule");
  Schedule empty = build_schedule(net, ExecConfig::kBaseline);
  empty.groups.clear();
  EXPECT_DEATH(compute_traffic(net, empty),
               "block 0 of network '.*' belongs to no group");
}

}  // namespace
}  // namespace mbs::sched
