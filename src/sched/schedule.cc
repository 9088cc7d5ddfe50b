#include "sched/schedule.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mbs::sched {

const char* to_string(GroupingVariant v) {
  switch (v) {
    case GroupingVariant::kContiguous: return "contiguous";
    case GroupingVariant::kNonContiguous: return "noncontig";
  }
  return "?";
}

bool Group::contains(int block) const {
  if (members.empty()) return block >= first && block <= last;
  return std::binary_search(members.begin(), members.end(), block);
}

std::vector<int> Group::blocks() const {
  if (!members.empty()) return members;
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(last - first + 1));
  for (int b = first; b <= last; ++b) out.push_back(b);
  return out;
}

std::vector<int> Group::chunks(int mini_batch) const {
  std::vector<int> out;
  int remaining = mini_batch;
  while (remaining > 0) {
    const int c = std::min(sub_batch, remaining);
    out.push_back(c);
    remaining -= c;
  }
  return out;
}

int Schedule::group_of_block(int block) const {
  // Non-contiguous groups can have overlapping [first, last] envelopes, so
  // membership (not the range test) decides.
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (groups[g].contains(block)) return static_cast<int>(g);
  return -1;
}

int Schedule::total_iterations() const {
  int total = 0;
  for (const Group& g : groups) total += g.iterations;
  return total;
}

bool Schedule::is_group_boundary(int block) const {
  // Equivalent to "block is some group's first" for contiguous schedules;
  // for non-contiguous groups every run of consecutive members starts a
  // boundary (the group's data does not stay on chip across a gap).
  if (block <= 0) return true;
  return group_of_block(block - 1) != group_of_block(block);
}

std::string Schedule::validate(const core::Network& net) const {
  std::ostringstream err;
  const int n_blocks = static_cast<int>(net.blocks.size());
  if (groups.empty()) return "no groups";
  bool non_contiguous = false;
  for (const Group& g : groups) non_contiguous |= !g.members.empty();

  if (!non_contiguous) {
    if (groups.front().first != 0) return "first group does not start at 0";
    if (groups.back().last != n_blocks - 1)
      return "last group does not end at last block";
  } else {
    // Non-contiguous partition: every block owned by exactly one group.
    std::vector<int> owners(static_cast<std::size_t>(n_blocks), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const Group& grp = groups[g];
      // Checked before blocks(): a member-less group with first > last
      // must be reported, not expanded into a bogus range.
      if (grp.members.empty() && grp.first > grp.last) {
        err << "group " << g << " has first > last";
        return err.str();
      }
      const std::vector<int> blocks = grp.blocks();
      if (!std::is_sorted(blocks.begin(), blocks.end()) ||
          std::adjacent_find(blocks.begin(), blocks.end()) != blocks.end()) {
        err << "group " << g << " members not sorted/unique";
        return err.str();
      }
      if (grp.first != blocks.front() || grp.last != blocks.back()) {
        err << "group " << g << " first/last disagree with members";
        return err.str();
      }
      for (int b : blocks) {
        if (b < 0 || b >= n_blocks) {
          err << "group " << g << " member out of range";
          return err.str();
        }
        ++owners[static_cast<std::size_t>(b)];
      }
    }
    for (int b = 0; b < n_blocks; ++b)
      if (owners[static_cast<std::size_t>(b)] != 1) {
        err << "block " << b << " owned by "
            << owners[static_cast<std::size_t>(b)] << " groups";
        return err.str();
      }
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& grp = groups[g];
    if (grp.first > grp.last) {
      err << "group " << g << " has first > last";
      return err.str();
    }
    if (!non_contiguous && g > 0 && grp.first != groups[g - 1].last + 1) {
      err << "group " << g << " is not contiguous with its predecessor";
      return err.str();
    }
    if (grp.sub_batch < 1 || grp.sub_batch > mini_batch) {
      err << "group " << g << " sub-batch out of range";
      return err.str();
    }
    if (grp.iterations != iterations_for(mini_batch, grp.sub_batch)) {
      err << "group " << g << " iteration count inconsistent";
      return err.str();
    }
    int sum = 0;
    for (int c : grp.chunks(mini_batch)) {
      if (c < 1 || c > grp.sub_batch) {
        err << "group " << g << " chunk out of range";
        return err.str();
      }
      sum += c;
    }
    if (sum != mini_batch) {
      err << "group " << g << " chunks do not sum to the mini-batch";
      return err.str();
    }
    // Capacity: the sub-batch footprint of every block in the group must fit
    // in the buffer, unless even one sample exceeds it (sub_batch == 1).
    if (uses_serialization(config)) {
      for (int b : grp.blocks()) {
        const auto fp = block_footprint[static_cast<std::size_t>(b)];
        if (grp.sub_batch > 1 &&
            fp * grp.sub_batch > buffer_bytes) {
          err << "group " << g << " block " << b
              << " exceeds the buffer at sub-batch " << grp.sub_batch;
          return err.str();
        }
      }
    }
  }
  return "";
}

std::vector<std::int64_t> block_footprints(const core::Network& net,
                                           ExecConfig config,
                                           core::DataType t) {
  std::vector<std::int64_t> out;
  out.reserve(net.blocks.size());
  for (const core::Block& b : net.blocks)
    out.push_back(uses_inter_branch_reuse(config) ? b.footprint_inter_branch(t)
                                                  : b.footprint_per_branch(t));
  return out;
}

int max_sub_batch(std::int64_t footprint_per_sample, std::int64_t buffer_bytes,
                  int mini_batch) {
  assert(footprint_per_sample > 0);
  const std::int64_t fit = buffer_bytes / footprint_per_sample;
  return static_cast<int>(
      std::clamp<std::int64_t>(fit, 1, mini_batch));
}

int iterations_for(int mini_batch, int sub_batch) {
  assert(sub_batch >= 1);
  return (mini_batch + sub_batch - 1) / sub_batch;
}

}  // namespace mbs::sched
