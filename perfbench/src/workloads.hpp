#pragma once
// The benchmark's named workloads. Each is a fixed list of sweep cells; the
// workload seed becomes the runner's base_seed, so the same seed always
// yields the same cells and the same rows.

#include <cstddef>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Expands the workload's grids (the runner's SweepGrid::expand plus any
  /// hand-listed cells). This is the set-up step a timed pass measures.
  std::vector<crusader::runner::ScenarioSpec> (*expand)();
  /// CsvCampaign::Options::checkpoint_every for the workload's campaign.
  std::size_t checkpoint_every;
  /// Also run the campaign at nproc workers (untimed) and require the
  /// one-worker CSV byte for byte.
  bool thread_check;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has this name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace perfbench
