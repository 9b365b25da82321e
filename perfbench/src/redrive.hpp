#pragma once
// Traced re-drive of one sweep cell. Mirrors runner::run_scenario step by
// step, but calls each layer's public entry point itself so the benchmark
// can record a span around every call. The re-driven ScenarioResult must
// export to the same CSV bytes as run_scenario's; the benchmark checks that,
// because a re-drive that diverges would be measuring a different program.

#include <cstdint>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"

namespace crusader::relay {
class EffectiveCache;
}  // namespace crusader::relay

namespace perfbench {

/// What a re-drive changes relative to run_scenario. Both twins leave the
/// row unchanged by construction (the benchmark asserts it).
struct RedriveOptions {
  /// RunnerOptions::fast_path: batched broadcast/flood delivery.
  bool fast_path = true;
  /// Run real-crypto cells with the abstract PKI under the same world seed
  /// (ScenarioSpec::crypto cannot do this: it changes key() and the seed).
  bool force_abstract = false;
};

struct Redriven {
  crusader::runner::ScenarioResult result;
  /// Pulse trace of the run the row reports (the winning candidate for
  /// adaptive relay cells); empty for Theorem-5 cells.
  crusader::sim::PulseTrace trace;
  /// Worlds run for the cell (search cells run one per candidate).
  std::uint32_t candidates = 0;
  /// Entries (joins, leaves, removed and added edges) over every epoch
  /// delta of the cell's churn schedule; 0 for static cells.
  std::uint64_t schedule_mutations = 0;
  /// Largest horizon (real time) any of the cell's worlds ran to.
  double horizon = 0.0;
};

/// Re-drives `spec` under `base_seed`. `cache` mirrors the runner's
/// per-sweep EffectiveCache (null = recompute per cell). Spans go to `log`
/// (null records nothing). Never throws: failures land in result.error.
[[nodiscard]] Redriven redrive(const crusader::runner::ScenarioSpec& spec,
                               std::uint64_t base_seed,
                               crusader::relay::EffectiveCache* cache,
                               SpanLog* log, const RedriveOptions& options = {});

/// Whether two pulse traces record the same pulses bit for bit.
[[nodiscard]] bool same_trace(const crusader::sim::PulseTrace& a,
                              const crusader::sim::PulseTrace& b);

}  // namespace perfbench
