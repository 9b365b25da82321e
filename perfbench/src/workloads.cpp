#include "workloads.hpp"

#include <cstdint>

namespace perfbench {

namespace {

using crusader::baselines::ProtocolKind;
using crusader::core::ByzStrategy;
using crusader::relay::ReconnectPolicy;
using crusader::relay::RelayFaultKind;
using crusader::runner::CryptoMode;
using crusader::runner::ScenarioSpec;
using crusader::runner::SweepGrid;
using crusader::runner::TopologyKind;
using crusader::runner::WorldKind;
using crusader::sim::ClockKind;
using crusader::sim::DelayKind;

constexpr RelayFaultKind kAllRelayFaults[] = {
    RelayFaultKind::kCrash,         RelayFaultKind::kMaxDelay,
    RelayFaultKind::kReorder,       RelayFaultKind::kSelectiveDrop,
    RelayFaultKind::kGreedySkew,    RelayFaultKind::kSearch};

void append(std::vector<ScenarioSpec>& specs, const SweepGrid& grid) {
  for (auto& spec : grid.expand()) specs.push_back(std::move(spec));
}

// Broadcast-heavy complete worlds with real signatures: the engine, network
// delivery, SHA-256-backed crypto and the protocol handlers do the work.
// Random and split delays give identical event counts, but only split
// delays batch, so the pair separates batched from unbatched delivery.
std::vector<ScenarioSpec> complete_signed() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete};
  grid.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                    ProtocolKind::kSrikanthToueg};
  grid.ns = {16, 32, 64};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  grid.delays = {DelayKind::kRandom, DelayKind::kSplit};
  grid.strategies = {ByzStrategy::kCrash, ByzStrategy::kSplit};
  grid.cryptos = {CryptoMode::kReal};
  grid.rounds = 2;
  grid.warmup = 0;
  return grid.expand();
}

// One static 2^16-node hypercube flood probe with random-walk clocks and
// abstract crypto: hop delivery, the message arena, the event queue, clock
// reads and the sampled topology analysis dominate, and this is the
// workload where memory matters.
std::vector<ScenarioSpec> relay_large() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {ProtocolKind::kFloodProbe};
  grid.topologies = {TopologyKind::kHypercube};
  grid.ns = {1u << 16};
  grid.fault_loads = {0};
  grid.delays = {DelayKind::kSplit};
  grid.clock_kinds = {ClockKind::kRandomWalk};
  grid.cryptos = {CryptoMode::kAbstract};
  grid.rounds = 2;
  grid.warmup = 0;
  return grid.expand();
}

// Churned sparse overlays plus the adaptive-adversary witness cell:
// per-epoch analysis, schedule generation, re-forwarding and local/KLLO
// grading dominate while the engine does comparatively little.
std::vector<ScenarioSpec> relay_churn() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {ProtocolKind::kFloodProbe, ProtocolKind::kGradient};
  grid.topologies = {TopologyKind::kHypercube, TopologyKind::kChordalRing};
  grid.ns = {256, 1024};
  grid.fault_loads = {0};
  grid.delays = {DelayKind::kSplit};
  grid.cryptos = {CryptoMode::kAbstract};
  grid.churn_rates = {0.02, 0.1};
  grid.join_batches = {0, 2};
  grid.reconnects = {ReconnectPolicy::kRandom, ReconnectPolicy::kRingRepair};
  grid.rounds = 4;
  grid.warmup = 1;
  std::vector<ScenarioSpec> specs = grid.expand();

  // The adaptive-adversary witness: ST over the 2^5 hypercube at its
  // maximal fault load under every relay fault kind; search runs eight
  // candidate worlds against one analysis.
  SweepGrid witness;
  witness.worlds = {WorldKind::kRelay};
  witness.protocols = {ProtocolKind::kSrikanthToueg};
  witness.topologies = {TopologyKind::kHypercube};
  witness.ns = {32};
  witness.fault_loads = {SweepGrid::kMaxResilience};
  witness.delays = {DelayKind::kMax};
  witness.relay_faults.assign(std::begin(kAllRelayFaults),
                              std::end(kAllRelayFaults));
  witness.search_budgets = {8};
  witness.rounds = 10;
  witness.warmup = 3;
  append(specs, witness);
  return specs;
}

// Thousands of tiny cells streamed to one resumable campaign: per-cell
// runner overhead, spec digests, make_setup, the relay analysis cache and
// campaign I/O dominate; the engine does little per cell.
std::vector<ScenarioSpec> campaign_many() {
  std::vector<ScenarioSpec> specs;

  SweepGrid complete;
  complete.worlds = {WorldKind::kComplete};
  complete.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                        ProtocolKind::kSrikanthToueg};
  complete.ns = {4, 5, 6, 7, 8};
  complete.fault_loads = {0, SweepGrid::kMaxResilience};
  complete.us = {0.05, 0.1};
  complete.delays = {DelayKind::kRandom, DelayKind::kSplit, DelayKind::kMax,
                     DelayKind::kMin};
  complete.clock_kinds = {ClockKind::kNominal, ClockKind::kSpread,
                          ClockKind::kRandomWalk};
  complete.strategies = {ByzStrategy::kCrash,     ByzStrategy::kEchoRush,
                         ByzStrategy::kSplit,     ByzStrategy::kPullEarly,
                         ByzStrategy::kPullLate,  ByzStrategy::kReplay,
                         ByzStrategy::kRandom};
  complete.rounds = 5;
  complete.warmup = 1;
  append(specs, complete);

  // Every relay topology family at small valid sizes, under every relay
  // fault kind.
  SweepGrid relay;
  relay.worlds = {WorldKind::kRelay};
  relay.protocols = {ProtocolKind::kCps, ProtocolKind::kSrikanthToueg,
                     ProtocolKind::kFloodProbe};
  relay.topologies = {TopologyKind::kRing, TopologyKind::kChordalRing};
  relay.ns = {6, 8};
  relay.fault_loads = {0, SweepGrid::kMaxResilience};
  relay.delays = {DelayKind::kRandom, DelayKind::kSplit};
  relay.relay_faults.assign(std::begin(kAllRelayFaults),
                            std::end(kAllRelayFaults));
  relay.rounds = 5;
  relay.warmup = 1;
  append(specs, relay);
  relay.topologies = {TopologyKind::kHypercube};
  relay.ns = {4, 8};
  append(specs, relay);

  SweepGrid theorem5;
  theorem5.worlds = {WorldKind::kTheorem5};
  theorem5.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                        ProtocolKind::kSrikanthToueg};
  theorem5.u_tildes = {0.05, 0.1, 0.15, 0.2, 0.25, 0.3};
  theorem5.varthetas = {1.01, 1.02};
  theorem5.rounds = 10;
  append(specs, theorem5);
  return specs;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"complete-signed", complete_signed, 1, false},
      {"relay-large", relay_large, 1, false},
      {"relay-churn", relay_churn, 1, false},
      {"campaign-many", campaign_many, 32, true},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace perfbench
