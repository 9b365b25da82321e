#include "redrive.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "lowerbound/theorem5.hpp"
#include "relay/flood_world.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/kllo.hpp"
#include "sim/world.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using crusader::NodeId;
using crusader::Round;
namespace baselines = crusader::baselines;
namespace core = crusader::core;
namespace crypto = crusader::crypto;
namespace lowerbound = crusader::lowerbound;
namespace relay = crusader::relay;
namespace runner = crusader::runner;
namespace sim = crusader::sim;
namespace util = crusader::util;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// RunnerOptions{}.bound_tolerance, which every workload runs under.
const double kBoundTolerance = runner::RunnerOptions{}.bound_tolerance;

void fill_skew_metrics(const sim::PulseTrace& trace,
                       const runner::ScenarioSpec& spec,
                       runner::ScenarioResult& result) {
  result.max_skew = trace.max_skew();
  result.min_period = trace.min_period();
  result.max_period = trace.max_period();
  util::Samples steady;
  const auto skews = trace.skews();
  for (std::size_t r = spec.warmup; r < skews.size(); ++r) steady.add(skews[r]);
  if (!steady.empty()) {
    result.steady_skew = steady.max();
    result.skew_p50 = steady.median();
    result.skew_p99 = steady.quantile(0.99);
  }
}

relay::Topology build_topology(const runner::ScenarioSpec& spec,
                               std::uint64_t seed) {
  using runner::TopologyKind;
  switch (spec.topology) {
    case TopologyKind::kComplete:
      return relay::Topology::complete(spec.n);
    case TopologyKind::kRing:
      return relay::Topology::ring(spec.n);
    case TopologyKind::kChordalRing:
      CS_CHECK_MSG(spec.n >= 3, "chordal-ring topology requires n >= 3");
      return relay::Topology::chordal_ring(spec.n, 2);
    case TopologyKind::kRingOfCliques:
      CS_CHECK_MSG(spec.n >= 8 && spec.n % 4 == 0,
                   "ring-of-cliques topology requires n to be a multiple of "
                   "4 with at least two cliques");
      return relay::Topology::ring_of_cliques(spec.n / 4, 4, 2);
    case TopologyKind::kHypercube: {
      CS_CHECK_MSG(spec.n >= 2 && (spec.n & (spec.n - 1)) == 0,
                   "hypercube topology requires n to be a power of two");
      std::uint32_t dim = 0;
      while ((1u << dim) < spec.n) ++dim;
      return relay::Topology::hypercube(dim);
    }
    case TopologyKind::kRandomConnected:
      return relay::Topology::random_connected(spec.n, spec.f,
                                               seed ^ 0x70701063ULL);
  }
  CS_CHECK_MSG(false, "unknown topology kind");
  return relay::Topology::complete(spec.n);
}

crypto::Pki::Kind pki_kind(const runner::ScenarioSpec& spec,
                           const RedriveOptions& options) {
  return spec.crypto == runner::CryptoMode::kAbstract || options.force_abstract
             ? crypto::Pki::Kind::kAbstract
             : crypto::Pki::Kind::kSymbolic;
}

/// The EffectiveCache key run_scenario uses: topology family, n, f, the
/// faulty-set size, and the seed for the seed-grown random family.
std::uint64_t relay_analysis_key(const runner::ScenarioSpec& spec,
                                 std::uint64_t seed) {
  std::uint64_t h = util::mix64(0x52454C4159ULL ^
                                static_cast<std::uint64_t>(spec.topology));
  h = util::mix64(h ^ spec.n);
  h = util::mix64(h ^ spec.f);
  h = util::mix64(h ^ spec.f_actual);
  if (spec.topology == runner::TopologyKind::kRandomConnected)
    h = util::mix64(h ^ seed);
  return h;
}

void complete_world(const runner::ScenarioSpec& spec,
                    const RedriveOptions& options, SpanLog* log,
                    Redriven& out) {
  runner::ScenarioResult& result = out.result;
  const auto model = spec.model();
  model.validate();
  auto world_model = model;
  world_model.f = std::max(spec.f, spec.f_actual);
  world_model.validate();
  baselines::ProtocolSetup setup;
  sim::HonestFactory honest;
  sim::ByzantineFactory byz;
  {
    Scoped span(log, "protocol", "make_setup");
    setup = baselines::make_setup(spec.protocol, model, spec.slack);
    result.feasible = setup.feasible;
    if (!setup.feasible) return;
    result.predicted_skew = setup.predicted_skew;
    honest = baselines::make_protocol_factory(setup,
                                              static_cast<Round>(spec.rounds));
    if (spec.f_actual > 0) {
      byz = spec.st_accelerator
                ? core::make_st_accelerator_factory(spec.n - 1)
                : core::make_byzantine_factory(spec.strategy, honest,
                                               result.seed, spec.late_shift,
                                               spec.split_shift);
    }
  }

  sim::WorldConfig config;
  config.model = world_model;
  config.seed = result.seed;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(spec.rounds + 2) * setup.round_length;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  if (spec.custom_delay) config.custom_delay = spec.custom_delay->factory();
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.pki_kind = pki_kind(spec, options);
  config.batch = options.fast_path;
  out.horizon = config.horizon;

  std::optional<sim::World> world;
  {
    Scoped span(log, "sim", "world_build");
    world.emplace(config, std::move(honest), std::move(byz));
  }
  std::optional<sim::RunResult> run;
  {
    Scoped span(log, "sim", "run");
    run.emplace(world->run());
  }
  {
    Scoped span(log, "sim", "teardown");
    world.reset();
  }
  out.candidates = 1;
  result.live = run->trace.live(spec.rounds);
  result.rounds_completed = run->trace.complete_rounds();
  result.messages = run->messages;
  result.events = run->events;
  result.sign_ops = run->sign_ops;
  result.verify_ops = run->verify_ops;
  result.signatures_carried = run->signatures_carried;
  result.violations = run->violations.size();

  if (result.rounds_completed > 0) {
    Scoped span(log, "grade", "skews");
    fill_skew_metrics(run->trace, spec, result);
    result.within_bound =
        result.max_skew <= result.predicted_skew + kBoundTolerance;
  }
  out.trace = std::move(run->trace);
}

void relay_world(const runner::ScenarioSpec& spec,
                 const RedriveOptions& options, relay::EffectiveCache* cache,
                 SpanLog* log, Redriven& out) {
  runner::ScenarioResult& result = out.result;
  const auto hop_model = spec.model();
  hop_model.validate();

  relay::RelayConfig config;
  {
    Scoped span(log, "relay.analysis", "topology_build");
    config.topology = build_topology(spec, result.seed);
  }
  config.hop_model = hop_model;
  config.seed = result.seed;
  config.clock_kind = spec.clocks;
  config.delay_kind = spec.delay;
  if (spec.custom_delay) config.custom_delay = spec.custom_delay->factory();
  config.faulty = sim::default_faulty_set(spec.f_actual);
  config.fault_kind = spec.relay_fault;
  config.pki_kind = pki_kind(spec, options);
  config.batch = options.fast_path;

  std::shared_ptr<const relay::TopologySchedule> schedule;
  if (spec.dynamic()) {
    CS_CHECK_MSG(spec.f_actual == 0 ||
                     spec.relay_fault != relay::RelayFaultKind::kCrash,
                 "dynamic relay cells need participating fault kinds: a "
                 "crashed relay under churn is a leave the schedule never "
                 "recorded");
    relay::ChurnPolicy policy;
    policy.churn_rate = spec.churn_rate;
    policy.join_batch = spec.join_batch;
    policy.reconnect = spec.reconnect;
    if (spec.f_actual > 0) {
      policy.pinned.assign(spec.n, false);
      for (const NodeId v : config.faulty) policy.pinned[v] = true;
    }
    Scoped span(log, "relay.schedule", "generate");
    schedule = std::make_shared<relay::TopologySchedule>(
        relay::TopologySchedule::generate(
            config.topology, policy,
            static_cast<std::uint32_t>(spec.rounds + 2),
            result.seed ^ 0x5c4ed7ULL));
  }
  const bool dynamic = schedule != nullptr && schedule->dynamic();
  if (schedule)
    for (const auto& delta : schedule->deltas())
      out.schedule_mutations += delta.joins.size() + delta.leaves.size() +
                                delta.removed.size() + delta.added.size();
  if (dynamic && spec.custom_delay &&
      spec.custom_delay->kind == runner::CustomDelaySpec::Kind::kTarget) {
    const std::vector<bool> churned = schedule->ever_churned();
    CS_CHECK_MSG(!churned[spec.custom_delay->target],
                 "custom:target node " << spec.custom_delay->target
                                       << " churns under this schedule; "
                                          "target a stable node instead");
  }
  const bool ncast = baselines::neighbor_cast(spec.protocol);
  config.neighbor_cast = ncast;

  relay::RelayEffective effective{hop_model, 1, true};
  if (!ncast) {
    Scoped span(log, "relay.analysis", "analyze");
    effective =
        dynamic ? relay::effective_from_hops(
                      hop_model,
                      relay::analyze_schedule_worst_hops(*schedule, spec.f))
        : cache ? cache->get(relay_analysis_key(spec, result.seed), config)
                : relay::compute_effective(config);
  }
  result.d_eff = effective.model.d;
  result.u_eff = effective.model.u;
  result.worst_hops = effective.worst_hops;
  result.d_eff_exact = effective.exact;

  baselines::ProtocolSetup setup;
  {
    Scoped span(log, "protocol", "make_setup");
    setup = baselines::make_setup(spec.protocol, effective.model, spec.slack);
  }
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;

  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(spec.rounds + 2) * setup.round_length;
  out.horizon = config.horizon;
  if (dynamic) {
    config.schedule = schedule;
    config.epoch_start = setup.initial_offset + setup.round_length;
    config.epoch_length = setup.round_length;
  }

  auto run_candidate = [&](std::uint64_t attack_seed,
                           runner::ScenarioResult& res,
                           sim::PulseTrace& trace) {
    relay::RelayConfig candidate = config;
    candidate.attack_seed = attack_seed;
    sim::HonestFactory factory;
    {
      Scoped span(log, "protocol", "make_factory");
      factory = baselines::make_protocol_factory(
          setup, static_cast<Round>(spec.rounds));
    }
    std::optional<relay::RelayWorld> world;
    {
      Scoped span(log, "sim", "world_build");
      world.emplace(candidate, std::move(factory), effective);
    }
    std::optional<relay::RelayRunResult> run;
    {
      Scoped span(log, "sim", "run");
      run.emplace(world->run());
    }
    {
      Scoped span(log, "sim", "teardown");
      world.reset();
    }
    ++out.candidates;

    res.live = run->trace.live(spec.rounds);
    res.rounds_completed = run->trace.complete_rounds();
    res.messages = run->physical_messages;
    res.events = run->events;
    res.sign_ops = run->sign_ops;
    res.verify_ops = run->verify_ops;

    if (res.rounds_completed > 0) {
      {
        Scoped span(log, "grade", "skews");
        fill_skew_metrics(run->trace, spec, res);
        res.within_bound =
            res.max_skew <= res.predicted_skew + kBoundTolerance;
      }
      std::optional<relay::TopologySchedule> measure_schedule;
      {
        Scoped span(log, "grade", "local");
        measure_schedule.emplace(
            dynamic ? *schedule
                    : relay::TopologySchedule::static_schedule(
                          config.topology));
        const std::vector<double> series =
            runner::local_skew_series(run->trace, *measure_schedule);
        if (!series.empty())
          res.local_skew = *std::max_element(series.begin(), series.end());
      }
      Scoped span(log, "grade", "kllo");
      runner::KlloEnvelopeParams params;
      params.sigma = effective.model.u +
                     (effective.model.vartheta - 1.0) * setup.round_length;
      params.global = static_cast<double>(spec.n) * params.sigma;
      params.stab_mult = spec.kllo_stab;
      const runner::KlloConformance kllo =
          runner::kllo_conformance(run->trace, *measure_schedule, params);
      res.kllo_ratio = kllo.ratio;
      res.kllo_violations = kllo.violations;
      res.edge_age_min = kllo.edge_age_min;
    }
    trace = std::move(run->trace);
  };

  const bool adaptive = relay::adaptive(spec.relay_fault) && spec.f_actual > 0;
  if (!adaptive) {
    run_candidate(0, result, out.trace);
    return;
  }
  const std::uint32_t budget =
      spec.relay_fault == relay::RelayFaultKind::kSearch
          ? std::max(spec.search_budget, 1u)
          : 1u;
  const runner::ScenarioResult base = result;
  std::optional<runner::ScenarioResult> best;
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_seed = 0;
  for (std::uint32_t k = 0; k < budget; ++k) {
    std::uint64_t attack_seed = 0;
    if (k > 0) {
      attack_seed = util::Rng(result.seed ^ 0xa77ac4ULL).fork(k).next_u64();
      if (attack_seed == 0) attack_seed = 1;
    }
    runner::ScenarioResult candidate = base;
    sim::PulseTrace trace;
    run_candidate(attack_seed, candidate, trace);
    const double score =
        candidate.rounds_completed > 0 && std::isfinite(candidate.max_skew)
            ? candidate.max_skew
            : -std::numeric_limits<double>::infinity();
    if (!best || score > best_score) {
      best = std::move(candidate);
      best_score = score;
      best_seed = attack_seed;
      out.trace = std::move(trace);
    }
  }
  result = *best;
  result.attack_iters = budget;
  result.attack_best_seed = best_seed;
}

void theorem5_world(const runner::ScenarioSpec& spec, SpanLog* log,
                    Redriven& out) {
  runner::ScenarioResult& result = out.result;
  const auto model = spec.model();
  CS_CHECK_MSG(model.n == 3, "theorem5 world requires n = 3");
  model.validate();
  std::optional<lowerbound::Theorem5Report> report;
  {
    Scoped span(log, "lowerbound", "run_theorem5");
    report.emplace(lowerbound::run_theorem5(spec.protocol, model, spec.rounds));
  }
  result.feasible = report->feasible;
  if (!report->feasible) return;
  result.predicted_skew = report->bound;
  result.rounds_completed = report->rounds;
  result.live = report->rounds >= spec.rounds;
  if (report->rounds > 0) {
    result.max_skew = report->max_skew;
    result.steady_skew = report->max_skew;
    result.within_bound = report->bound_holds;
  }
}

}  // namespace

Redriven redrive(const runner::ScenarioSpec& spec, std::uint64_t base_seed,
                 relay::EffectiveCache* cache, SpanLog* log,
                 const RedriveOptions& options) {
  Redriven out;
  runner::ScenarioResult& result = out.result;
  result.spec = spec;
  result.seed = runner::scenario_seed(spec, base_seed);
  result.max_skew = kNan;
  result.steady_skew = kNan;
  result.skew_p50 = kNan;
  result.skew_p99 = kNan;
  result.min_period = kNan;
  result.max_period = kNan;
  result.predicted_skew = kNan;
  result.skew_ratio = kNan;
  result.local_skew = kNan;
  result.local_skew_ratio = kNan;
  result.d_eff = kNan;
  result.u_eff = kNan;
  result.kllo_ratio = kNan;
  result.edge_age_min = kNan;

  try {
    if (spec.custom_delay &&
        spec.custom_delay->kind == runner::CustomDelaySpec::Kind::kTarget)
      CS_CHECK_MSG(spec.custom_delay->target < spec.n,
                   "custom:target node " << spec.custom_delay->target
                                         << " is out of range for n="
                                         << spec.n);
    switch (spec.world) {
      case runner::WorldKind::kComplete:
        complete_world(spec, options, log, out);
        break;
      case runner::WorldKind::kRelay:
        relay_world(spec, options, cache, log, out);
        break;
      case runner::WorldKind::kTheorem5:
        theorem5_world(spec, log, out);
        break;
    }
    if (spec.world != runner::WorldKind::kRelay && result.rounds_completed > 0)
      result.local_skew = result.max_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.max_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.skew_ratio = result.max_skew / result.predicted_skew;
    if (result.rounds_completed > 0 && std::isfinite(result.local_skew) &&
        std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
      result.local_skew_ratio = result.local_skew / result.predicted_skew;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  return out;
}

bool same_trace(const sim::PulseTrace& a, const sim::PulseTrace& b) {
  if (a.n() != b.n()) return false;
  for (NodeId v = 0; v < a.n(); ++v) {
    const auto& pa = a.pulses(v);
    const auto& pb = b.pulses(v);
    if (pa.size() != pb.size()) return false;
    for (std::size_t r = 0; r < pa.size(); ++r)
      if (pa[r].real_time != pb[r].real_time ||
          pa[r].local_time != pb[r].local_time)
        return false;
  }
  return true;
}

}  // namespace perfbench
