#include "probes.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/event_queue.hpp"
#include "sim/hardware_clock.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace crypto = crusader::crypto;
namespace sim = crusader::sim;
namespace util = crusader::util;

/// Keeps a probe's result observable so the timed loop is not elided.
volatile double g_sink = 0.0;

double elapsed_ns(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

}  // namespace

double queue_ns_per_op(std::uint32_t depth) {
  depth = std::max<std::uint32_t>(depth, 1);
  util::Rng rng(0x9e3779b97f4a7c15ULL ^ depth);
  sim::EventQueue queue;
  for (std::uint32_t i = 0; i < depth; ++i)
    queue.schedule(rng.uniform(0.0, 1.0), [] {});
  const std::size_t ops = 1u << 20;
  const auto t0 = now_ns();
  double now = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    now = queue.pop_and_run();
    queue.schedule(now + rng.uniform(0.0, 1.0), [] {});
  }
  const double ns = elapsed_ns(t0) / static_cast<double>(ops);
  g_sink = now;
  return ns;
}

ClockProbe clock_probe(double horizon) {
  horizon = std::max(horizon, 1.0);
  util::Rng rng(0x5eed);
  // WorldConfig::clock_segment's default segment length.
  const auto clock =
      sim::HardwareClock::random_walk(rng, 1.01, 0.0, 5.0, horizon);
  const std::size_t reads = 1u << 20;
  std::vector<double> times(reads);
  for (auto& t : times) t = rng.uniform(0.0, horizon);
  std::vector<double> locals(reads);

  ClockProbe probe;
  auto t0 = now_ns();
  for (std::size_t i = 0; i < reads; ++i) locals[i] = clock.local(times[i]);
  probe.local_ns = elapsed_ns(t0) / static_cast<double>(reads);
  double sum = 0.0;
  t0 = now_ns();
  for (std::size_t i = 0; i < reads; ++i) sum += clock.real(locals[i]);
  probe.real_ns = elapsed_ns(t0) / static_cast<double>(reads);
  g_sink = sum;
  return probe;
}

double verify_ns(crypto::Pki::Kind kind) {
  const std::uint32_t n = 64;
  crypto::Pki pki(n, kind, 0xc0ffee);
  std::vector<crypto::SignedPayload> payloads;
  std::vector<crypto::Signature> sigs;
  for (crusader::Round r = 0; r < 64; ++r) {
    payloads.push_back(crypto::make_pulse_payload(r));
    sigs.push_back(pki.sign(static_cast<crusader::NodeId>(r % n),
                            payloads.back()));
  }
  const std::size_t verifies = 1u << 16;
  std::size_t ok = 0;
  const auto t0 = now_ns();
  for (std::size_t i = 0; i < verifies; ++i)
    ok += pki.verify(sigs[i % sigs.size()], payloads[i % payloads.size()]);
  const double ns = elapsed_ns(t0) / static_cast<double>(verifies);
  g_sink = static_cast<double>(ok);
  return ns;
}

double sha256_mb_per_s() {
  std::vector<std::uint8_t> buffer(64 * 1024);
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<std::uint8_t>(i * 131);
  const std::size_t rounds = 256;  // 16 MiB
  std::uint8_t acc = 0;
  const auto t0 = now_ns();
  for (std::size_t i = 0; i < rounds; ++i) {
    buffer[0] = acc;
    acc ^= crypto::Sha256::hash(buffer)[0];
  }
  const double seconds = elapsed_ns(t0) * 1e-9;
  g_sink = acc;
  return static_cast<double>(buffer.size() * rounds) / 1e6 / seconds;
}

}  // namespace perfbench
