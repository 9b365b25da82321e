#pragma once
// Micro-probes for layers whose work happens inside the engine run, where
// the benchmark cannot place a span from outside: the event queue, hardware
// clock evaluation, and signature/hash cost. Each probe times a public call
// in a tight loop for a fixed amount of work.

#include <cstdint>

#include "crypto/signature.hpp"

namespace perfbench {

/// ns per EventQueue schedule + pop_and_run pair with `depth` events
/// pending (a hold model: every pop schedules one replacement).
[[nodiscard]] double queue_ns_per_op(std::uint32_t depth);

struct ClockProbe {
  double local_ns = 0.0;  ///< HardwareClock::local
  double real_ns = 0.0;   ///< HardwareClock::real
};
/// Reads of a HardwareClock::random_walk clock spanning `horizon`.
[[nodiscard]] ClockProbe clock_probe(double horizon);

/// ns per Pki::verify of a pulse signature under `kind`.
[[nodiscard]] double verify_ns(crusader::crypto::Pki::Kind kind);

/// Sha256::hash throughput over 64 KiB buffers, MB/s.
[[nodiscard]] double sha256_mb_per_s();

}  // namespace perfbench
