#pragma once
// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer's public entry points;
// nothing inside the simulator is instrumented. A span's self time is its
// duration minus the time its direct children cover.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers that get spans, named after the simulator modules (README.md).
/// Crypto has none: signing and verifying happen inside sim.run, so the
/// crypto layer is measured by the PKI twin and the probes instead.
inline constexpr const char* kLayers[] = {
    "runner", "relay.analysis", "relay.schedule", "sim",       "protocol",
    "grade",  "io",             "lowerbound"};

/// No cell: set-up and campaign spans outside any cell.
inline constexpr std::uint32_t kNoCell = UINT32_MAX;

struct Span {
  const char* layer;
  const char* op;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into SpanLog::spans, -1 at top level
  std::uint32_t cell;   ///< spec index, kNoCell outside a cell
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  std::size_t open(const char* layer, const char* op) {
    const auto parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(Span{layer, op, now_ns(), 0, parent, cell_});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }
  void set_cell(std::uint32_t cell) { cell_ = cell; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total duration (s) of the spans with this layer and op, from span
  /// index `from` on.
  [[nodiscard]] double total_s(const std::string& layer, const std::string& op,
                               std::size_t from = 0) const;
  /// Number of spans with this layer and op.
  [[nodiscard]] std::size_t count(const std::string& layer,
                                  const std::string& op) const;
  /// Self time (s) per span index: duration minus direct children.
  [[nodiscard]] std::vector<double> self_s() const;
  /// Self time (s) summed over the spans of one layer.
  [[nodiscard]] double layer_self_s(const std::string& layer) const;
  /// Writes every span as JSON: {"spans": [{"layer", "op", "start_ns",
  /// "end_ns", "parent", "cell"}, ...]}, times relative to the first span.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint32_t cell_ = kNoCell;
};

/// RAII span; a null log records nothing.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* layer, const char* op)
      : log_(log), index_(log ? log->open(layer, op) : 0) {}
  ~Scoped() {
    if (log_) log_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
