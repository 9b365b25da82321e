#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

double SpanLog::total_s(const std::string& layer, const std::string& op,
                        std::size_t from) const {
  std::int64_t ns = 0;
  for (std::size_t i = from; i < spans_.size(); ++i)
    if (layer == spans_[i].layer && op == spans_[i].op)
      ns += spans_[i].end_ns - spans_[i].start_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::size_t SpanLog::count(const std::string& layer,
                           const std::string& op) const {
  std::size_t n = 0;
  for (const auto& s : spans_)
    if (layer == s.layer && op == s.op) ++n;
  return n;
}

std::vector<double> SpanLog::self_s() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const auto& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  std::vector<double> out(self.size());
  for (std::size_t i = 0; i < self.size(); ++i)
    out[i] = static_cast<double>(self[i]) * 1e-9;
  return out;
}

double SpanLog::layer_self_s(const std::string& layer) const {
  const auto self = self_s();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (layer == spans_[i].layer) total += self[i];
  return total;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"layer\": \"" << s.layer << "\", \"op\": \""
       << s.op << "\", \"start_ns\": " << s.start_ns - t0
       << ", \"end_ns\": " << s.end_ns - t0 << ", \"parent\": " << s.parent
       << ", \"cell\": ";
    if (s.cell == kNoCell)
      os << "null";
    else
      os << s.cell;
    os << "}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
}

}  // namespace perfbench
