#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

/// Shortest round-tripping decimal form of a finite double.
std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  for (int precision = 6; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::line(const Metric& m) {
  std::ostringstream os;
  os << "metric " << m.name << ' ' << number(m.value) << ' ' << m.unit
     << " samples=" << m.samples << '\n';
  return os.str();
}

std::string Report::lines() const {
  std::string out;
  for (const Metric& m : metrics_) out += line(m);
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << m.name << "\": {\"value\": " << number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
