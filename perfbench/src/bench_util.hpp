// Small shared helpers of the stack benchmark: clocks, order statistics,
// the byte codec that carries per-rank results back over spawn_local's
// payload pipes, and the metric report printed at the end of a run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.  The clock is system-wide, so stamps
/// taken in forked rank processes compare directly with the launcher's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the smaller half of a sample.  Other processes on the machine
/// only ever add time, so their interference lands in the larger half; this
/// repeats where the median of the whole sample drifts with the load.
inline double fast_half_mean(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("mean of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t half = (v.size() + 1) / 2;
  double sum = 0.0;
  for (std::size_t i = 0; i < half; ++i) sum += v[i];
  return sum / static_cast<double>(half);
}

/// Elementwise max over ranks of equally long per-rank sample vectors: the
/// time of a collective step is the time of its slowest rank.
template <class T>
std::vector<double> max_over_ranks(const std::vector<std::vector<T>>& per_rank) {
  std::vector<double> out(per_rank.at(0).begin(), per_rank.at(0).end());
  for (const auto& r : per_rank) {
    if (r.size() != out.size()) {
      throw std::runtime_error("ranks disagree on the sample count");
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::max(out[i], static_cast<double>(r[i]));
    }
  }
  return out;
}

/// Append-only encoder of trivially copyable values and vectors of them.
class ByteWriter {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }
  template <class T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    out_.insert(out_.end(), p, p + v.size() * sizeof(T));
  }
  void put_str(const std::string& s) {
    put<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

/// Bounds-checked decoder matching ByteWriter.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in) : in_(in) {}
  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  template <class T>
  std::vector<T> get_vec() {
    const auto count = get<std::uint64_t>();
    if (count > in_.size() / sizeof(T)) throw std::runtime_error("bad payload");
    std::vector<T> v(count);
    std::memcpy(v.data(), take(count * sizeof(T)), count * sizeof(T));
    return v;
  }
  std::string get_str() {
    const auto count = get<std::uint64_t>();
    if (count > in_.size()) throw std::runtime_error("bad payload");
    const auto* p = reinterpret_cast<const char*>(take(count));
    return std::string(p, count);
  }

 private:
  const std::byte* take(std::size_t bytes) {
    if (bytes > in_.size() - pos_) throw std::runtime_error("short payload");
    const std::byte* p = in_.data() + pos_;
    pos_ += bytes;
    return p;
  }
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// One reported number: name, value, unit and how many samples it rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Collects metrics; prints them as readable lines and as the one-line JSON
/// result object.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }

  /// "metric <name> <value> <unit> samples=<n>" per metric.
  [[nodiscard]] std::string lines() const;
  [[nodiscard]] static std::string line(const Metric& m);
  /// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
