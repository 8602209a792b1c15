// Small helpers shared by the benchmark's translation units: clocks,
// percentiles, the metric list the run prints, and per-thread op tallies.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// One reported number. `samples` is how many measurements back it (1 for a
// counter snapshot); it is printed in the human-readable report only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Op accounting for one client thread: every CUDA call the benchmark issues
// and every output check it makes is one attempted op.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  // Counts `status` as one op; true when it succeeded.
  bool Op(const grd::Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  // Counts one output check.
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail("check failed: " + what);
    return ok;
  }
  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) first_error = other.first_error;
  }
};

// Relative float comparison for kernel outputs against host references.
inline bool Near(double got, double want, double rel = 1e-5) {
  const double scale = std::max({1.0, std::abs(got), std::abs(want)});
  return std::abs(got - want) <= rel * scale;
}

}  // namespace perfbench
