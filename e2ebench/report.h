#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
double Quantile(std::vector<double> samples, double q);

/// The highest of p99.9/p99/p95/p90/p50 that leaves at least ten samples
/// above it, so a tail is never read off a handful of points.
double TailQuantileLevel(size_t samples);

/// "p99" style label for a quantile level.
std::string QuantileLabel(double q);

/// VmHWM / VmRSS of this process in MB (0 when /proc is unavailable).
double PeakRssMb();
double CurrentRssMb();

/// \brief Everything one workload run measured: end-to-end and per-layer
/// metrics (by the names in README.md), operation counts, and correctness
/// checks. Serialised as one JSON line for run.py.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void LayerMetric(const std::string& name, double value,
                   const std::string& unit);
  /// Counts `n` attempted operations, `failed` of which failed or were
  /// refused.
  void Count(uint64_t n, uint64_t failed = 0);
  /// Records a correctness check; any failing check makes the run
  /// incorrect. Only the first few failure messages are kept.
  void Check(bool ok, const std::string& what);
  /// A free-form line for the human-readable report.
  void Note(const std::string& line);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return check_failures_ == 0; }

  std::string ToJson(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> layer_metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> check_messages_;
  uint64_t checks_ = 0;
  uint64_t check_failures_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace e2e
