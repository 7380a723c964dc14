#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0.0;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double TailQuantileLevel(size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::string QuantileLabel(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }
double CurrentRssMb() { return StatusKb("VmRSS") / 1024.0; }

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::LayerMetric(const std::string& name, double value,
                         const std::string& unit) {
  layer_metrics_.push_back({name, value, unit});
}

void Report::Count(uint64_t n, uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++check_failures_;
  if (check_messages_.size() < 8) check_messages_.push_back(what);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::string Report::ToJson(const std::string& workload) const {
  std::ostringstream out;
  auto entries = [&out](const std::vector<Entry>& list) {
    out << "{";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out << ", ";
      out << JsonString(list[i].name) << ": {\"value\": "
          << JsonNumber(list[i].value)
          << ", \"unit\": " << JsonString(list[i].unit) << "}";
    }
    out << "}";
  };
  auto strings = [&out](const std::vector<std::string>& list) {
    out << "[";
    for (size_t i = 0; i < list.size(); ++i) {
      out << (i > 0 ? ", " : "") << JsonString(list[i]);
    }
    out << "]";
  };
  out << "{\"workload\": " << JsonString(workload)
      << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"checks\": " << checks_ << ", \"check_failures\": ";
  strings(check_messages_);
  out << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": ";
  entries(metrics_);
  out << ", \"layer_metrics\": ";
  entries(layer_metrics_);
  out << ", \"notes\": ";
  strings(notes_);
  out << "}";
  return out.str();
}

}  // namespace e2e
