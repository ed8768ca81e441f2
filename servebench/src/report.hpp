// Sample statistics and the one-line JSON result both modes print.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Named metrics in print order, plus free-form info fields.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  void info(const std::string& name, double value) {
    info_.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..},"info":{..}}
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " +
             number(metrics_[i].second.first) + ", \"unit\": \"" +
             metrics_[i].second.second + "\"}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      out += (i ? ", \"" : "\"") + info_[i].first +
             "\": " + number(info_[i].second);
    }
    out += "}}";
    return out;
  }

 private:
  static std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, double>> info_;
};

}  // namespace servebench
