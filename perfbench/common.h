// Small shared helpers of the loopback benchmark: sample statistics,
// a minimal JSON emitter, and the steady clock every span uses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A bag of measurements (one unit per bag). Quantiles are exact order
// statistics of the recorded values (nearest rank).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  double sum() const {
    double total = 0;
    for (double v : values_) total += v;
    return total;
  }
  // Value at percentile p in [0, 100]; 0 for an empty bag.
  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * sorted.size());
    const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
  }
  double Median() const { return Percentile(50); }
  // The highest percentile, capped at 99, that leaves at least ten
  // samples above it: with fewer than 1000 samples a p99 would rest on
  // fewer than ten observations.
  double TailPercentileRank() const {
    const double n = static_cast<double>(values_.size());
    if (n <= 10) return 50;
    return std::max(50.0, std::min(99.0, 100.0 * (1.0 - 10.0 / n)));
  }
  double Tail() const { return Percentile(TailPercentileRank()); }

 private:
  std::vector<double> values_;
};

inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

inline std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
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

// An ordered JSON object assembled from already-encoded member values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string json) {
    members_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(members_[i].first) + ": " + members_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
