// In-memory spans for the traced run. Each recording thread owns one
// SpanLog (no locking on the hot path); logs are merged when the run ends
// and written out as JSON lines. Spans are recorded only from the
// benchmark's own files, around calls into the system's public functions.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the trace epoch
  double end_s = 0;
  int64_t parent = -1;  // index into the merged span list; -1 = root
  uint64_t request = 0;  // spans of one request share this id
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  // Records a finished span; returns its index (a parent handle).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request) {
    return AddSeconds(name, SecondsBetween(epoch_, start),
                      SecondsBetween(epoch_, end), parent, request);
  }
  int64_t AddSeconds(const std::string& name, double start_s, double end_s,
                     int64_t parent, uint64_t request) {
    spans_.push_back({name, start_s, end_s, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  // Attaches children reported as durations by the server or the engine
  // (phase timers): laid end to end from `start_s`, durations exact.
  void AddSequentialChildren(
      const std::vector<std::pair<std::string, double>>& phases,
      double start_s, int64_t parent, uint64_t request) {
    double at = start_s;
    for (const auto& [name, seconds] : phases) {
      AddSeconds(name, at, at + seconds, parent, request);
      at += seconds;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(Clock::time_point t) const { return SecondsBetween(epoch_, t); }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Merges per-thread logs into one list (parent indices re-based).
std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs);

// Per span name: how many spans, and the sum of their self time (duration
// minus the time covered by their children), in milliseconds.
struct SelfTime {
  uint64_t count = 0;
  double self_ms = 0;
  double total_ms = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

// Writes one JSON object per span to `path`. False on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
