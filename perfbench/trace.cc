#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> merged;
  for (const SpanLog* log : logs) {
    const int64_t offset = static_cast<int64_t>(merged.size());
    for (Span span : log->spans()) {
      if (span.parent >= 0) span.parent += offset;
      merged.push_back(std::move(span));
    }
  }
  return merged;
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // Children never overlap one another here (phases run in sequence), so
  // the covered time is the sum of their durations, clipped to the parent.
  std::vector<double> child_s(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_s[span.parent] += span.end_s - span.start_s;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_s - spans[i].start_s;
    SelfTime& entry = out[spans[i].name];
    ++entry.count;
    entry.total_ms += duration * 1e3;
    entry.self_ms += std::max(0.0, duration - child_s[i]) * 1e3;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << JsonObject()
               .Num("id", static_cast<double>(i))
               .Str("name", span.name)
               .Num("start_s", span.start_s)
               .Num("end_s", span.end_s)
               .Num("parent", static_cast<double>(span.parent))
               .Num("request", static_cast<double>(span.request))
               .Dump()
        << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
