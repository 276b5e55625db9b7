#include "runner/spans.h"

#include <algorithm>
#include <cstdio>

namespace scoreboard {

int64_t Tracer::Open(const char* name, int64_t diag, int64_t parent) {
  SpanRecord span;
  span.name = name;
  span.diag = diag;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::string SpansToJson(const std::vector<SpanRecord>& spans) {
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = spans.front().start_ns;
    for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  }
  std::string out = "[";
  char row[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(row, sizeof(row), "%s[\"%s\",%lld,%lld,%.3f,%.3f]", i == 0 ? "" : ",",
                  s.name, static_cast<long long>(s.diag), static_cast<long long>(s.parent),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += row;
  }
  return out + "]";
}

}  // namespace scoreboard
