// In-memory span recorder for the scoreboard's traced pass.
//
// Spans are recorded by the benchmark's own code around each call into a
// pipeline layer (never inside the program), kept in memory, and written out
// once the run ends. Every span carries the id of the diagnosis it belongs to
// and the index of the span that caused it, so self time is the span's
// duration minus the part its children cover (computed in summary.py).

#ifndef SCOREBOARD_RUNNER_SPANS_H_
#define SCOREBOARD_RUNNER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace scoreboard {

struct SpanRecord {
  const char* name = "";
  int64_t diag = -1;    // diagnosis (request) id shared by its spans
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Opens a span and returns its index; Close stamps its end.
  int64_t Open(const char* name, int64_t diag, int64_t parent);
  void Close(int64_t index);

  std::vector<SpanRecord> Take();

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span: a no-op (one branch) when `tracer` is null, which is how the
// untraced pass runs the same code.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t diag, int64_t parent = -1)
      : tracer_(tracer), index_(tracer ? tracer->Open(name, diag, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

// Serializes spans as a JSON array of [name, diag, parent, start_us, dur_us]
// rows, start times relative to the first span.
std::string SpansToJson(const std::vector<SpanRecord>& spans);

}  // namespace scoreboard

#endif  // SCOREBOARD_RUNNER_SPANS_H_
