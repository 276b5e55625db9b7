// scoreboard — runs one workload of the whole-diagnosis scoreboard and writes
// its raw samples as JSON. run.py builds this binary, runs it, and turns the
// samples into the metrics (summary.py).
//
//   scoreboard --workload corpus --seed 1 --seconds 10 --trace 0 --out raw.json
//
// Untraced (--trace 0): set up several times, then one timed pass of
// `seconds`. Traced (--trace 1): half of `seconds` untraced, half traced with
// spans around every layer call, then a short raw-simulator pass.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/spans.h"
#include "runner/workloads.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace scoreboard {
namespace {

// Set-up repeats back to back for at least kSetupWindowSeconds (and
// kMinSetups times), so setup_s is a median over a window long enough that
// no one preemption moves it. An untraced run pools the set-ups of all the
// processes it is split into (run.py), which is what steadies setup_s: one
// process's set-ups run at about 1.1 or about 1.9 ms on benign, whatever the
// window.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 20000;
constexpr double kSetupWindowSeconds = 0.25;
constexpr double kSimSeconds = 0.3;

std::string Num(double v) { return aitia::StrFormat("%.9g", v); }

std::string NumArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i == 0 ? "" : ",") + Num(values[i]);
  return out + "]";
}

std::string NumMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out += (first ? "\"" : ",\"") + aitia::JsonEscape(name) + "\":" + Num(value);
    first = false;
  }
  return out + "}";
}

std::string PassJson(const PassResult& pass, bool traced) {
  std::string out = "{\"elapsed_s\":" + Num(pass.elapsed_s);
  out += ",\"latency_ms\":" + NumArray(pass.latency_ms);
  out += ",\"outcomes\":[";
  for (size_t i = 0; i < pass.outcomes.size(); ++i) {
    out += std::string(i == 0 ? "\"" : ",\"") + OutcomeName(pass.outcomes[i]) + "\"";
  }
  out += "],\"notes\":[";
  for (size_t i = 0; i < pass.notes.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + aitia::JsonEscape(pass.notes[i]) + "\"";
  }
  out += "],\"program_counters\":" + NumMap(pass.program_counters);
  if (traced) {
    out += ",\"counts\":" + NumMap(pass.counts);
    out += ",\"svc_overhead_ms\":" + NumArray(pass.svc_overhead_ms);
    out += ",\"spans\":" + SpansToJson(pass.spans);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: scoreboard --workload NAME --seed N --seconds S --trace 0|1 --out FILE\n"
               "                  [--part I --parts K]\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  uint64_t seed = 1;
  int part = 0;
  int parts = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--part") {
      part = std::atoi(value);
    } else if (flag == "--parts") {
      parts = std::atoi(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || out_path.empty() || seconds <= 0 || parts < 1 || part < 0 ||
      part >= parts || !MakeWorkload(workload, seed)) {
    return Usage();
  }

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const aitia::Stopwatch window;
  while (static_cast<int>(setup_s.size()) < kMaxSetups &&
         (static_cast<int>(setup_s.size()) < kMinSetups ||
          window.ElapsedSeconds() < kSetupWindowSeconds)) {
    w.reset();
    const aitia::Stopwatch watch;
    w = MakeWorkload(workload, seed, part, parts);
    w->Setup();
    setup_s.push_back(watch.ElapsedSeconds());
  }

  std::string json = "{\"workload\":\"" + workload + "\"";
  json += ",\"seed\":" + std::to_string(seed);
  json += ",\"seconds\":" + Num(seconds);
  json += ",\"trace\":" + std::string(trace ? "1" : "0");
  json += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"build_type\":\"" + std::string(SCOREBOARD_BUILD_TYPE) + "\"";
  json += ",\"tail_percentile\":" + std::to_string(w->tail_percentile());
  json += ",\"setup_s\":" + NumArray(setup_s);

  const double timed_seconds = trace ? seconds / 2 : seconds;
  const PassResult timed = w->Run(timed_seconds, nullptr);
  json += ",\"timed\":" + PassJson(timed, false);
  if (trace) {
    Tracer tracer;
    PassResult traced = w->Run(seconds - timed_seconds, &tracer);
    traced.spans = tracer.Take();
    w->SimPass(kSimSeconds, traced.counts);
    json += ",\"traced\":" + PassJson(traced, true);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json += ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss);
  json += "}\n";

  std::ofstream out(out_path, std::ios::binary);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "scoreboard: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace scoreboard

int main(int argc, char** argv) { return scoreboard::Main(argc, argv); }
