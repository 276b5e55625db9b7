// The scoreboard's four workloads (README.md): corpus, benign, history and
// daemon. Each builds its inputs from the workload seed in Setup(), then runs
// whole diagnoses through the front ends' public entry points at their
// default settings for a fixed wall-clock time.
//
// A pass runs untraced (tracer == nullptr) for the end-to-end numbers, or
// traced for the per-layer split. The traced composition of corpus, benign
// and history calls the layers one by one (ScenarioFromAitText, Lifs::Run,
// CausalityAnalysis::Run, ReportToJson/ReportToSarif, FuzzUntilFailure,
// BuildSlices) so each call gets its own span; the facade instead shares one
// replay store between LIFS and CA, which the traced composition does not.

#ifndef SCOREBOARD_RUNNER_WORKLOADS_H_
#define SCOREBOARD_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/reference.h"
#include "runner/spans.h"

namespace scoreboard {

struct PassResult {
  double elapsed_s = 0;
  // One entry per diagnosis, in completion order.
  std::vector<double> latency_ms;
  std::vector<Outcome> outcomes;
  // "<scenario id>: <reason>" for the first non-ok answers.
  std::vector<std::string> notes;
  // Counters the program reported about itself (AitiaReport::metrics, the
  // daemon's metrics verb), summed; only names that were present.
  std::map<std::string, double> program_counters;
  // Traced pass only: spans and the layer counts recorded beside them.
  std::vector<SpanRecord> spans;
  std::map<std::string, double> counts;
  std::vector<double> svc_overhead_ms;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input from the workload seed (and, for daemon, starts the
  // service and fills its result cache).
  virtual void Setup() = 0;

  // Runs whole rounds of diagnoses until `seconds` have elapsed (at least
  // one round). Spans go to `tracer` when it is non-null.
  virtual PassResult Run(double seconds, Tracer* tracer) = 0;

  // Raw simulator throughput over this workload's scenarios: seeded random
  // schedules run to completion with no enforcer. Adds sim.steps and
  // sim.seconds to `counts`.
  void SimPass(double seconds, std::map<std::string, double>& counts) const;

  // The tail percentile this workload reports (50 when it has too few
  // samples for a tail).
  virtual int tail_percentile() const = 0;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}

  // The benchmark's own copies of the scenarios this workload diagnoses.
  virtual std::vector<const aitia::BugScenario*> Scenarios() const = 0;

  const uint64_t seed_;
};

// nullptr for an unknown workload name. A run split over `parts` processes
// (run.py) makes process `part` with its own seed; only benign divides its
// work between them, the others run all of it for their share of the time.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, int part = 0,
                                       int parts = 1);

const std::vector<std::string>& WorkloadNames();

}  // namespace scoreboard

#endif  // SCOREBOARD_RUNNER_WORKLOADS_H_
