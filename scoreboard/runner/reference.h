// Independent references for checking every diagnosis the scoreboard runs.
//
// A reference is built from what the benchmark knows without running the
// pipeline: the hand-written GroundTruth of a curated scenario (registry
// factories), or the generator's planted expectations for a generated one
// (expect_failure, racing globals, salted benign globals). Each answer is
// classified into one Outcome; summary.py turns outcomes into fail_frac,
// capped_frac and the result line's `failed` count.

#ifndef SCOREBOARD_RUNNER_REFERENCE_H_
#define SCOREBOARD_RUNNER_REFERENCE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/bugs/scenario.h"
#include "src/core/aitia.h"
#include "src/gen/templates.h"

namespace scoreboard {

enum class Outcome {
  kOk,            // the answer matches the reference
  kCapped,        // benign search stopped at the schedule cap (inconclusive)
  kExpectedMiss,  // fuzzer found nothing where the reference says it cannot
  kMissed,        // no diagnosis where the reference expects one
  kWrong,         // the answer contradicts the reference
  kDegraded,      // partial answer (budget, deadline, lost runs)
  kRefused,       // the front end refused or errored
  kFabricated,    // a failure reported on a scenario that cannot fail
};

const char* OutcomeName(Outcome outcome);

struct Reference {
  std::string id;
  bool curated = false;  // GroundTruth is hand-written (registry scenario)
  bool expect_failure = true;
  aitia::GroundTruth truth;
  // The fuzzer has no IRQ injection, so a bug that needs an injected IRQ
  // is out of its reach.
  bool needs_irq = false;
  std::vector<std::pair<aitia::Addr, aitia::Addr>> racing_ranges;
  std::vector<aitia::Addr> benign_addrs;
  std::vector<std::string> benign_globals;
};

// `scenario` must be the benchmark's own copy (factory or generator output).
Reference CuratedReference(const aitia::BugScenario& scenario);
Reference GeneratedReference(const aitia::gen::GeneratedScenario& generated);

// A diagnosis of a scenario (.ait path). `why` receives a reason when the
// outcome is not kOk.
Outcome CheckScenarioReport(const Reference& ref, const aitia::AitiaReport& report,
                            std::string* why);

// A diagnosis from a fuzz history. Under random scheduling a bug may surface
// as another genuine symptom (a refcount race as a use-after-free), and LIFS
// then matches that exact crash, so the reference here is the crash the
// fuzzer reported plus the scenario's racing state: the chain must be
// non-empty and every chain race must touch that state.
Outcome CheckHistoryReport(const Reference& ref, const aitia::AitiaReport& report,
                           aitia::FailureType reported, std::string* why);

// A terminal aitiad response. `image` is the benchmark's copy of the
// scenario's image, used to resolve chain race labels.
struct DaemonAnswer {
  Outcome outcome = Outcome::kRefused;
  bool cache_hit = false;
  double pipeline_seconds = 0;  // the report's LIFS + CA seconds
};
DaemonAnswer CheckDaemonResponse(const Reference& ref, const aitia::KernelImage& image,
                                 const std::string& response, std::string* why);

}  // namespace scoreboard

#endif  // SCOREBOARD_RUNNER_REFERENCE_H_
