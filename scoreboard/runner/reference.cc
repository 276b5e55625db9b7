#include "runner/reference.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "src/core/chain.h"
#include "src/core/lifs.h"
#include "src/sim/failure.h"
#include "src/svc/jsonv.h"

namespace scoreboard {
namespace {

using aitia::Addr;
using aitia::AitiaReport;

bool Fail(std::string* why, const std::string& reason) {
  if (why != nullptr) *why = reason;
  return false;
}

// A search that ran the default schedule budget to the end stopped at the
// cap instead of finishing its frontier.
bool StoppedAtCap(const AitiaReport& report) {
  return report.lifs.schedules_executed >= aitia::LifsOptions{}.max_schedules;
}

// Chain checks shared by the scenario and history paths: every chain race is
// about the planted racing state and none touches a salted benign global.
bool ChainMatches(const Reference& ref, const AitiaReport& report, std::string* why) {
  const aitia::CausalityChain& chain = report.causality.chain;
  if (chain.race_count() == 0) return Fail(why, "empty causality chain");
  for (const aitia::ChainNode& node : chain.nodes()) {
    for (const aitia::RacePair& race : node.races) {
      const Addr a = race.first.addr;
      const Addr b = race.second.addr;
      if (!aitia::InRanges(ref.racing_ranges, a) && !aitia::InRanges(ref.racing_ranges, b)) {
        return Fail(why, "chain race outside the racing state");
      }
      for (Addr benign : ref.benign_addrs) {
        if (a == benign || b == benign) return Fail(why, "salted benign race in the chain");
      }
    }
  }
  return true;
}

Outcome ClassifyNoFailure(const AitiaReport& report, std::string* why) {
  if (report.lifs.reproduced || report.diagnosed) {
    Fail(why, "failure reported on a scenario that cannot fail");
    return Outcome::kFabricated;
  }
  // Checked before health: a capped search is inconclusive, whatever status
  // a front end attaches to it.
  if (StoppedAtCap(report)) return Outcome::kCapped;
  if (report.degraded || !report.status.ok()) {
    Fail(why, "degraded search");
    return Outcome::kDegraded;
  }
  return Outcome::kOk;
}

// Health and presence of a diagnosis that the reference says must exist.
// Returns kOk when there is a diagnosis to compare.
Outcome DiagnosisPresent(const AitiaReport& report, std::string* why) {
  if (report.degraded || !report.status.ok()) {
    Fail(why, "degraded diagnosis");
    return Outcome::kDegraded;
  }
  if (!report.diagnosed || !report.lifs.failure.has_value()) {
    Fail(why, "not diagnosed");
    return Outcome::kMissed;
  }
  return Outcome::kOk;
}

bool TypeMatches(aitia::FailureType want, const AitiaReport& report, std::string* why) {
  const aitia::FailureType got = report.lifs.failure->type;
  return got == want || Fail(why, std::string("failure type ") + aitia::FailureTypeName(got));
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when `text` contains `word` as a whole identifier.
bool ContainsWord(const std::string& text, const std::string& word) {
  for (size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool left = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right = end >= text.size() || !IsIdentChar(text[end]);
    if (left && right) return true;
  }
  return false;
}

// Notes of the instructions one side tag of a rendered race label names:
// "prog+pc" is that instruction; a short tag such as "A1" is every
// instruction whose note starts with "A1:" (chain.cc's SideTag rule).
std::vector<const std::string*> TaggedNotes(const aitia::KernelImage& image,
                                            const std::string& tag) {
  std::vector<const std::string*> notes;
  const size_t plus = tag.rfind('+');
  if (plus != std::string::npos) {
    const aitia::ProgramId prog = image.FindProgram(tag.substr(0, plus));
    const int pc = std::atoi(tag.c_str() + plus + 1);
    if (prog != aitia::kNoProgram && pc >= 0 && pc < image.program(prog).size()) {
      notes.push_back(&image.program(prog).At(pc).note);
    }
    return notes;
  }
  for (const aitia::Program& program : image.programs()) {
    for (int pc = 0; pc < program.size(); ++pc) {
      const std::string& note = program.At(pc).note;
      if (note.size() > tag.size() && note.compare(0, tag.size(), tag) == 0 &&
          note[tag.size()] == ':') {
        notes.push_back(&note);
      }
    }
  }
  return notes;
}

// True when a side of the label is an access the notes attribute to a salted
// benign global.
bool SideIsBenign(const Reference& ref, const aitia::KernelImage& image,
                  const std::string& tag) {
  for (const std::string* note : TaggedNotes(image, tag)) {
    for (const std::string& name : ref.benign_globals) {
      if (ContainsWord(*note, name)) return true;
    }
  }
  return false;
}

bool LabelIsBenign(const Reference& ref, const aitia::KernelImage& image, std::string label) {
  if (label.rfind("cs{", 0) == 0 && label.back() == '}') {
    label = label.substr(3, label.size() - 4);
  }
  const size_t arrow = label.find(" => ");
  if (arrow == std::string::npos) return false;
  return SideIsBenign(ref, image, label.substr(0, arrow)) ||
         SideIsBenign(ref, image, label.substr(arrow + 4));
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kCapped: return "capped";
    case Outcome::kExpectedMiss: return "expected_miss";
    case Outcome::kMissed: return "missed";
    case Outcome::kWrong: return "wrong";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kRefused: return "refused";
    case Outcome::kFabricated: return "fabricated";
  }
  return "unknown";
}

Reference CuratedReference(const aitia::BugScenario& scenario) {
  Reference ref;
  ref.id = scenario.id;
  ref.curated = true;
  ref.truth = scenario.truth;
  ref.needs_irq = !scenario.irq_lines.empty();
  ref.racing_ranges = aitia::RacingAddressRanges(scenario);
  return ref;
}

Reference GeneratedReference(const aitia::gen::GeneratedScenario& generated) {
  const aitia::BugScenario& s = generated.scenario;
  Reference ref;
  ref.id = s.id;
  ref.expect_failure = generated.expect_failure;
  ref.truth = s.truth;
  ref.needs_irq = !s.irq_lines.empty();
  ref.racing_ranges = aitia::RacingAddressRanges(s);
  ref.benign_globals = generated.benign_globals;
  for (const std::string& name : generated.benign_globals) {
    const Addr addr = s.image->FindGlobal(name);
    if (addr != 0) ref.benign_addrs.push_back(addr);
  }
  return ref;
}

Outcome CheckScenarioReport(const Reference& ref, const AitiaReport& report,
                            std::string* why) {
  if (!ref.expect_failure) return ClassifyNoFailure(report, why);
  const Outcome present = DiagnosisPresent(report, why);
  if (present != Outcome::kOk) return present;
  const aitia::GroundTruth& t = ref.truth;
  const size_t races = report.causality.chain.race_count();
  bool ok = TypeMatches(t.failure_type, report, why);
  if (ok && ref.curated) {
    if (report.lifs.interleaving_count != t.expected_interleavings) {
      ok = Fail(why, "interleaving count " + std::to_string(report.lifs.interleaving_count));
    } else if (t.expected_chain_races > 0 &&
               races != static_cast<size_t>(t.expected_chain_races)) {
      ok = Fail(why, "chain races " + std::to_string(races));
    } else if (report.causality.ambiguous != t.expect_ambiguity) {
      ok = Fail(why, "ambiguity flag");
    }
  }
  ok = ok && ChainMatches(ref, report, why);
  return ok ? Outcome::kOk : Outcome::kWrong;
}

Outcome CheckHistoryReport(const Reference& ref, const AitiaReport& report,
                           aitia::FailureType reported, std::string* why) {
  const Outcome present = DiagnosisPresent(report, why);
  if (present != Outcome::kOk) return present;
  const bool ok = TypeMatches(reported, report, why) && ChainMatches(ref, report, why);
  return ok ? Outcome::kOk : Outcome::kWrong;
}

DaemonAnswer CheckDaemonResponse(const Reference& ref, const aitia::KernelImage& image,
                                 const std::string& response, std::string* why) {
  using aitia::svc::JsonValue;
  DaemonAnswer answer;
  aitia::StatusOr<JsonValue> doc = aitia::svc::ParseJson(response);
  if (!doc.ok()) {
    Fail(why, "unparseable response");
    return answer;
  }
  const JsonValue* status = doc->Find("status");
  const std::string word = status != nullptr ? status->AsString() : "";
  const JsonValue* cache = doc->Find("cache");
  answer.cache_hit = cache != nullptr && cache->AsString() == "hit";
  const JsonValue* report = doc->Find("report");
  if (word == "degraded") {
    answer.outcome = Outcome::kDegraded;
    Fail(why, "degraded response");
    return answer;
  }
  if (word == "not_reproduced") {
    answer.outcome = ref.expect_failure ? Outcome::kMissed : Outcome::kOk;
    Fail(why, "not reproduced");
    return answer;
  }
  if (word != "ok" || report == nullptr) {
    Fail(why, "refused: " + word);
    return answer;  // kRefused
  }
  auto number = [](const JsonValue* obj, const char* key) {
    const JsonValue* v = obj != nullptr ? obj->Find(key) : nullptr;
    return v != nullptr ? v->AsDouble() : 0.0;
  };
  const JsonValue* lifs = report->Find("lifs");
  const JsonValue* causality = report->Find("causality");
  answer.pipeline_seconds = number(lifs, "seconds") + number(causality, "seconds");
  if (!ref.expect_failure) {
    answer.outcome = Outcome::kFabricated;
    Fail(why, "failure reported on a scenario that cannot fail");
    return answer;
  }
  answer.outcome = Outcome::kWrong;
  const JsonValue* failure = report->Find("failure");
  const JsonValue* type = failure != nullptr ? failure->Find("type") : nullptr;
  if (type == nullptr || type->AsString() != aitia::FailureTypeName(ref.truth.failure_type)) {
    Fail(why, "failure type");
    return answer;
  }
  const int interleavings = static_cast<int>(number(lifs, "interleavings"));
  if (ref.curated ? interleavings != ref.truth.expected_interleavings : interleavings > 2) {
    Fail(why, "interleaving count " + std::to_string(interleavings));
    return answer;
  }
  const JsonValue* chain = report->Find("chain");
  const JsonValue* nodes = chain != nullptr ? chain->Find("nodes") : nullptr;
  size_t races = 0;
  if (nodes != nullptr) {
    for (const JsonValue& node : nodes->items()) {
      const JsonValue* labels = node.Find("races");
      if (labels == nullptr) continue;
      for (const JsonValue& label : labels->items()) {
        ++races;
        if (LabelIsBenign(ref, image, label.AsString())) {
          Fail(why, "salted benign race in the chain: " + label.AsString());
          return answer;
        }
      }
    }
  }
  if (races == 0 || (ref.curated && ref.truth.expected_chain_races > 0 &&
                     races != static_cast<size_t>(ref.truth.expected_chain_races))) {
    Fail(why, "chain races " + std::to_string(races));
    return answer;
  }
  const JsonValue* ambiguous = causality != nullptr ? causality->Find("ambiguous") : nullptr;
  if (ref.curated && (ambiguous == nullptr || ambiguous->AsBool() != ref.truth.expect_ambiguity)) {
    Fail(why, "ambiguity flag");
    return answer;
  }
  answer.outcome = Outcome::kOk;
  return answer;
}

}  // namespace scoreboard
