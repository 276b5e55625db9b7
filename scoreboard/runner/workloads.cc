#include "runner/workloads.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <utility>

#include "src/bugs/diagnose.h"
#include "src/bugs/registry.h"
#include "src/core/aitia.h"
#include "src/core/causality.h"
#include "src/core/lifs.h"
#include "src/core/report.h"
#include "src/fuzz/fuzzer.h"
#include "src/gen/generator.h"
#include "src/ingest/ingest.h"
#include "src/ingest/serialize.h"
#include "src/obs/metrics.h"
#include "src/sim/policy.h"
#include "src/svc/daemon.h"
#include "src/svc/jsonv.h"
#include "src/tools/sarif.h"
#include "src/trace/slicer.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace scoreboard {
namespace {

using aitia::AitiaOptions;
using aitia::AitiaReport;
using aitia::BugScenario;

constexpr size_t kMaxNotes = 8;
// The history workload's fixed first fuzz seed (FuzzOptions' own default).
constexpr uint64_t kFirstFuzzSeed = 1;
// Distinct generated scenarios the daemon cycles through. Far more than the
// result cache holds, so every generated request is a cache miss. The pool
// is fixed (the generator's sweep seed 9); the workload seed orders the
// request stream. At 256 scenarios a seed-drawn pool moved throughput by
// ~18% and p99 by ~40% between seeds: it measured the draw.
constexpr int kDaemonPool = 256;
constexpr uint64_t kDaemonPoolSeed = 9;
// Every kDaemonCorpusStride-th daemon request names a corpus id (a result
// cache hit); the rest send a generated scenario inline.
constexpr int64_t kDaemonCorpusStride = 3;
constexpr int kDaemonClients = 4;
// Rounds of the finishing benign scenarios per capped search: a benign round
// (one capped search, 48 finishing ones) takes about 20-30 s on 4 vCPUs of a
// shared host, one run.
constexpr int kBenignRepeats = 16;

// --- shared helpers --------------------------------------------------------

void Record(PassResult& out, double ms, Outcome outcome, const std::string& id,
            const std::string& why) {
  out.latency_ms.push_back(ms);
  out.outcomes.push_back(outcome);
  if (outcome != Outcome::kOk && out.notes.size() < kMaxNotes) {
    out.notes.push_back(id + ": " + OutcomeName(outcome) + (why.empty() ? "" : " (" + why + ")"));
  }
}

void AddProgramCounters(PassResult& out, const aitia::obs::MetricsSnapshot& metrics) {
  for (const auto& [name, value] : metrics.counters) {
    out.program_counters[name] += static_cast<double>(value);
  }
}

// Folds stage health into a composed report the way the facade does.
void FoldHealth(AitiaReport& report) {
  if (report.causality.degraded || report.lifs.aborted_runs > 0) report.degraded = true;
  if (!report.lifs.status.ok()) {
    report.status = report.lifs.status;
    report.degraded = true;
  }
}

void CountSearch(const aitia::LifsResult& r, std::map<std::string, double>& counts) {
  counts["lifs.searches"] += 1;
  counts["lifs.schedules"] += static_cast<double>(r.schedules_executed);
  counts["lifs.pruned"] += static_cast<double>(r.schedules_pruned);
  counts["lifs.steps"] += static_cast<double>(r.budget.steps);
  counts["lifs.discovery_s"] += r.discovery_seconds;
  counts["lifs.depth_s"] += r.depth_seconds;
  counts["hv.retries"] += static_cast<double>(r.budget.retries);
}

void CountAnalysis(const aitia::CausalityResult& r, std::map<std::string, double>& counts) {
  counts["ca.analyses"] += 1;
  counts["ca.flips"] += static_cast<double>(r.schedules_executed);
  counts["ca.tested"] += static_cast<double>(r.tested.size());
  counts["ca.steps"] += static_cast<double>(r.budget.steps);
  counts["hv.retries"] += static_cast<double>(r.budget.retries);
}

// Renders a diagnosis as the CLI does with --json and --sarif; returns the
// rendered bytes.
size_t Render(const BugScenario& scenario, const AitiaReport& report) {
  const std::string json = aitia::ReportToJson(report, *scenario.image);
  const std::string sarif = aitia::tools::ReportToSarif(scenario, report);
  return json.size() + sarif.size();
}

// The per-diagnosis metrics delta the facade attaches to every report
// (AitiaReport::metrics): a registry snapshot before and after.
class MetricsDelta {
 public:
  MetricsDelta() : before_(aitia::obs::MetricsRegistry::Global().Snapshot()) {}
  aitia::obs::MetricsSnapshot Take() const {
    return aitia::obs::MetricsRegistry::Global().Snapshot().Delta(before_);
  }

 private:
  aitia::obs::MetricsSnapshot before_;
};

// LIFS + CA over one slice, one layer call at a time (traced composition).
void ComposedDiagnose(const aitia::KernelImage& image, const std::vector<aitia::ThreadSpec>& slice,
                      const std::vector<aitia::ThreadSpec>& setup,
                      const aitia::LifsOptions& lifs_options, Tracer* tracer, int64_t diag,
                      int64_t parent, AitiaReport& report, std::map<std::string, double>& counts) {
  {
    Scope span(tracer, "lifs", diag, parent);
    aitia::Lifs lifs(&image, slice, setup, lifs_options);
    report.lifs = lifs.Run();
  }
  CountSearch(report.lifs, counts);
  if (!report.lifs.reproduced) return;
  report.used_slice.threads = slice;
  report.used_slice.setup = setup;
  {
    Scope span(tracer, "ca", diag, parent);
    aitia::CausalityAnalysis ca(&image, slice, setup, &report.lifs, AitiaOptions{}.causality);
    report.causality = ca.Run();
  }
  CountAnalysis(report.causality, counts);
  report.diagnosed = true;
}

// Runs whole rounds over `n` items, each round in a fresh order drawn from
// `rng`, or in item order when `rng` is null: at least one round, then
// another only while it is expected to end within `seconds` (taking as long
// as the one before), so a round just shorter than `seconds` does not double
// the run.
template <typename Fn>
double RunRounds(size_t n, double seconds, std::mt19937_64* rng, Fn&& one) {
  aitia::Stopwatch watch;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  double round_s = 0;
  do {
    const double start = watch.ElapsedSeconds();
    if (rng != nullptr) std::shuffle(order.begin(), order.end(), *rng);
    for (size_t i : order) one(i);
    round_s = watch.ElapsedSeconds() - start;
  } while (watch.ElapsedSeconds() + round_s <= seconds);
  return watch.ElapsedSeconds();
}

// --- corpus and benign: .ait text in, rendered report out -------------------

struct AitItem {
  std::shared_ptr<BugScenario> source;  // the benchmark's own copy
  std::string ait;
  Reference ref;
};

class AitWorkload : public Workload {
 public:
  AitWorkload(bool benign, uint64_t seed, int part, int parts)
      : Workload(seed), benign_(benign), part_(part), parts_(parts), rng_(seed) {}

  void Setup() override {
    items_.clear();
    if (benign_) {
      for (const aitia::gen::GenOptions& options : BenignPlan()) {
        aitia::gen::GeneratedScenario g = aitia::gen::GenerateScenario(options);
        Add(std::move(g.scenario), GeneratedReference(g));
      }
    } else {
      for (const aitia::ScenarioEntry& entry : aitia::AllScenarios()) {
        BugScenario s = entry.make();
        Reference ref = CuratedReference(s);
        Add(std::move(s), std::move(ref));
      }
    }
  }

  PassResult Run(double seconds, Tracer* tracer) override {
    PassResult out;
    int64_t next_diag = 0;
    auto one = [&](size_t i) {
      const AitItem& item = items_[i];
      const int64_t start = Tracer::NowNs();
      std::string why;
      AitiaReport report;
      const bool parsed = tracer == nullptr ? Facade(item, report, why)
                                            : Composed(item, tracer, next_diag++, out, report, why);
      const double ms = static_cast<double>(Tracer::NowNs() - start) / 1e6;
      const Outcome outcome =
          parsed ? CheckScenarioReport(item.ref, report, &why) : Outcome::kRefused;
      Record(out, ms, outcome, item.ref.id, why);
      AddProgramCounters(out, report.metrics);
    };
    if (benign_) {
      // One round of this process's share of the plan, in plan order,
      // however long `seconds` is: a round is sized to a run.
      const std::vector<size_t> share = BenignShare();
      out.elapsed_s = RunRounds(share.size(), 0, nullptr, [&](size_t i) { one(share[i]); });
    } else {
      out.elapsed_s = RunRounds(items_.size(), seconds, &rng_, one);
    }
    return out;
  }

  // A benign round has one capped search among 49 diagnoses: too few beyond
  // any tail percentile, so it reports the median.
  int tail_percentile() const override { return benign_ ? 50 : 99; }

 private:
  std::vector<const BugScenario*> Scenarios() const override {
    std::vector<const BugScenario*> out;
    for (const AitItem& item : items_) out.push_back(item.source.get());
    return out;
  }

  // The benign sample and its order, fixed for every workload seed: one
  // scenario with an extra bystander thread, whose search stops at the
  // schedule cap, then kBenignRepeats rounds of three two-thread scenarios
  // (different seeds, window and salt knobs) whose k <= 3 frontier of 1,690
  // schedules finishes. Everything here keeps the run from measuring its own
  // draw: at equal knobs the frontier size swings 2-5x with the generator
  // seed and a capped search costs 13-30 s; a finishing search run before the
  // capped one (cold heap) took up to 2x longer than after it; a finishing
  // mix whose slots differ in cost puts the median where two slots meet. The
  // three finishing slots cost within 3% of each other, so the median is
  // taken over all of their samples.
  static std::vector<aitia::gen::GenOptions> BenignPlan() {
    struct Slot {
      uint64_t seed;
      int window, salt, extra_threads, lock_depth;
    };
    static constexpr Slot kCapped = {4, 0, 0, 1, 2};
    static constexpr Slot kFinishing[] = {{5, 0, 1, 0, 2}, {7, 0, 0, 0, 2}, {8, 1, 1, 0, 2}};
    auto options = [](const Slot& slot) {
      aitia::gen::GenOptions o;
      o.tmpl = aitia::gen::GenTemplate::kBenign;
      o.seed = slot.seed;
      o.knobs.window = slot.window;
      o.knobs.salt = slot.salt;
      o.knobs.extra_threads = slot.extra_threads;
      o.knobs.lock_depth = slot.lock_depth;
      return o;
    };
    std::vector<aitia::gen::GenOptions> plan = {options(kCapped)};
    for (int r = 0; r < kBenignRepeats; ++r) {
      for (const Slot& slot : kFinishing) plan.push_back(options(slot));
    }
    return plan;
  }

  // The benign plan items this process runs. Split over k > 1 processes,
  // process 0 runs the capped search and processes 1..k-1 every (k-1)-th
  // finishing search, so the run still diagnoses the plan once and the
  // finishing median pools k-1 processes: one process's finishing searches
  // all ran near 100 or near 135 ms, which moved the median of a
  // one-process run by 29% between runs.
  std::vector<size_t> BenignShare() const {
    std::vector<size_t> share;
    if (parts_ == 1) {
      for (size_t i = 0; i < items_.size(); ++i) share.push_back(i);
    } else if (part_ == 0) {
      share.push_back(0);
    } else {
      const auto stride = static_cast<size_t>(parts_ - 1);
      for (auto i = static_cast<size_t>(part_); i < items_.size(); i += stride) share.push_back(i);
    }
    return share;
  }

  void Add(BugScenario s, Reference ref) {
    AitItem item;
    item.ait = aitia::ScenarioToAit(s);
    item.source = std::make_shared<BugScenario>(std::move(s));
    item.ref = std::move(ref);
    items_.push_back(std::move(item));
  }

  // The CLI path: parse, DiagnoseScenario with default options, render.
  static bool Facade(const AitItem& item, AitiaReport& report, std::string& why) {
    aitia::StatusOr<BugScenario> parsed = aitia::ScenarioFromAitText(item.ait, item.ref.id + ".ait");
    if (!parsed.ok()) {
      why = parsed.status().ToString();
      return false;
    }
    report = aitia::DiagnoseScenario(*parsed);
    if (report.diagnosed) Render(*parsed, report);
    return true;
  }

  static bool Composed(const AitItem& item, Tracer* tracer, int64_t diag, PassResult& out,
                       AitiaReport& report, std::string& why) {
    Scope root(tracer, "diag", diag);
    aitia::StatusOr<BugScenario> parsed = [&] {
      Scope span(tracer, "ingest", diag, root.index());
      return aitia::ScenarioFromAitText(item.ait, item.ref.id + ".ait");
    }();
    out.counts["ingest.bytes"] += static_cast<double>(item.ait.size());
    if (!parsed.ok()) {
      why = parsed.status().ToString();
      return false;
    }
    // The options DiagnoseScenario derives from the scenario.
    aitia::LifsOptions lifs_options = AitiaOptions{}.lifs;
    if (parsed->truth.failure_type != aitia::FailureType::kNone) {
      lifs_options.target_type = parsed->truth.failure_type;
    }
    lifs_options.irq_lines = parsed->irq_lines;
    report.slices_tried = 1;
    const MetricsDelta delta;
    ComposedDiagnose(*parsed->image, parsed->slice, parsed->setup, lifs_options, tracer, diag,
                     root.index(), report, out.counts);
    FoldHealth(report);
    report.metrics = delta.Take();
    if (report.diagnosed) {
      Scope span(tracer, "report", diag, root.index());
      out.counts["report.bytes"] += static_cast<double>(Render(*parsed, report));
    }
    return true;
  }

  const bool benign_;
  const int part_;
  const int parts_;
  std::mt19937_64 rng_;
  std::vector<AitItem> items_;
};

// --- history: fuzz workload in, rendered report out -------------------------

struct HistoryItem {
  std::shared_ptr<BugScenario> scenario;
  aitia::FuzzWorkload workload;
  Reference ref;
};

class HistoryWorkload : public Workload {
 public:
  explicit HistoryWorkload(uint64_t seed) : Workload(seed), rng_(seed) {}

  void Setup() override {
    items_.clear();
    for (const aitia::ScenarioEntry& entry : aitia::AllScenarios()) {
      HistoryItem item;
      item.scenario = std::make_shared<BugScenario>(entry.make());
      item.workload = item.scenario->MakeWorkload();
      item.ref = CuratedReference(*item.scenario);
      items_.push_back(std::move(item));
    }
  }

  PassResult Run(double seconds, Tracer* tracer) override {
    PassResult out;
    int64_t next_diag = 0;
    out.elapsed_s = RunRounds(items_.size(), seconds, &rng_, [&](size_t i) {
      const HistoryItem& item = items_[i];
      const int64_t start = Tracer::NowNs();
      AitiaReport report;
      aitia::FailureType reported = aitia::FailureType::kNone;
      const bool found = tracer == nullptr
                             ? Facade(item, report, reported)
                             : Composed(item, tracer, next_diag++, out, report, reported);
      const double ms = static_cast<double>(Tracer::NowNs() - start) / 1e6;
      std::string why;
      Outcome outcome = Outcome::kOk;
      if (!found) {
        outcome = item.ref.needs_irq ? Outcome::kExpectedMiss : Outcome::kMissed;
        why = "fuzzer found no failure";
      } else {
        outcome = CheckHistoryReport(item.ref, report, reported, &why);
      }
      Record(out, ms, outcome, item.ref.id, why);
      AddProgramCounters(out, report.metrics);
    });
    return out;
  }

  // Each scenario is 1/28 of the samples and the slowest few overlap: p90
  // and p95 fall where two scenarios' latency bands meet and swung 20-30%
  // between runs. p99 sits inside the slowest scenario's band, with 8-12
  // samples beyond it at the 800-1,300 samples of a run.
  int tail_percentile() const override { return 99; }

 private:
  std::vector<const BugScenario*> Scenarios() const override {
    std::vector<const BugScenario*> out;
    for (const HistoryItem& item : items_) out.push_back(item.scenario.get());
    return out;
  }

  static aitia::FailureType ReportedType(const aitia::FuzzOutcome& fuzz) {
    return fuzz.history.failure.has_value() ? fuzz.history.failure->failure.type
                                            : aitia::FailureType::kNone;
  }

  static aitia::FuzzOptions FuzzSettings() {
    aitia::FuzzOptions options;
    options.first_seed = kFirstFuzzSeed;
    return options;
  }

  // The examples/diagnose front end: fuzz, BuildSlices, DiagnoseHistory,
  // render. Returns false when the fuzzer found no failure; `reported` is the
  // failure type of the crash it found.
  static bool Facade(const HistoryItem& item, AitiaReport& report, aitia::FailureType& reported) {
    const aitia::FuzzOutcome fuzz = aitia::FuzzUntilFailure(item.workload, FuzzSettings());
    if (!fuzz.found) return false;
    reported = ReportedType(fuzz);
    const std::vector<aitia::Slice> slices = aitia::BuildSlices(fuzz.history);
    report = aitia::DiagnoseHistory(*item.scenario->image, fuzz.history);
    if (report.diagnosed) Render(*item.scenario, report);
    return true;
  }

  static bool Composed(const HistoryItem& item, Tracer* tracer, int64_t diag, PassResult& out,
                       AitiaReport& report, aitia::FailureType& reported) {
    Scope root(tracer, "diag", diag);
    aitia::FuzzOutcome fuzz;
    {
      Scope span(tracer, "fuzz", diag, root.index());
      fuzz = aitia::FuzzUntilFailure(item.workload, FuzzSettings());
    }
    out.counts["fuzz.campaigns"] += 1;
    out.counts["fuzz.attempts"] += fuzz.attempts;
    if (!fuzz.found) return false;
    out.counts["fuzz.crashes"] += 1;
    reported = ReportedType(fuzz);

    const AitiaOptions defaults;
    const MetricsDelta delta;
    std::vector<aitia::Slice> slices;
    {
      Scope span(tracer, "trace", diag, root.index());
      slices = aitia::BuildSlices(fuzz.history, defaults.slicer);
    }
    out.counts["trace.histories"] += 1;
    out.counts["trace.slices"] += static_cast<double>(slices.size());
    if (slices.size() > defaults.max_slices) slices.resize(defaults.max_slices);

    // The options DiagnoseHistory derives from the history: LIFS matches the
    // exact reported crash.
    aitia::LifsOptions lifs_options = defaults.lifs;
    if (fuzz.history.failure.has_value()) lifs_options.target = fuzz.history.failure->failure;
    for (const aitia::Slice& slice : slices) {
      ++report.slices_tried;
      AitiaReport attempt;
      ComposedDiagnose(*item.scenario->image, slice.threads, slice.setup, lifs_options, tracer,
                       diag, root.index(), attempt, out.counts);
      if (attempt.diagnosed) {
        attempt.slices_tried = report.slices_tried;
        report = std::move(attempt);
        break;
      }
      if (!attempt.lifs.status.ok()) {
        report.status = attempt.lifs.status;
        report.degraded = true;
      }
    }
    out.counts["trace.slices_tried"] += static_cast<double>(report.slices_tried);
    FoldHealth(report);
    report.metrics = delta.Take();
    if (report.diagnosed) {
      Scope span(tracer, "report", diag, root.index());
      out.counts["report.bytes"] += static_cast<double>(Render(*item.scenario, report));
    }
    return true;
  }

  std::mt19937_64 rng_;
  std::vector<HistoryItem> items_;
};

// --- daemon: request lines in, terminal responses out -----------------------

struct DaemonItem {
  std::shared_ptr<BugScenario> scenario;  // the benchmark's own copy
  std::string line;                       // the request, without its id
  Reference ref;
};

// Flattens a nested JSON object of numbers into dotted names.
void Flatten(const aitia::svc::JsonValue& value, const std::string& prefix,
             std::map<std::string, double>& out) {
  using Kind = aitia::svc::JsonValue::Kind;
  if (value.kind() == Kind::kInt || value.kind() == Kind::kDouble) {
    out[prefix] += value.AsDouble();
    return;
  }
  for (const auto& [key, child] : value.fields()) {
    Flatten(child, prefix.empty() ? key : prefix + "." + key, out);
  }
}

class DaemonWorkload : public Workload {
 public:
  explicit DaemonWorkload(uint64_t seed) : Workload(seed) {}

  void Setup() override {
    daemon_.reset();
    warm_failures_.clear();
    warm_notes_.clear();
    corpus_.clear();
    pool_.clear();
    for (const aitia::ScenarioEntry& entry : aitia::AllScenarios()) {
      DaemonItem item;
      item.scenario = std::make_shared<BugScenario>(entry.make());
      item.ref = CuratedReference(*item.scenario);
      item.line = aitia::StrFormat(R"({"verb":"diagnose","scenario":"%s")", entry.id);
      corpus_.push_back(std::move(item));
    }

    std::vector<aitia::gen::GenTemplate> buggy;
    for (aitia::gen::GenTemplate t : aitia::gen::AllGenTemplates()) {
      if (t != aitia::gen::GenTemplate::kBenign) buggy.push_back(t);
    }
    for (const aitia::gen::GenOptions& options :
         aitia::gen::CorpusPlan(kDaemonPool, kDaemonPoolSeed, buggy)) {
      aitia::gen::GeneratedScenario g = aitia::gen::GenerateScenario(options);
      DaemonItem item;
      item.ref = GeneratedReference(g);
      item.line = aitia::StrFormat(R"({"verb":"diagnose","ait":"%s")",
                                   aitia::JsonEscape(aitia::ScenarioToAit(g.scenario)).c_str());
      item.scenario = std::make_shared<BugScenario>(std::move(g.scenario));
      pool_.push_back(std::move(item));
    }
    std::mt19937_64 rng(seed_);
    std::shuffle(corpus_.begin(), corpus_.end(), rng);
    std::shuffle(pool_.begin(), pool_.end(), rng);

    daemon_ = std::make_unique<aitia::svc::Daemon>(aitia::svc::DaemonOptions{});
    // Fill the result cache: every corpus id is a hit from here on.
    for (const DaemonItem& item : corpus_) {
      std::string why;
      const DaemonAnswer answer =
          CheckDaemonResponse(item.ref, *item.scenario->image,
                              daemon_->HandleLine(item.line + R"(,"id":"warm"})"), &why);
      if (answer.outcome != Outcome::kOk) {
        warm_failures_.push_back(answer.outcome);
        warm_notes_.push_back(item.ref.id + " (cache fill): " + why);
      }
    }
  }

  PassResult Run(double seconds, Tracer* tracer) override {
    PassResult out;
    std::atomic<int64_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex mu;  // guards `out`
    auto client = [&] {
      PassResult mine;
      std::vector<double> overhead;
      for (int64_t i = next++; !stop.load(std::memory_order_relaxed); i = next++) {
        const DaemonItem& item = Pick(i);
        const int64_t start = Tracer::NowNs();
        std::string response;
        {
          Scope root(tracer, "diag", i);
          const std::string line = item.line + aitia::StrFormat(R"(,"id":"r%lld"})",
                                                                static_cast<long long>(i));
          Scope span(tracer, "svc", i, root.index());
          response = daemon_->HandleLine(line);
        }
        const double ms = static_cast<double>(Tracer::NowNs() - start) / 1e6;
        std::string why;
        const DaemonAnswer answer =
            CheckDaemonResponse(item.ref, *item.scenario->image, response, &why);
        Record(mine, ms, answer.outcome, item.ref.id, why);
        mine.counts["svc.requests"] += 1;
        mine.counts["svc.cache_hits"] += answer.cache_hit ? 1 : 0;
        if (!answer.cache_hit && answer.outcome == Outcome::kOk) {
          mine.svc_overhead_ms.push_back(ms - answer.pipeline_seconds * 1e3);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      Merge(mine, out);
    };
    aitia::Stopwatch watch;
    std::vector<std::thread> clients;
    for (int c = 0; c < kDaemonClients; ++c) clients.emplace_back(client);
    while (watch.ElapsedSeconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (std::thread& t : clients) t.join();
    out.elapsed_s = watch.ElapsedSeconds();

    // Cache-fill answers were checked too; they count as answers, not as
    // latency samples.
    out.outcomes.insert(out.outcomes.end(), warm_failures_.begin(), warm_failures_.end());
    out.notes.insert(out.notes.end(), warm_notes_.begin(), warm_notes_.end());
    aitia::StatusOr<aitia::svc::JsonValue> metrics =
        aitia::svc::ParseJson(daemon_->HandleLine(R"({"verb":"metrics","id":"m"})"));
    if (metrics.ok() && metrics->Find("metrics") != nullptr) {
      Flatten(*metrics->Find("metrics"), "", out.program_counters);
    }
    return out;
  }

  int tail_percentile() const override { return 99; }

 private:
  std::vector<const BugScenario*> Scenarios() const override {
    std::vector<const BugScenario*> out;
    for (const DaemonItem& item : corpus_) out.push_back(item.scenario.get());
    for (const DaemonItem& item : pool_) out.push_back(item.scenario.get());
    return out;
  }

  const DaemonItem& Pick(int64_t i) const {
    const auto n = static_cast<size_t>(i / kDaemonCorpusStride);
    if (i % kDaemonCorpusStride == 0) return corpus_[n % corpus_.size()];
    return pool_[static_cast<size_t>(i) % pool_.size()];
  }

  static void Merge(PassResult& from, PassResult& into) {
    into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(), from.latency_ms.end());
    into.outcomes.insert(into.outcomes.end(), from.outcomes.begin(), from.outcomes.end());
    for (std::string& note : from.notes) {
      if (into.notes.size() < kMaxNotes) into.notes.push_back(std::move(note));
    }
    for (const auto& [name, value] : from.counts) into.counts[name] += value;
    into.svc_overhead_ms.insert(into.svc_overhead_ms.end(), from.svc_overhead_ms.begin(),
                                from.svc_overhead_ms.end());
  }

  std::vector<DaemonItem> corpus_;
  std::vector<DaemonItem> pool_;
  std::vector<Outcome> warm_failures_;
  std::vector<std::string> warm_notes_;
  // Declared last: destroyed (drained) before the items its workers read.
  std::unique_ptr<aitia::svc::Daemon> daemon_;
};

}  // namespace

// Seeded random-schedule runs of each scenario's slice (after its setup).
void Workload::SimPass(double seconds, std::map<std::string, double>& counts) const {
  const std::vector<const BugScenario*> scenarios = Scenarios();
  aitia::Stopwatch watch;
  int64_t steps = 0;
  uint64_t run = 0;
  do {
    for (const BugScenario* s : scenarios) {
      aitia::KernelSim kernel(s->image.get(), s->slice, s->setup);
      aitia::RandomPolicy policy(seed_ * 1000003 + run++);
      steps += aitia::RunToCompletion(kernel, policy).steps;
    }
  } while (watch.ElapsedSeconds() < seconds);
  counts["sim.steps"] += static_cast<double>(steps);
  counts["sim.seconds"] += watch.ElapsedSeconds();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"corpus", "benign", "history", "daemon"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, int part,
                                       int parts) {
  if (name == "corpus") return std::make_unique<AitWorkload>(false, seed, part, parts);
  if (name == "benign") return std::make_unique<AitWorkload>(true, seed, part, parts);
  if (name == "history") return std::make_unique<HistoryWorkload>(seed);
  if (name == "daemon") return std::make_unique<DaemonWorkload>(seed);
  return nullptr;
}

}  // namespace scoreboard
