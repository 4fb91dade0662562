#include "fuzz/certify_campaign.hpp"

#include <algorithm>
#include <sstream>

#include "fuzz/campaign.hpp"
#include "fuzz/dispatch.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

/// One threaded trial's configuration, all drawn from the trial seed (the
/// same family spread as the schedule campaign's generate_trial).
struct CertifyTrial : CycleTrial {
  bool wrapped = false;
  std::vector<ThreadedFault> faults;
};

CertifyTrial generate_certify_trial(const std::vector<std::string>& algos,
                                    NodeId n_min, NodeId n_max,
                                    std::uint64_t trial_seed,
                                    bool inject_faults) {
  Xoshiro256 rng(trial_seed);
  CertifyTrial cfg;
  draw_cycle_trial(cfg, algos, n_min, n_max, rng);
  if (inject_faults && rng.chance(0.6)) {
    cfg.wrapped = rng.chance(0.5);
    const std::uint64_t count = 1 + rng.below(2);
    for (std::uint64_t v : sample_distinct(cfg.n, count, rng)) {
      ThreadedFault fault;
      fault.node = static_cast<NodeId>(v);
      fault.after_publishes = rng.below(4);
      if (rng.chance(0.5)) {
        fault.kind = ThreadedFault::Kind::corrupt_words;
        fault.mask = rng() | 1;  // never a no-op corruption
      } else {
        fault.kind = ThreadedFault::Kind::stall_mid_publish;
      }
      cfg.faults.push_back(fault);
    }
    std::sort(cfg.faults.begin(), cfg.faults.end(),
              [](const ThreadedFault& a, const ThreadedFault& b) {
                return a.node < b.node;
              });
  }
  return cfg;
}

}  // namespace

CertifyReport certify_event_log(const EventLogArtifact& artifact) {
  FTCC_EXPECTS(known_algorithm(artifact.algo));
  const Graph graph = artifact.graph();
  return with_campaign_algorithm(
      artifact.algo, artifact.wrapped,
      [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
        return certify_log(algo, graph, artifact.ids, artifact.log);
      });
}

namespace {

/// The certify campaign's trial body for the campaign core.
struct CertifyBackend {
  using Failure = CertifyCampaignFailure;
  static constexpr const char* kPrefix = "certify";
  static constexpr bool kParallelSafe = true;

  const CertifyCampaignOptions& options;
  std::vector<std::string> algos;
  /// Per-trial "certified at split semantics only" flags: each trial
  /// writes its own slot, the report counts them after the run.
  std::vector<std::uint8_t> split = {};
  // Resolved observability handles (see campaign.cpp): decision-free.
  obs::ThreadedMetrics threaded_metrics = {};
  obs::Histogram* events = nullptr;
  obs::Histogram* rounds = nullptr;
  obs::Histogram* stage_us[5] = {};

  TrialResult<Failure> trial(std::uint64_t index, std::uint64_t seed,
                             obs::TraceSink* trace);
};

TrialResult<CertifyCampaignFailure> CertifyBackend::trial(
    std::uint64_t index, std::uint64_t seed, obs::TraceSink* trace) {
  TrialResult<Failure> slot;
  std::ostringstream ts;
  const CertifyTrial cfg = generate_certify_trial(
      algos, options.n_min, options.n_max, seed, options.inject_faults);
  const Graph graph = cfg.graph();
  ThreadedOptions topts;
  topts.max_read_attempts = options.max_read_attempts;
  topts.faults = cfg.faults;

  HbLog log;
  const CertifyReport verdict = with_campaign_algorithm(
      cfg.algo, cfg.wrapped,
      [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
        ThreadedExecutor<decltype(algo)> ex(algo, graph, cfg.ids, topts);
        ex.attach_hb_log(&log);
        if (options.metrics != nullptr) ex.attach_metrics(&threaded_metrics);
        {
          obs::Span run_span(trace, "threaded.run", "certify");
          (void)ex.run(options.max_rounds);
        }
        return certify_log(algo, graph, cfg.ids, log, trace);
      });

  if (events) {
    events->observe(verdict.events);
    rounds->observe(verdict.rounds);
    for (std::size_t i = 0; i < 5; ++i)
      stage_us[i]->observe(verdict.stage_us[i]);
  }
  ts << "trial " << index << " algo=" << cfg.algo
     << " graph=" << cfg.graph_kind << " n=" << cfg.n
     << " ids=" << cfg.ids_family << " wrapped=" << (cfg.wrapped ? 1 : 0)
     << " faults=" << cfg.faults.size() << " -> ";
  if (verdict.ok()) {
    split[index] = verdict.atomic ? 0 : 1;
    ts << "certified " << (verdict.atomic ? "atomic" : "split")
       << " events=" << verdict.events << " rounds=" << verdict.rounds
       << "\n";
  } else {
    CertifyCampaignFailure failure;
    failure.trial = index;
    const auto& first = verdict.violations.front();
    failure.verdict = "[" + first.kind + "] " + first.message;
    failure.artifact.algo = cfg.algo;
    failure.artifact.graph_kind = cfg.graph_kind;
    failure.artifact.n = cfg.n;
    failure.artifact.ids = cfg.ids;
    failure.artifact.wrapped = cfg.wrapped;
    failure.artifact.max_read_attempts = options.max_read_attempts;
    failure.artifact.faults = cfg.faults;
    failure.artifact.log = log;
    failure.artifact.seed = options.seed;
    failure.artifact.verdict = failure.verdict;
    ts << "FAIL " << failure.verdict << "\n";
    if (!options.artifact_dir.empty())
      ts << save_witness(failure, options.artifact_dir);
    slot.outcome = TrialTally::Outcome::failed;
    slot.failure = std::move(failure);
  }
  slot.text = ts.str();
  return slot;
}

}  // namespace

CertifyCampaignReport run_certify_campaign(
    const CertifyCampaignOptions& options) {
  CertifyBackend backend{options, options.resolve_algos(campaign_algorithms())};
  backend.split.assign(options.trials, 0);
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    backend.events = &reg.histogram("certify.events");
    backend.rounds = &reg.histogram("certify.rounds");
    static constexpr const char* kStageNames[5] = {
        "certify.stage.direct_us", "certify.stage.graph_us",
        "certify.stage.linearize_us", "certify.stage.reexecute_us",
        "certify.stage.collapse_us"};
    for (std::size_t i = 0; i < 5; ++i)
      backend.stage_us[i] = &reg.histogram(kStageNames[i]);
    backend.threaded_metrics = obs::ThreadedMetrics::create(reg);
  }

  std::ostringstream header;
  header << "ftcc-certify report v1\n"
         << options.header_fields(backend.algos)
         << " faults=" << (options.inject_faults ? 1 : 0)
         << " max_read_attempts=" << options.max_read_attempts << "\n";
  CampaignRun<CertifyCampaignFailure> run =
      run_trials(backend, options, options, header.str());

  CertifyCampaignReport report;
  report.trials = run.trials;
  report.certified = run.ok;
  report.split = static_cast<std::uint64_t>(
      std::count(backend.split.begin(), backend.split.end(), 1));
  report.atomic = report.certified - report.split;
  report.failures = std::move(run.failures);
  report.text = std::move(run.text);
  report.text += "summary trials=" + std::to_string(report.trials) +
                 " certified=" + std::to_string(report.certified) +
                 " atomic=" + std::to_string(report.atomic) +
                 " split=" + std::to_string(report.split) +
                 " failures=" + std::to_string(report.failures.size()) + "\n";
  if (options.metrics != nullptr) {
    options.metrics->counter("certify.trials.certified").inc(report.certified);
    options.metrics->counter("certify.trials.atomic").inc(report.atomic);
    options.metrics->counter("certify.trials.split").inc(report.split);
  }
  return report;
}

}  // namespace ftcc
