// The campaign core (DESIGN.md §10): the one trial loop behind the fuzz,
// certify, batch and dist campaigns.  Every campaign samples the "for
// every schedule" quantifier the same way — a master seed expands into one
// sub-seed per trial, each trial runs independently from its sub-seed,
// and the report concatenates the trials' chunks in trial order — so the
// scaffolding lives here once and a driver supplies only a backend:
//
//   struct MyBackend {
//     using Failure = MyFailure;            // the driver's failure record
//     static constexpr const char* kPrefix = "my";  // metric/span prefix
//     static constexpr bool kParallelSafe = true;   // false: run inline
//     TrialResult<Failure> trial(std::uint64_t index, std::uint64_t seed,
//                                obs::TraceSink* trace);
//   };
//
// The core pre-draws the sub-seeds, gives every trial its own result
// slot, tallies progress, runs the trials on a WorkerPool, records a
// `<prefix>.trial` span per trial (only when the pool is single-threaded:
// the TraceSink is not thread-safe) into the `<prefix>.trial_us`
// histogram, and merges the slots in trial order.  With a registry it
// also counts `<prefix>.trials` / `.trials.ok` / `.trials.censored` /
// `.trials.failures` and sets `<prefix>.trials_per_sec` and the
// `<prefix>.pool.*` worker metrics.  The merged text, tallies and failure
// list are therefore byte-identical for any worker count, provided the
// backend's trial() is a pure function of (index, seed).  A backend that
// cannot share its process with other threads (dist forks) sets
// kParallelSafe = false and the core runs it inline, in trial order.
//
// Failures that carry a replayable witness describe its file with a
// static `kWitness` (WitnessFile) and a `save(path)` member; the core's
// save_witness / persist_witnesses are then the only code that names,
// writes, or reports witness files.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "obs/span.hpp"
#include "runtime/parallel.hpp"
#include "runtime/worker_pool.hpp"
#include "util/artifacts.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

/// Running tallies handed to a campaign's on_progress callback.
using CampaignProgress = TallyProgress;

/// What to run: the fields every campaign driver's options share.  The
/// drivers' *Options structs derive from it (and from CampaignPacing when
/// they run on a pool), so callers keep writing `options.seed = ...`.
struct CampaignSpec {
  std::uint64_t seed = 1;
  std::uint64_t trials = 200;
  NodeId n_min = 4;
  NodeId n_max = 24;
  /// Subset of the driver's algorithm names; empty = all of them.
  std::vector<std::string> algos;
  /// Observability (DESIGN.md §9), optional and decision-free: reports
  /// are byte-identical whether or not these are attached.  Both must
  /// outlive the campaign.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;

  /// The algorithms to draw from: `algos`, or `all` when empty.  Checks
  /// the size range and that every name is one of `all`.
  [[nodiscard]] std::vector<std::string> resolve_algos(
      const std::vector<std::string>& all) const {
    FTCC_EXPECTS(n_min >= 3 && n_min <= n_max);
    const std::vector<std::string>& chosen = algos.empty() ? all : algos;
    for (const auto& name : chosen)
      FTCC_EXPECTS(std::find(all.begin(), all.end(), name) != all.end());
    return chosen;
  }

  /// "seed=S trials=T n=[a,b] algos=x,y": the report-header fields the
  /// fuzz, certify and dist campaigns print.
  [[nodiscard]] std::string header_fields(
      const std::vector<std::string>& resolved) const {
    std::string out = "seed=" + std::to_string(seed) +
                      " trials=" + std::to_string(trials) + " n=[" +
                      std::to_string(n_min) + "," + std::to_string(n_max) +
                      "] algos=";
    for (std::size_t i = 0; i < resolved.size(); ++i)
      out += (i ? "," : "") + resolved[i];
    return out;
  }
};

/// How to run it: worker count and progress reporting.
struct CampaignPacing {
  /// Worker threads (runtime/worker_pool.hpp); 1 = inline on the caller.
  /// Any value yields the same report (see the file comment).
  unsigned jobs = 1;
  /// Called after every `progress_every`-th trial and after the last one;
  /// snapshots are monotone in `done` even under parallel jobs.
  std::function<void(const CampaignProgress&)> on_progress;
  std::uint64_t progress_every = 500;
};

/// One trial's contribution: its outcome, its report chunk (complete
/// lines), and its failure record when it failed.
template <typename Failure>
struct TrialResult {
  TrialTally::Outcome outcome = TrialTally::Outcome::ok;
  std::string text;
  std::optional<Failure> failure;
};

/// The merged campaign, in trial order.
template <typename Failure>
struct CampaignRun {
  std::uint64_t trials = 0;
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;  ///< budget exhausted without violation
  std::vector<Failure> failures;
  /// The caller's header, then every trial's chunk in trial order (the
  /// drivers append their summary line).
  std::string text;
};

template <typename B>
concept CampaignBackend =
    requires(B& backend, std::uint64_t index, std::uint64_t seed,
             obs::TraceSink* trace) {
      typename B::Failure;
      { B::kPrefix } -> std::convertible_to<const char*>;
      { B::kParallelSafe } -> std::convertible_to<bool>;
      {
        backend.trial(index, seed, trace)
      } -> std::same_as<TrialResult<typename B::Failure>>;
    };

/// Run `spec.trials` trials of `backend` and merge them after `header`.
template <CampaignBackend Backend>
[[nodiscard]] CampaignRun<typename Backend::Failure> run_trials(
    Backend& backend, const CampaignSpec& spec, const CampaignPacing& pacing,
    std::string header) {
  using Failure = typename Backend::Failure;
  const std::string prefix = Backend::kPrefix;
  obs::Histogram* trial_us = nullptr;
  obs::PoolMetrics pool_metrics;
  WorkerPool pool(Backend::kParallelSafe ? pacing.jobs : 1);
  if (spec.metrics != nullptr) {
    trial_us = &spec.metrics->histogram(prefix + ".trial_us");
    pool_metrics = obs::PoolMetrics::create(*spec.metrics, prefix + ".pool");
    pool.attach_metrics(&pool_metrics);
  }
  obs::Stopwatch campaign_watch;

  // Every trial's sub-seed, pre-drawn in trial order: which trials run and
  // everything they draw is independent of the worker count.
  std::vector<std::uint64_t> seeds(spec.trials);
  Xoshiro256 master(spec.seed);
  for (auto& s : seeds) s = master();

  std::vector<TrialResult<Failure>> slots(spec.trials);
  TrialTally tally(spec.trials, pacing.progress_every, pacing.on_progress);
  obs::TraceSink* trace = pool.jobs() == 1 ? spec.trace : nullptr;
  const std::string span_name = prefix + ".trial";
  pool.run(spec.trials, [&](std::size_t index, unsigned /*worker*/) {
    obs::Span span(trace, span_name, prefix, trial_us);
    TrialResult<Failure>& slot = slots[index];
    slot = backend.trial(index, seeds[index], trace);
    tally.record(slot.outcome);
  });

  // Deterministic merge: exactly what a sequential loop would emit,
  // whatever worker ran whatever trial.
  CampaignRun<Failure> run;
  run.text = std::move(header);
  for (TrialResult<Failure>& slot : slots) {
    ++run.trials;
    run.text += slot.text;
    switch (slot.outcome) {
      case TrialTally::Outcome::ok: ++run.ok; break;
      case TrialTally::Outcome::censored: ++run.censored; break;
      case TrialTally::Outcome::failed:
        FTCC_EXPECTS(slot.failure.has_value());
        run.failures.push_back(std::move(*slot.failure));
        break;
    }
  }
  if (spec.metrics != nullptr) {
    obs::Registry& reg = *spec.metrics;
    reg.counter(prefix + ".trials").inc(run.trials);
    reg.counter(prefix + ".trials.ok").inc(run.ok);
    reg.counter(prefix + ".trials.censored").inc(run.censored);
    reg.counter(prefix + ".trials.failures").inc(run.failures.size());
    const std::uint64_t campaign_us = campaign_watch.elapsed_us();
    if (campaign_us > 0)
      reg.gauge(prefix + ".trials_per_sec")
          .set(static_cast<double>(run.trials) * 1e6 /
               static_cast<double>(campaign_us));
  }
  return run;
}

/// How a failure's witness file is named and reported:
/// `<dir>/<stem>-<trial><ext>`, announced as "<label> trial N: path".
struct WitnessFile {
  const char* stem;
  const char* ext;
  const char* label;
};

template <typename F>
concept WitnessFailure = requires(const F& failure, const std::string& path) {
  { F::kWitness } -> std::convertible_to<WitnessFile>;
  { failure.trial } -> std::convertible_to<std::uint64_t>;
  { failure.path } -> std::convertible_to<std::string>;
  { failure.save(path) } -> std::same_as<bool>;
};

template <WitnessFailure F>
[[nodiscard]] std::string witness_path(const std::string& dir,
                                       const F& failure) {
  return dir + "/" + F::kWitness.stem + "-" + std::to_string(failure.trial) +
         F::kWitness.ext;
}

/// "<label> trial N: <path>": how reports name a saved witness.
template <WitnessFailure F>
[[nodiscard]] std::string witness_line(const F& failure) {
  return std::string(F::kWitness.label) + " trial " +
         std::to_string(failure.trial) + ": " + failure.path + "\n";
}

/// Save one failure's witness into `dir` (created if needed) while its
/// trial runs; returns the report line.  A failed save must not kill the
/// campaign: the line becomes a warning and `path` stays empty, so
/// persist_witnesses gets another chance after the run.
template <WitnessFailure F>
[[nodiscard]] std::string save_witness(F& failure, const std::string& dir) {
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  failure.path = witness_path(dir, failure);
  const std::string line = witness_line(failure);
  if (failure.save(failure.path)) return line;
  failure.path.clear();
  return "warning: cannot save " + line;
}

/// Give every failure still without a witness file one in
/// `fallback_dir` (created if needed), writing its witness line to `out`
/// — so a failing run always names its replay files, also when no
/// artifact directory was given.  On an unusable destination it stops
/// and returns false with `error` naming the problem; the caller prints
/// the report it already has and exits 2.
template <WitnessFailure F>
[[nodiscard]] bool persist_witnesses(std::vector<F>& failures,
                                     const std::string& fallback_dir,
                                     std::ostream& out, std::string& error) {
  bool probed = false;
  for (F& failure : failures) {
    if (!failure.path.empty()) continue;
    if (!probed) {
      if (auto problem = probe_dir_writable(fallback_dir)) {
        error = std::move(*problem);
        return false;
      }
      probed = true;
    }
    const std::string path = witness_path(fallback_dir, failure);
    if (!failure.save(path)) {
      error = "cannot write " + std::string(F::kWitness.label) + " '" +
              path + "'";
      return false;
    }
    failure.path = path;
    out << witness_line(failure);
  }
  return true;
}

}  // namespace ftcc
