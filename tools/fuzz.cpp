// tools/fuzz — drive a schedule-fuzzing campaign, the threaded
// certification campaign, or replay a stored counterexample artifact.
//
//   fuzz --seed=42 --trials=500 --nmax=32 --out=artifacts
//   fuzz --seed=7 --inject=no-termination --trials=20   # demo the shrinker
//   fuzz --seed=42 --inject=mixed --trials=10000        # faults, wrapped
//   fuzz --seed=42 --inject=corrupt --raw               # expect violations
//   fuzz --seed=42 --trials=10000 --jobs=8              # parallel campaign
//   fuzz --certify --seed=42 --trials=2000              # HB-certify threads
//   fuzz --certify --inject=threaded --trials=2000      # ... with faults
//   fuzz --batched --trials=300 --nmax=256              # batch vs sequential
//   fuzz --replay=artifacts/fail-3.sched
//
// The schedule-campaign report written to stdout is a deterministic
// function of the flags *excluding* --jobs: two invocations with the same
// seed produce byte-identical output for any worker count (trial sub-seeds
// are pre-drawn and results merge in trial order — see CampaignOptions).
// (--certify trial *configurations* are seed-deterministic too, but the
// OS interleavings are not, by design.)
// A failing run always names its replay artifacts: if --out was not
// given they are saved under fuzz-artifacts/ (schedules) or
// race-witnesses/ (event logs); when that is impossible (say, a regular
// file of that name is in the way) the report is still printed and the
// exit status is 2.
// --batched runs the batch-vs-sequential differential campaign on the
// same campaign core: --jobs, --follow, --progress, --trace and --metrics
// apply, its report is byte-identical for any --jobs, and it refuses
// --inject, --raw and --out.
// Exit status: 0 = no violations, 1 = violations found (or replay failed
// to reproduce), 2 = usage or artifact error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/certify_campaign.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "runtime/worker_pool.hpp"
#include "scale/batch_campaign.hpp"
#include "util/artifacts.hpp"
#include "util/cli.hpp"

namespace {

/// Overwriting progress line, shown only on an interactive stdout (CI logs
/// and pipes stay clean).  The final call erases itself so the report text
/// starts on a fresh line.
void print_progress(const ftcc::CampaignProgress& p) {
  if (p.done == p.total) {
    std::printf("\r\033[2K");
  } else {
    std::printf("\r[%llu/%llu] ok=%llu censored=%llu failures=%llu",
                static_cast<unsigned long long>(p.done),
                static_cast<unsigned long long>(p.total),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.censored),
                static_cast<unsigned long long>(p.failures));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("seed", std::uint64_t{1}, "master seed; every trial derives from it")
      .flag("trials", std::uint64_t{200}, "number of fuzz trials")
      .flag("nmin", std::uint64_t{4}, "smallest graph size")
      .flag("nmax", std::uint64_t{24}, "largest graph size")
      .flag("algo", std::string("all"),
            "algorithm: all, six, five, fast5, delta2, fast6")
      .flag("out", std::string(""),
            "directory for failure artifacts (empty: don't write)")
      .flag("shrink", true, "delta-debug failures to minimal witnesses")
      .flag("inject", std::string("none"),
            "fault to inject: none, no-termination (broken invariant), "
            "corrupt, recover, mixed (real register/crash-recovery faults)")
      .flag("raw", false,
            "run fault trials without the Recovering<> wrapper (violations "
            "expected under corruption)")
      .flag("certify", false,
            "run ThreadedExecutor trials and certify each against the "
            "state model via the happens-before log (see tools/race)")
      .flag("batched", false,
            "run the batch-vs-sequential differential campaign instead "
            "(src/scale): BatchExecutor must match Executor field for "
            "field on every trial")
      .flag("replay", std::string(""),
            "replay a stored .sched artifact instead of fuzzing")
      .flag("metrics", std::string(""),
            "write campaign metrics (ftcc-metrics-v1 JSONL) to this path; "
            "aggregate or diff with tools/report")
      .flag("trace", std::string(""),
            "write per-trial / certifier-stage spans as a Chrome trace "
            "(load in Perfetto) to this path")
      .flag("progress", true,
            "overwriting progress line every 500 trials (interactive "
            "stdout only; pipes and CI logs never see it)")
      .flag("follow", false,
            "stream ftcc-metrics-v1 progress snapshot lines to stdout as "
            "the campaign runs (machine-readable; validate with "
            "tools/report --check)")
      .flag("jobs", std::uint64_t{0},
            "worker threads for the campaign (0 = all hardware cores; "
            "the report is byte-identical for any value)");
  if (!cli.parse(argc, argv)) return 2;

  const bool certify = cli.get_bool("certify");
  const std::string replay_path = cli.get_string("replay");
  const std::string inject_name = cli.get_string("inject");
  ftcc::InjectedFault inject = ftcc::InjectedFault::none;
  ftcc::FaultMode fault_mode = ftcc::FaultMode::none;
  bool threaded_faults = false;
  if (inject_name == "none") {
    // defaults
  } else if (certify) {
    // The certify campaign's only fault class is the threaded publish-point
    // one; accept "threaded" (or any of the register-fault names) to arm it.
    if (inject_name != "threaded" && inject_name != "corrupt" &&
        inject_name != "mixed") {
      std::cerr << "unknown --inject value '" << inject_name
                << "' for --certify (use threaded)\n";
      return 2;
    }
    threaded_faults = true;
  } else if (inject_name == "no-termination") {
    inject = ftcc::InjectedFault::no_termination;
  } else if (inject_name == "corrupt") {
    fault_mode = ftcc::FaultMode::corrupt;
  } else if (inject_name == "recover") {
    fault_mode = ftcc::FaultMode::recover;
  } else if (inject_name == "mixed") {
    fault_mode = ftcc::FaultMode::mixed;
  } else {
    std::cerr << "unknown --inject value '" << inject_name << "'\n";
    return 2;
  }

  if (!replay_path.empty()) {
    std::string error;
    const auto artifact = ftcc::load_schedule(replay_path, &error);
    if (!artifact) {
      std::cerr << "cannot load artifact: " << error << "\n";
      return 2;
    }
    if (!ftcc::known_algorithm(artifact->algo)) {
      std::cerr << "artifact names unknown algorithm '" << artifact->algo
                << "'\n";
      return 2;
    }
    const std::string violation = ftcc::replay_violation(*artifact, inject);
    std::cout << "replay " << replay_path << " algo=" << artifact->algo
              << " n=" << artifact->n << " steps=" << artifact->sigmas.size()
              << "\n";
    if (violation.empty()) {
      std::cout << "clean: no invariant violation reproduced\n";
      return 1;  // a stored counterexample that no longer fails is news
    }
    std::cout << "reproduced: " << violation << "\n";
    return 0;
  }

  // The schedule campaign's default n range is sized for sequential
  // replay; threads are costlier, so --certify caps nmax.  The range is
  // validated after the cap.
  constexpr ftcc::NodeId kCertifyMaxN = 12;
  const auto n_min = static_cast<ftcc::NodeId>(cli.get_u64("nmin"));
  const auto n_max_flag = static_cast<ftcc::NodeId>(cli.get_u64("nmax"));
  const ftcc::NodeId n_max =
      certify ? std::min(n_max_flag, kCertifyMaxN) : n_max_flag;
  if (n_min < 3 || n_min > n_max) {
    std::cerr << "invalid range --nmin=" << n_min << " --nmax=" << n_max_flag
              << " (need 3 <= nmin <= nmax";
    if (certify) std::cerr << "; --certify caps nmax at " << kCertifyMaxN;
    std::cerr << ")\n";
    return 2;
  }
  const std::string algo_flag = cli.get_string("algo");
  if (algo_flag != "all" && !ftcc::known_algorithm(algo_flag)) {
    std::cerr << "unknown --algo value '" << algo_flag << "'\n";
    return 2;
  }

  const bool batched = cli.get_bool("batched");
  if (batched) {
    if (algo_flag != "all" && !ftcc::known_batch_algorithm(algo_flag)) {
      std::cerr << "--batched supports only delta2 and fast6 (got '"
                << algo_flag << "')\n";
      return 2;
    }
    // The differential campaign has no fault injection, no wrapper and no
    // witness files: refuse those flags instead of ignoring them.
    if (inject_name != "none" || cli.get_bool("raw") ||
        !cli.get_string("out").empty()) {
      std::cerr << "--batched takes no --inject, --raw or --out\n";
      return 2;
    }
  }

  // Observability plumbing shared by every campaign kind.  The registry
  // and sink live here so they outlive the campaign; files are written
  // after the run (write failures are usage errors, not fuzz verdicts).
  const std::string metrics_path = cli.get_string("metrics");
  const std::string trace_path = cli.get_string("trace");

  // Fail fast on unwritable destinations — a campaign whose artifacts,
  // metrics, or trace cannot land anywhere must not run for an hour
  // first and lose everything at the final write.
  const std::string out_dir = cli.get_string("out");
  if (!out_dir.empty()) {
    if (const auto error = ftcc::probe_dir_writable(out_dir)) {
      std::cerr << *error << "\n";
      return 2;
    }
  }
  for (const std::string& path : {metrics_path, trace_path}) {
    if (path.empty()) continue;
    if (const auto error = ftcc::probe_file_writable(path)) {
      std::cerr << *error << "\n";
      return 2;
    }
  }
  const std::uint64_t jobs_flag = cli.get_u64("jobs");
  const unsigned jobs = jobs_flag == 0
                            ? ftcc::hardware_workers()
                            : static_cast<unsigned>(jobs_flag);
  if (!trace_path.empty() && jobs > 1)
    std::cerr << "note: trace spans are recorded only at --jobs=1 "
                 "(the sink is single-threaded); running with --jobs="
              << jobs << "\n";
  ftcc::obs::Registry registry;
  ftcc::obs::TraceSink trace;
  const bool follow = cli.get_bool("follow");
  const bool show_progress =
      !follow && cli.get_bool("progress") && isatty(fileno(stdout)) != 0;
  const auto follow_progress = [&](const ftcc::CampaignProgress& p) {
    std::cout << ftcc::obs::progress_line(
        {{"done", p.done},
         {"total", p.total},
         {"ok", p.ok},
         {"censored", p.censored},
         {"failures", p.failures}},
        {{"tool", "fuzz"}, {"seed", std::to_string(cli.get_u64("seed"))},
         {"inject", inject_name}});
    std::cout.flush();
  };
  const auto write_observability = [&](const char* mode) -> bool {
    if (!metrics_path.empty()) {
      const std::map<std::string, std::string> meta{
          {"tool", "fuzz"},
          {"mode", mode},
          {"seed", std::to_string(cli.get_u64("seed"))},
          {"trials", std::to_string(cli.get_u64("trials"))},
          {"algo", algo_flag},
          {"inject", inject_name}};
      if (!ftcc::obs::write_metrics_jsonl(metrics_path, registry, meta)) {
        std::cerr << "cannot write metrics file " << metrics_path << "\n";
        return false;
      }
    }
    if (!trace_path.empty() && !trace.write(trace_path)) {
      std::cerr << "cannot write trace file " << trace_path << "\n";
      return false;
    }
    return true;
  };

  // The CampaignSpec / CampaignPacing fields every campaign kind takes.
  const auto fill_common = [&](ftcc::CampaignSpec& spec,
                               ftcc::CampaignPacing& pacing) {
    spec.seed = cli.get_u64("seed");
    spec.trials = cli.get_u64("trials");
    spec.n_min = n_min;
    spec.n_max = n_max;
    if (algo_flag != "all") spec.algos = {algo_flag};
    if (!metrics_path.empty()) spec.metrics = &registry;
    if (!trace_path.empty()) spec.trace = &trace;
    pacing.jobs = jobs;
    if (follow) pacing.on_progress = follow_progress;
    else if (show_progress) pacing.on_progress = print_progress;
  };
  // In --follow mode stdout carries only the ftcc-metrics-v1 stream;
  // the report moves to stderr (see tools/dist.cpp for the same split).
  std::ostream& report_out = follow ? std::cerr : std::cout;

  if (batched) {
    ftcc::BatchCampaignOptions options;
    fill_common(options, options);
    const ftcc::BatchCampaignReport report = ftcc::run_batch_campaign(options);
    report_out << report.text;
    if (!write_observability("batched")) return 2;
    return report.mismatches.empty() ? 0 : 1;
  }

  if (certify) {
    ftcc::CertifyCampaignOptions options;
    fill_common(options, options);
    options.artifact_dir = out_dir;
    options.inject_faults = threaded_faults;
    ftcc::CertifyCampaignReport report = ftcc::run_certify_campaign(options);
    report_out << report.text;
    std::string error;
    const bool persisted = ftcc::persist_witnesses(
        report.failures, "race-witnesses", report_out, error);
    if (!persisted)
      std::cerr << "cannot persist witnesses: " << error << "\n";
    if (!write_observability("certify") || !persisted) return 2;
    return report.failures.empty() ? 0 : 1;
  }

  ftcc::CampaignOptions options;
  fill_common(options, options);
  options.artifact_dir = out_dir;
  options.shrink = cli.get_bool("shrink");
  options.inject = inject;
  options.fault_mode = fault_mode;
  // Real faults default to running under the self-healing wrapper; --raw
  // exposes the unprotected algorithms (corruption is expected to bite).
  options.wrap = fault_mode != ftcc::FaultMode::none && !cli.get_bool("raw");

  ftcc::CampaignReport report = ftcc::run_campaign(options);
  report_out << report.text;
  // A failing campaign must always name its replay artifacts — also with
  // --raw and no --out (the campaign itself only saves into --out).
  std::string error;
  const bool persisted = ftcc::persist_witnesses(
      report.failures, "fuzz-artifacts", report_out, error);
  if (!persisted) std::cerr << "cannot persist witnesses: " << error << "\n";
  if (!write_observability("campaign") || !persisted) return 2;
  return report.failures.empty() ? 0 : 1;
}
