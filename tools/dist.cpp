// tools/dist — drive the multi-process fault campaign: every node a
// forked OS process publishing through shared-memory seqlocks, every
// fault a real signal (SIGKILL crash-stop, SIGSTOP/SIGCONT pauses,
// re-forked revivals), every run's happens-before log certified through
// the same pipeline as tools/fuzz --certify.
//
//   dist --seed=42 --trials=100                        # healthy runs
//   dist --seed=42 --trials=1000 --inject=mixed        # the full zoo
//   dist --seed=42 --inject=kill --out=artifacts       # SIGKILL only
//   dist --seed=42 --keep-logs=logs --metrics=m.jsonl  # CI: certify all
//   dist --seed=42 --inject=mixed --trace=dist.json    # merged Chrome trace
//   dist --seed=42 --follow | tee progress.jsonl       # live snapshots
//
// The report written to stdout is a deterministic function of the flags
// (activations are serialised by the supervisor, so decisions depend
// only on the seed; see src/dist/supervisor.hpp).  --overlap trades
// that reproducibility for genuinely concurrent activations.
// Exit status: 0 = all trials proper and certified, 1 = violations or
// certification failures, 2 = usage or artifact error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>

#include "dist/dist_campaign.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "util/artifacts.hpp"
#include "util/cli.hpp"

namespace {

void print_progress(const ftcc::dist::DistCampaignProgress& p) {
  if (p.done == p.total) {
    std::printf("\r\033[2K");
  } else {
    std::printf("\r[%llu/%llu] ok=%llu certified=%llu violations=%llu "
                "crashed=%llu failures=%llu",
                static_cast<unsigned long long>(p.done),
                static_cast<unsigned long long>(p.total),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.certified),
                static_cast<unsigned long long>(p.violations),
                static_cast<unsigned long long>(p.crashed_nodes),
                static_cast<unsigned long long>(p.failures));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("seed", std::uint64_t{1}, "master seed; every trial derives from it")
      .flag("trials", std::uint64_t{100}, "number of multi-process trials")
      .flag("nmin", std::uint64_t{3}, "smallest cycle size")
      .flag("nmax", std::uint64_t{8},
            "largest cycle size (every node is an OS process — keep small)")
      .flag("algo", std::string("all"),
            "algorithm: all, six, five, fast5, delta2, fast6")
      .flag("inject", std::string("none"),
            "OS faults to draw: none, kill (SIGKILL crash-stop), pause "
            "(SIGSTOP/SIGCONT), mixed (kills, pauses, revivals, delay/dup)")
      .flag("out", std::string(""),
            "directory for failure witnesses (empty: don't write)")
      .flag("keep-logs", std::string(""),
            "save EVERY trial's event log into this directory "
            "(trial-<N>.eventlog; re-certify with tools/race)")
      .flag("metrics", std::string(""),
            "write campaign metrics (ftcc-metrics-v1 JSONL) to this path")
      .flag("trace", std::string(""),
            "merge every trial's crash-surviving node telemetry into one "
            "Chrome trace (load in chrome://tracing or Perfetto) at this "
            "path; faults appear as instant markers")
      .flag("follow", false,
            "stream ftcc-metrics-v1 progress snapshot lines to stdout as "
            "the campaign runs (machine-readable; validate with "
            "tools/report --check)")
      .flag("max-steps", std::uint64_t{4096}, "supervisor step budget")
      .flag("max-read-attempts", std::uint64_t{1} << 12,
            "seqlock retry budget per neighbour read in node processes")
      .flag("overlap", false,
            "deliver whole activation sets before collecting ACKs (real "
            "races; per-trial reports stop being byte-reproducible)")
      .flag("progress", true,
            "overwriting progress line (interactive stdout only)");
  if (!cli.parse(argc, argv)) return 2;

  const auto n_min = static_cast<ftcc::NodeId>(cli.get_u64("nmin"));
  const auto n_max = static_cast<ftcc::NodeId>(cli.get_u64("nmax"));
  if (n_min < 3 || n_min > n_max) {
    std::cerr << "invalid range --nmin=" << n_min << " --nmax=" << n_max
              << " (need 3 <= nmin <= nmax)\n";
    return 2;
  }
  const std::string algo_flag = cli.get_string("algo");
  if (algo_flag != "all" && !ftcc::known_algorithm(algo_flag)) {
    std::cerr << "unknown --algo value '" << algo_flag << "'\n";
    return 2;
  }
  const auto inject =
      ftcc::dist::parse_dist_fault_mode(cli.get_string("inject"));
  if (!inject) {
    std::cerr << "unknown --inject value '" << cli.get_string("inject")
              << "' (use none, kill, pause, mixed)\n";
    return 2;
  }

  // Fail fast on unwritable destinations — a campaign whose results
  // cannot land anywhere must not run for an hour first.
  const std::string out_dir = cli.get_string("out");
  const std::string log_dir = cli.get_string("keep-logs");
  const std::string metrics_path = cli.get_string("metrics");
  const std::string trace_path = cli.get_string("trace");
  for (const std::string& dir : {out_dir, log_dir}) {
    if (dir.empty()) continue;
    if (const auto error = ftcc::probe_dir_writable(dir)) {
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

  ftcc::obs::Registry registry;
  ftcc::obs::TraceSink trace;
  ftcc::dist::DistCampaignOptions options;
  options.seed = cli.get_u64("seed");
  options.trials = cli.get_u64("trials");
  options.n_min = n_min;
  options.n_max = n_max;
  options.artifact_dir = out_dir;
  options.log_dir = log_dir;
  options.inject = *inject;
  options.max_steps = cli.get_u64("max-steps");
  options.max_read_attempts = cli.get_u64("max-read-attempts");
  options.overlap = cli.get_bool("overlap");
  if (algo_flag != "all") options.algos = {algo_flag};
  if (!metrics_path.empty()) options.metrics = &registry;
  if (!trace_path.empty()) options.trace = &trace;
  if (cli.get_bool("follow")) {
    // Machine-readable live progress: one self-contained ftcc-metrics-v1
    // snapshot line per callback, dense enough to plot a pass-rate curve.
    options.progress_every =
        std::max<std::uint64_t>(std::uint64_t{1}, options.trials / 10);
    options.on_progress = [&](const ftcc::dist::DistCampaignProgress& p) {
      std::cout << ftcc::obs::progress_line(
          {{"done", p.done},
           {"total", p.total},
           {"ok", p.ok},
           {"failures", p.failures},
           {"completed", p.completed},
           {"certified", p.certified},
           {"violations", p.violations},
           {"crashed_nodes", p.crashed_nodes}},
          {{"tool", "dist"}, {"seed", std::to_string(options.seed)},
           {"inject", cli.get_string("inject")}});
      std::cout.flush();
    };
  } else if (cli.get_bool("progress") && isatty(fileno(stdout)) != 0) {
    options.on_progress = print_progress;
  }

  ftcc::dist::DistCampaignReport report =
      ftcc::dist::run_dist_campaign(options);
  // In --follow mode stdout is a pure ftcc-metrics-v1 stream (so it can
  // be piped straight into tools/report --check); the human-readable
  // report moves to stderr.
  std::ostream& report_out = cli.get_bool("follow") ? std::cerr : std::cout;
  report_out << report.text;
  std::string error;
  if (!ftcc::persist_witnesses(report.failures, "dist-witnesses", report_out,
                               error)) {
    std::cerr << "cannot persist witnesses: " << error << "\n";
    return 2;
  }
  if (!metrics_path.empty()) {
    const std::map<std::string, std::string> meta{
        {"tool", "dist"},
        {"seed", std::to_string(options.seed)},
        {"trials", std::to_string(options.trials)},
        {"algo", algo_flag},
        {"inject", cli.get_string("inject")}};
    if (!ftcc::obs::write_metrics_jsonl(metrics_path, registry, meta)) {
      std::cerr << "cannot write metrics file " << metrics_path << "\n";
      return 2;
    }
  }
  if (!trace_path.empty() && !trace.write(trace_path)) {
    std::cerr << "cannot write trace file " << trace_path << "\n";
    return 2;
  }
  return report.failures.empty() && report.violations == 0 ? 0 : 1;
}
