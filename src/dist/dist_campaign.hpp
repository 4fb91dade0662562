// Multi-process fault campaign (`tools/dist`): run seeded DistExecutor
// trials — every node a real OS process, every fault a real signal —
// check the paper's correctness condition on each outcome, and certify
// every run's happens-before event log through the same pipeline the
// threaded backend uses (analysis/hb/).  Trial configurations are a
// pure function of the master seed, and because the supervisor
// serialises activations (supervisor.hpp), the *decisions* are too: the
// same seed reproduces a byte-identical report, kill -9s and all.
//
// Unlike the other campaigns there is no `jobs` knob: DistExecutor
// fork()s, and forking from a multi-threaded process is undefined
// enough in practice (only the calling thread survives; locks held by
// the others stay locked forever in the child) that trials run strictly
// sequentially in the supervisor process — the campaign core
// (runtime/campaign.hpp) runs this backend inline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/hb/event_log.hpp"
#include "fuzz/campaign.hpp"
#include "graph/graph.hpp"
#include "runtime/campaign.hpp"

namespace ftcc::dist {

/// Which OS-level faults the campaign draws.
enum class DistFaultMode : std::uint8_t {
  none,   ///< healthy runs only
  kill,   ///< crash-stop by SIGKILL (clean and torn flavours)
  pause,  ///< SIGSTOP/SIGCONT pause-resume windows
  mixed,  ///< everything: kills, pauses, revivals, delay/dup perturbation
};

[[nodiscard]] constexpr const char* dist_fault_mode_name(
    DistFaultMode m) noexcept {
  switch (m) {
    case DistFaultMode::none: return "none";
    case DistFaultMode::kill: return "kill";
    case DistFaultMode::pause: return "pause";
    case DistFaultMode::mixed: return "mixed";
  }
  return "?";
}

[[nodiscard]] std::optional<DistFaultMode> parse_dist_fault_mode(
    const std::string& name);

/// Running tallies handed to DistCampaignOptions::on_progress: the
/// generic CampaignProgress fields plus the dist-specific verdict
/// counters, so `tools/dist --follow` can stream certify pass rates
/// without waiting for the final report.
struct DistCampaignProgress : CampaignProgress {
  std::uint64_t completed = 0;      ///< trials where every node resolved
  std::uint64_t certified = 0;      ///< trials the HB certifier accepted
  std::uint64_t violations = 0;     ///< improper colorings so far
  std::uint64_t crashed_nodes = 0;  ///< SIGKILLed node processes so far
};

/// A multi-process campaign: the shared CampaignSpec (runtime/campaign.hpp)
/// plus the dist knobs.  There is no CampaignPacing: trials always run
/// inline (see the file comment), so there is no `jobs`, and progress
/// carries the dist verdict counters.  `trace`, when set, receives the
/// per-trial `dist.trial` spans and every trial's crash-surviving shm
/// telemetry (harvested from the obs::ShmMetricsRegion after teardown,
/// SIGKILLs included), merged into one Chrome trace: pid = trial + 1,
/// tid = node.
struct DistCampaignOptions : CampaignSpec {
  DistCampaignOptions() {
    trials = 100;
    n_min = 3;
    n_max = 8;
  }
  /// Directory for failure witnesses; empty = keep them in memory only.
  std::string artifact_dir;
  /// When set, save EVERY trial's event log here as trial-<N>.eventlog
  /// (CI re-certifies them with tools/race).
  std::string log_dir;
  DistFaultMode inject = DistFaultMode::none;
  std::uint64_t max_steps = 4096;
  std::uint64_t max_read_attempts = std::uint64_t{1} << 12;
  /// Overlapped activation delivery (real races; decisions stay checked
  /// but per-trial reports are no longer byte-reproducible).
  bool overlap = false;
  std::function<void(const DistCampaignProgress&)> on_progress;
  std::uint64_t progress_every = 100;
};

struct DistCampaignFailure {
  std::uint64_t trial = 0;
  /// "[invariant] ..." for an improper coloring, "[kind] message" for a
  /// certification violation, "[runtime] ..." for a supervisor error.
  std::string verdict;
  std::string path;  ///< witness file; empty if artifact_dir unset
  EventLogArtifact artifact;

  static constexpr WitnessFile kWitness{"dist", ".eventlog", "witness"};
  [[nodiscard]] bool save(const std::string& to) const {
    return save_event_log(to, artifact);
  }
};

struct DistCampaignReport {
  std::uint64_t trials = 0;
  std::uint64_t completed = 0;  ///< every node terminated or crashed
  std::uint64_t certified = 0;  ///< event log passed the HB certifier
  std::uint64_t violations = 0; ///< improper colorings (must be 0)
  std::vector<DistCampaignFailure> failures;
  /// Order-independent digest over every trial's per-node decisions
  /// (fate, color, activation count) — two runs of the same seed must
  /// report the same digest.
  std::uint64_t decisions_digest = 0;
  std::string text;
};

[[nodiscard]] DistCampaignReport run_dist_campaign(
    const DistCampaignOptions& options);

}  // namespace ftcc::dist
