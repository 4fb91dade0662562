// Schedule-fuzzing campaign: randomized correctness testing of the five
// core algorithms beyond the exhaustive model checker's reach (the checker
// certifies "for every σ" up to C_5; the campaign probes large n).
//
// Every trial is derived from a single 64-bit master seed: the runner
// draws one sub-seed per trial and from it picks an algorithm, a graph
// size, an identifier assignment family, a crash pattern, and an adversary
// from the scheduler portfolio (the src/sched families plus the
// adversary_search pairs family).  The trial runs under a
// RecordingScheduler with every applicable invariant monitor from
// src/analysis installed; a violation yields a ScheduleArtifact that is
// delta-debugged down to a minimal replayable witness and written to disk.
// The trial loop itself is the shared campaign core (runtime/campaign.hpp),
// so two campaigns with the same options produce byte-identical reports
// for any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/schedule_io.hpp"
#include "fuzz/shrink.hpp"
#include "runtime/campaign.hpp"

namespace ftcc {

/// Deliberately broken invariants, used to exercise the failure →
/// artifact → shrink pipeline end to end (a healthy campaign finds no
/// violations, so the pipeline would otherwise only run in anger).
enum class InjectedFault {
  none,
  /// Treat any node terminating as a violation; minimal witnesses are a
  /// single activation of one node, so shrinking is easy to eyeball.
  no_termination,
};

/// Which real fault classes (src/faults/) each trial draws, on top of the
/// crash-stop pattern every trial already has.
enum class FaultMode {
  none,     ///< crash-stop only (the original campaign)
  corrupt,  ///< transient register corruption (bit flips, word overwrites)
  recover,  ///< crash-recovery with wiped state and ⊥/zero/stale registers
  mixed,    ///< both of the above
};

[[nodiscard]] constexpr const char* fault_mode_name(FaultMode m) noexcept {
  switch (m) {
    case FaultMode::none: return "none";
    case FaultMode::corrupt: return "corrupt";
    case FaultMode::recover: return "recover";
    case FaultMode::mixed: return "mixed";
  }
  return "?";
}

/// A schedule campaign: the shared CampaignSpec (seed, trials, n range,
/// algos, metrics, trace) and CampaignPacing (jobs, progress) plus the
/// schedule-specific knobs.  Any `jobs` value yields byte-identical
/// reports and identical shrunk witnesses (runtime/campaign.hpp; the
/// contract tests/fuzz_parallel_test.cpp pins).
struct CampaignOptions : CampaignSpec, CampaignPacing {
  /// Directory for failure artifacts; empty = keep them in memory only.
  std::string artifact_dir;
  bool shrink = true;
  InjectedFault inject = InjectedFault::none;
  /// Real fault classes to draw per trial (beyond crash-stop).
  FaultMode fault_mode = FaultMode::none;
  /// Run algorithms under the Recovering<> self-healing wrapper.  Off by
  /// default; tools/fuzz turns it on whenever fault_mode != none unless
  /// --raw asks for the unprotected algorithms (expected to violate under
  /// corruption — that is the vulnerability the wrapper closes).
  bool wrap = false;
  /// Predicate-evaluation budget per shrink (each check is a replay).
  std::uint64_t shrink_checks = 20'000;
};

struct CampaignFailure {
  std::uint64_t trial = 0;
  std::string violation;
  /// Pre-shrink witness dimensions (the shrunk witness is in `shrink`).
  NodeId original_n = 0;
  std::uint64_t original_steps = 0;
  ShrinkResult shrink;
  /// Where the (shrunk) artifact was saved; empty if artifact_dir unset.
  std::string path;

  static constexpr WitnessFile kWitness{"fail", ".sched", "artifact"};
  [[nodiscard]] bool save(const std::string& to) const {
    return save_schedule(to, shrink.artifact);
  }
};

/// The full deterministic report: text is the header, one line per trial,
/// shrink lines, and the summary — byte-identical for identical options.
using CampaignReport = CampaignRun<CampaignFailure>;

/// Algorithm names the campaign understands:
/// "six" (Algorithm 1), "five" (Algorithm 2), "fast5" (Algorithm 3),
/// "delta2" (Algorithm 4 on the cycle), "fast6" (SixColoringFast).
[[nodiscard]] const std::vector<std::string>& campaign_algorithms();
[[nodiscard]] bool known_algorithm(const std::string& name);

/// Replay an artifact with the applicable monitors (plus any injected
/// fault) installed, running exactly the recorded steps under the
/// artifact's fault plan (and, if artifact.wrapped, under Recovering<>).
/// Returns the violation message, or "" if the replay is clean.  The
/// artifact's algo must satisfy known_algorithm().
[[nodiscard]] std::string replay_violation(
    const ScheduleArtifact& artifact,
    InjectedFault inject = InjectedFault::none);

[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace ftcc
