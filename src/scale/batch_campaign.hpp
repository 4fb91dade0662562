// Differential campaign for the batch engine: BatchExecutor is only
// allowed to exist because it is *provably the same machine* as the
// sequential Executor on their shared domain (synchronous schedules,
// crash-stop faults).  Each trial derives a graph, an identifier
// assignment, and a crash plan from a single master seed, runs both
// executors, and compares the ExecutionResults field for field —
// completed, steps, activations, outputs, crashed, fates.  Any divergence
// is a bug in the batch kernels, reported with enough detail to replay
// (trial sub-seed, topology, first differing node).
//
// Like the fuzz campaign it runs on the shared campaign core, so two runs
// with the same options produce byte-identical report text for any worker
// count.  tools/fuzz exposes this behind --batched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/campaign.hpp"

namespace ftcc {

/// A differential campaign: CampaignSpec + CampaignPacing
/// (runtime/campaign.hpp).  The report is byte-identical for any `jobs`.
/// With a registry, the core's batch.diff.* campaign metrics.
struct BatchCampaignOptions : CampaignSpec, CampaignPacing {
  /// The n range is kept modest by default: the sequential replay is the
  /// bottleneck, and the differential contract is asserted for graphs up
  /// to 10³ nodes.
  BatchCampaignOptions() { n_max = 192; }
};

struct BatchMismatch {
  std::uint64_t trial = 0;
  /// First differing field and node, e.g. "outputs[17]: seq=(1,0) batch=⊥".
  std::string description;
};

struct BatchCampaignReport {
  std::uint64_t trials = 0;
  std::uint64_t ok = 0;
  std::vector<BatchMismatch> mismatches;
  /// Deterministic text report (header, one line per trial, summary).
  std::string text;
};

/// Algorithms with batch kernels: "delta2" (Algorithm 4) and "fast6"
/// (SixColoringFast) — the two BatchColumns specializations.
[[nodiscard]] const std::vector<std::string>& batch_algorithms();
[[nodiscard]] bool known_batch_algorithm(const std::string& name);

[[nodiscard]] BatchCampaignReport run_batch_campaign(
    const BatchCampaignOptions& options);

}  // namespace ftcc
