// Inputs and verifiers of the four benchmark workloads (README.md).
//
// The workload seed is the benchmark's argument; every function here turns
// it into concrete inputs (graph, identifiers, crash plan, options) before
// the program sees anything, so the program receives only generated inputs
// and two seeds give two different, independently verifiable instances.
// Each verifier returns "" when the result is accepted and the reason
// otherwise; selftest.cpp shows that each one rejects a broken result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "fuzz/campaign.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "modelcheck/explorer.hpp"
#include "runtime/crash.hpp"
#include "runtime/result.hpp"

namespace perfbench {

using ftcc::NodeId;

/// Independent sub-seed number `stream` of the workload seed.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// ---- scale-random / scale-torus --------------------------------------

enum class Topology { random, torus };

/// Node count of both scale workloads: 2^22 = 2048 x 2048 (README.md,
/// "2^22 nodes, not fewer").
inline constexpr NodeId kScaleNodes = NodeId{1} << 22;
/// Degree cap of the random graph.
inline constexpr int kRandomDegree = 8;
/// One node in kCrashEvery carries a crash-stop entry on the torus.
inline constexpr std::uint64_t kCrashEvery = 100;
/// Sweep budget handed to BatchExecutor::run; colourings need ~10 sweeps.
inline constexpr std::uint64_t kMaxSweeps = std::uint64_t{1} << 20;

struct ScaleInputs {
  explicit ScaleInputs(ftcc::Graph g) : graph(std::move(g)) {}
  ftcc::Graph graph;
  ftcc::IdAssignment ids;
  /// Empty on the random topology: its sweeps skip the crash phase.
  ftcc::CrashPlan crashes;
  /// Nodes the plan names, ascending (the plan itself is not iterable).
  std::vector<NodeId> crash_set;
};

/// The graph alone: make_random_bounded_degree_csr(n, 8, ·) or, for the
/// torus, make_torus_csr(rows, n / rows) with rows the smallest power of
/// two whose square is at least n (n must be a power of two).
[[nodiscard]] ftcc::Graph make_scale_graph(Topology t, NodeId n,
                                           std::uint64_t seed);
/// Identifiers and, on the torus, a crash-stop plan calling
/// crash_after_activations(v, k), k in {0,1,2}, on about 1% of nodes.
void make_scale_ids_and_crashes(Topology t, std::uint64_t seed,
                                ScaleInputs& in);

/// Accepts iff the run completed, every crashed node is in the crash plan
/// (so no node crashes on the random topology), every node not crashed
/// terminated, every colour lies in Algorithm 4's palette
/// {(a, b) : a + b <= max degree}, and no edge joins two terminated nodes
/// with the same colour.
[[nodiscard]] std::string verify_scale(
    const ScaleInputs& in,
    const ftcc::ExecutionResult<ftcc::DeltaSquaredColoring::Output>& r);

/// FNV-1a over the CSR adjacency, for telling two seeds' graphs apart.
[[nodiscard]] std::uint64_t graph_hash(const ftcc::Graph& g);

// ---- campaign ---------------------------------------------------------

/// Trials per campaign solve: about 0.2 s at jobs=2 on the reference host,
/// so a run times about a hundred solves (README.md, "Choices made for
/// steady figures").
inline constexpr std::uint64_t kCampaignTrials = 5'000;
/// Trial sets per workload seed.  Solve i runs set i mod kCampaignSets, so
/// a run's median covers 16 x 5000 distinct trials and the seed-to-seed
/// difference in work averages out.
inline constexpr std::uint64_t kCampaignSets = 16;

/// All five algorithms on cycles n in [4, 24], FaultMode::mixed under
/// Recovering<>, shrinking on.  `set` picks one of the seed's independent
/// trial sets.
[[nodiscard]] ftcc::CampaignOptions make_campaign_options(
    std::uint64_t seed, std::uint64_t trials, unsigned jobs,
    std::uint64_t set = 0);

/// Accepts iff no trial failed and ok + censored == trials.
[[nodiscard]] std::string verify_campaign(const ftcc::CampaignReport& r,
                                          std::uint64_t trials);
/// Trials that count as failed operations: the failures, or every trial
/// not accounted for as ok or censored, whichever is more.
[[nodiscard]] std::uint64_t campaign_failed_trials(
    const ftcc::CampaignReport& r, std::uint64_t trials);

// ---- modelcheck -------------------------------------------------------

inline constexpr NodeId kMcNodes = 7;
/// Theorem 3.1: floor(3n/2) + 4 activations.
inline constexpr std::uint64_t kMcRoundBound = 3 * kMcNodes / 2 + 4;

/// Identifiers for C7.  Every seed yields the same order type (alternating
/// low/high around the cycle) under a seed-chosen rotation and reflection,
/// with seed-drawn values, so the reduced state space has the same size on
/// every seed while the concrete input changes.
[[nodiscard]] ftcc::IdAssignment make_mc_ids(std::uint64_t seed);

/// run_reduced with the compressed store, the D7 quotient and the
/// commuting-activation reduction all on.
[[nodiscard]] ftcc::ModelCheckOptions<ftcc::SixColoring> make_mc_options();

/// Accepts iff the exploration completed wait-free with proper outputs and
/// no safety violation, worst-case rounds <= kMcRoundBound, and every
/// colour lies in Algorithm 1's palette {(a, b) : a + b <= 2}.
[[nodiscard]] std::string verify_modelcheck(const ftcc::ModelCheckResult& r);

}  // namespace perfbench
