// Campaign algorithm dispatch: maps the campaign's algorithm names
// ("six", "five", "fast5", "delta2", "fast6" — see campaign_algorithms())
// to concrete algorithm instances, optionally wrapped in the Recovering<>
// self-healing layer, and draws the cycle instance every such trial
// starts from.  Shared by the schedule-fuzzing campaign
// (fuzz/campaign.cpp), the threaded certify campaign
// (fuzz/certify_campaign.cpp), the multi-process campaign
// (dist/dist_campaign.cpp), and tools/race.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/recovering.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

/// Dispatch by campaign algorithm name; f receives the algorithm instance
/// (wrapped in Recovering<> when `wrapped`), its mid-run palette component
/// bound (each candidate's mex is over at most `bound` values), and
/// whether it maintains a_p <= b_p.
template <typename F>
auto with_campaign_algorithm(const std::string& name, bool wrapped, F&& f) {
  const auto dispatch = [&](auto algo, std::uint64_t bound, bool ordered) {
    if (wrapped) return f(Recovering<decltype(algo)>{}, bound, ordered);
    return f(std::move(algo), bound, ordered);
  };
  if (name == "six") return dispatch(SixColoring{}, std::uint64_t{2}, false);
  if (name == "five")
    return dispatch(FiveColoringLinear{}, std::uint64_t{4}, true);
  if (name == "fast5")
    return dispatch(FiveColoringFast{}, std::uint64_t{4}, true);
  if (name == "delta2")
    return dispatch(DeltaSquaredColoring{}, std::uint64_t{2}, false);
  FTCC_EXPECTS(name == "fast6" && "unknown campaign algorithm");
  return dispatch(SixColoringFast{}, std::uint64_t{2}, false);
}

/// The instance a fuzz, certify or dist trial runs on.
struct CycleTrial {
  std::string algo;
  std::string graph_kind;  ///< "cycle", or "path" (Algorithm 2 only)
  NodeId n = 0;
  IdAssignment ids;
  std::string ids_family;  ///< random, sorted, alternating, zigzag(L), perm

  [[nodiscard]] Graph graph() const {
    return graph_kind == "path" ? make_path(n) : make_cycle(n);
  }
};

/// Draw a trial's instance from its RNG: the algorithm, the size, path or
/// cycle (Algorithm 2 is the one specified for paths as well, §2.1), and
/// one of five identifier families.  The RNG consumption is part of every
/// campaign's seed contract: the draws happen in exactly this order.
inline void draw_cycle_trial(CycleTrial& trial,
                             const std::vector<std::string>& algos,
                             NodeId n_min, NodeId n_max, Xoshiro256& rng) {
  trial.algo = algos[rng.below(algos.size())];
  trial.n = n_min + static_cast<NodeId>(rng.below(n_max - n_min + 1u));
  trial.graph_kind =
      (trial.algo == "five" && rng.chance(0.25)) ? "path" : "cycle";
  const NodeId n = trial.n;
  switch (rng.below(5)) {
    case 0:
      trial.ids = random_ids(n, rng());
      trial.ids_family = "random";
      break;
    case 1:
      trial.ids = sorted_ids(n);
      trial.ids_family = "sorted";
      break;
    case 2:
      trial.ids = alternating_ids(n);
      trial.ids_family = "alternating";
      break;
    case 3: {
      const NodeId run = 1 + static_cast<NodeId>(rng.below(n - 1));
      trial.ids = zigzag_ids(n, run);
      trial.ids_family = "zigzag(" + std::to_string(run) + ")";
      break;
    }
    default:
      trial.ids = permutation_ids(n, rng());
      trial.ids_family = "perm";
      break;
  }
}

}  // namespace ftcc
