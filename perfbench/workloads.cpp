#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>

#include "scale/graph_gen.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ftcc;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
  return splitmix64(state);
}

Graph make_scale_graph(Topology t, NodeId n, std::uint64_t seed) {
  if (t == Topology::random)
    return make_random_bounded_degree_csr(n, kRandomDegree, sub_seed(seed, 1));
  NodeId rows = 1;
  while (std::uint64_t{rows} * rows < n) rows <<= 1;
  FTCC_EXPECTS(n % rows == 0 && std::has_single_bit(n));
  return make_torus_csr(rows, n / rows);
}

void make_scale_ids_and_crashes(Topology t, std::uint64_t seed,
                                ScaleInputs& in) {
  const NodeId n = in.graph.node_count();
  in.ids = permutation_ids(n, sub_seed(seed, 2));
  in.crashes = CrashPlan{};
  in.crash_set.clear();
  if (t != Topology::torus) return;
  in.crashes = CrashPlan(n);
  Xoshiro256 rng(sub_seed(seed, 3));
  for (NodeId v = 0; v < n; ++v) {
    if (rng.below(kCrashEvery) != 0) continue;
    in.crashes.crash_after_activations(v, rng.below(3));
    in.crash_set.push_back(v);
  }
}

std::string verify_scale(const ScaleInputs& in,
                         const ExecutionResult<DeltaSquaredColoring::Output>& r) {
  const Graph& g = in.graph;
  const NodeId n = g.node_count();
  if (!r.completed) return "run did not complete";
  if (r.outputs.size() != n || r.crashed.size() != n)
    return "result size does not match the graph";
  const auto delta = static_cast<std::uint64_t>(g.max_degree());
  for (NodeId v = 0; v < n; ++v) {
    if (r.crashed[v] && !std::binary_search(in.crash_set.begin(),
                                            in.crash_set.end(), v))
      return "node " + std::to_string(v) + " crashed outside the crash plan";
    if (!r.crashed[v] && !r.outputs[v])
      return "node " + std::to_string(v) + " neither crashed nor terminated";
    if (r.outputs[v] && r.outputs[v]->a + r.outputs[v]->b > delta)
      return "node " + std::to_string(v) + " colour " +
             r.outputs[v]->to_string() + " outside the palette a + b <= " +
             std::to_string(delta);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!r.outputs[v]) continue;
    for (const NodeId u : g.neighbors(v)) {
      if (u > v && r.outputs[u] && *r.outputs[u] == *r.outputs[v])
        return "edge " + std::to_string(v) + "-" + std::to_string(u) +
               " is monochromatic";
    }
  }
  return "";
}

std::uint64_t graph_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const NodeId u : g.neighbors(v)) {
      h = (h ^ u) * 0x100000001b3ULL;
    }
    h = (h ^ 0xffffffffULL) * 0x100000001b3ULL;
  }
  return h;
}

CampaignOptions make_campaign_options(std::uint64_t seed, std::uint64_t trials,
                                      unsigned jobs, std::uint64_t set) {
  CampaignOptions o;
  o.seed = sub_seed(sub_seed(seed, 4), set);
  o.trials = trials;
  o.jobs = jobs;
  o.n_min = 4;
  o.n_max = 24;
  o.shrink = true;
  o.fault_mode = FaultMode::mixed;
  o.wrap = true;
  return o;
}

std::string verify_campaign(const CampaignReport& r, std::uint64_t trials) {
  if (!r.failures.empty())
    return std::to_string(r.failures.size()) + " trial(s) failed, first: " +
           r.failures.front().violation;
  if (r.trials != trials) return "campaign ran the wrong number of trials";
  if (r.ok + r.censored != trials) return "ok + censored != trials";
  return "";
}

std::uint64_t campaign_failed_trials(const CampaignReport& r,
                                     std::uint64_t trials) {
  const std::uint64_t accounted = std::min(trials, r.ok + r.censored);
  return std::max<std::uint64_t>(r.failures.size(), trials - accounted);
}

IdAssignment make_mc_ids(std::uint64_t seed) {
  const IdAssignment pattern = alternating_ids(kMcNodes);
  std::vector<NodeId> rank(kMcNodes);
  std::iota(rank.begin(), rank.end(), NodeId{0});
  std::sort(rank.begin(), rank.end(),
            [&](NodeId a, NodeId b) { return pattern[a] < pattern[b]; });
  Xoshiro256 rng(sub_seed(seed, 5));
  std::set<std::uint64_t> drawn;
  const std::uint64_t range = std::uint64_t{kMcNodes} * kMcNodes * kMcNodes;
  while (drawn.size() < kMcNodes) drawn.insert(rng.below(range));
  const std::vector<std::uint64_t> values(drawn.begin(), drawn.end());
  const auto shift = static_cast<NodeId>(rng.below(kMcNodes));
  const bool reflect = rng.below(2) == 1;
  IdAssignment ids(kMcNodes);
  for (NodeId r = 0; r < kMcNodes; ++r) {
    const NodeId v = rank[r];
    const NodeId image = reflect ? (kMcNodes - v) % kMcNodes : v;
    ids[(image + shift) % kMcNodes] = values[r];
  }
  return ids;
}

ModelCheckOptions<SixColoring> make_mc_options() {
  ModelCheckOptions<SixColoring> o;
  o.reductions.compress = true;
  o.reductions.symmetry = true;
  o.reductions.commute = true;
  return o;
}

std::string verify_modelcheck(const ModelCheckResult& r) {
  if (!r.completed) return "exploration did not complete";
  if (!r.wait_free) return "not wait-free";
  if (!r.outputs_proper) return "outputs not proper";
  if (r.safety_violation) return "safety violation: " + *r.safety_violation;
  if (r.worst_case_rounds() > kMcRoundBound)
    return "worst case " + std::to_string(r.worst_case_rounds()) +
           " rounds exceeds the Theorem 3.1 bound " +
           std::to_string(kMcRoundBound);
  if (r.colors_used.empty()) return "no colour was ever output";
  for (const std::uint64_t code : r.colors_used) {
    const std::uint64_t a = code >> 20, b = code & ((1u << 20) - 1);
    if (a + b > 2)
      return "colour (" + std::to_string(a) + "," + std::to_string(b) +
             ") outside the 6-colour palette";
  }
  return "";
}

}  // namespace perfbench
