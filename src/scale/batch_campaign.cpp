#include "scale/batch_campaign.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "faults/fault_plan.hpp"
#include "graph/ids.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"
#include "scale/batch_executor.hpp"
#include "scale/graph_gen.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

/// The synchronous full-coverage adversary: σ(t) = every working node.
/// This is the schedule class BatchExecutor implements, so it is the one
/// the differential contract quantifies over.
class EveryoneScheduler final : public Scheduler {
 public:
  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    return {working.begin(), working.end()};
  }
};

std::string color_or_bottom(const std::optional<PairColor>& c) {
  return c ? c->to_string() : "_";
}

/// First differing field, or nullopt when the results agree exactly.
std::optional<std::string> compare_results(
    const ExecutionResult<PairColor>& seq,
    const ExecutionResult<PairColor>& batch) {
  if (seq.completed != batch.completed)
    return "completed: seq=" + std::to_string(seq.completed) +
           " batch=" + std::to_string(batch.completed);
  if (seq.steps != batch.steps)
    return "steps: seq=" + std::to_string(seq.steps) +
           " batch=" + std::to_string(batch.steps);
  const NodeId n = static_cast<NodeId>(seq.fates.size());
  if (batch.fates.size() != n)
    return "fates.size: seq=" + std::to_string(n) +
           " batch=" + std::to_string(batch.fates.size());
  for (NodeId v = 0; v < n; ++v) {
    if (seq.activations[v] != batch.activations[v])
      return "activations[" + std::to_string(v) +
             "]: seq=" + std::to_string(seq.activations[v]) +
             " batch=" + std::to_string(batch.activations[v]);
    if (seq.outputs[v] != batch.outputs[v])
      return "outputs[" + std::to_string(v) +
             "]: seq=" + color_or_bottom(seq.outputs[v]) +
             " batch=" + color_or_bottom(batch.outputs[v]);
    if (seq.crashed[v] != batch.crashed[v])
      return "crashed[" + std::to_string(v) +
             "]: seq=" + std::to_string(seq.crashed[v]) +
             " batch=" + std::to_string(batch.crashed[v]);
    if (seq.fates[v] != batch.fates[v])
      return std::string("fates[") + std::to_string(v) +
             "]: seq=" + node_fate_name(seq.fates[v]) +
             " batch=" + node_fate_name(batch.fates[v]);
  }
  return std::nullopt;
}

template <typename A>
std::optional<std::string> run_pair(const Graph& g, const IdAssignment& ids,
                                    const CrashPlan& plan,
                                    std::uint64_t max_steps) {
  Executor<A> seq(A{}, g, ids, FaultPlan(plan));
  EveryoneScheduler sched;
  const auto seq_result = seq.run(sched, max_steps);
  BatchExecutor<A> batch(g, ids, plan);
  const auto batch_result = batch.run(max_steps);
  return compare_results(seq_result, batch_result);
}

/// The differential campaign's trial body for the campaign core: one
/// trial, fully derived from its sub-seed.
struct DifferentialBackend {
  using Failure = BatchMismatch;
  static constexpr const char* kPrefix = "batch.diff";
  static constexpr bool kParallelSafe = true;

  NodeId n_min;
  NodeId n_max;
  std::vector<std::string> algos;

  TrialResult<Failure> trial(std::uint64_t index, std::uint64_t seed,
                             obs::TraceSink* trace) const;
};

TrialResult<BatchMismatch> DifferentialBackend::trial(
    std::uint64_t index, std::uint64_t seed,
    obs::TraceSink* /*trace*/) const {
  Xoshiro256 rng(seed);
  const std::string& algo = algos[rng.below(algos.size())];
  NodeId n = n_min + static_cast<NodeId>(rng.below(n_max - n_min + 1));

  Graph g = make_cycle(3);
  std::string family = "cycle";
  if (algo == "fast6") {
    g = make_cycle(n);
  } else {
    switch (rng.below(6)) {
      case 0:
        g = make_cycle(n);
        break;
      case 1: {
        const NodeId rows = 3 + static_cast<NodeId>(rng.below(4));
        const NodeId cols = std::max<NodeId>(3, n / rows);
        n = rows * cols;
        g = make_torus_csr(rows, cols);
        family = "torus";
        break;
      }
      case 2: {
        const int cap = 3 + static_cast<int>(rng.below(6));
        g = make_random_bounded_degree_csr(n, cap, rng());
        family = "random";
        break;
      }
      case 3: {
        const int cap = 6 + static_cast<int>(rng.below(10));
        g = make_power_law_csr(n, 2.5, cap, rng());
        family = "powerlaw";
        break;
      }
      case 4:
        n = std::min<NodeId>(n, 48);  // hub degree n-1 must stay <= 64
        n = std::max<NodeId>(n, 3);
        g = make_star(n);
        family = "star";
        break;
      default:
        n = std::min<NodeId>(n, 24);  // degree n-1 must stay <= 64
        n = std::max<NodeId>(n, 3);
        g = make_complete(n);
        family = "complete";
        break;
    }
  }

  IdAssignment ids;
  std::string ids_name;
  switch (rng.below(3)) {
    case 0:
      ids = permutation_ids(n, rng(), rng.below(100));
      ids_name = "perm";
      break;
    case 1:
      ids = random_ids(n, rng());
      ids_name = "random";
      break;
    default:
      ids = sorted_ids(n, 100, 1 + rng.below(3));
      ids_name = "sorted";
      break;
  }

  CrashPlan plan;
  std::uint64_t crash_events = 0;
  if (rng.below(10) >= 4) {  // 60% of trials carry crash-stop faults
    crash_events = 1 + rng.below(std::max<std::uint64_t>(1, n / 4));
    for (std::uint64_t i = 0; i < crash_events; ++i) {
      const NodeId v = static_cast<NodeId>(rng.below(n));
      if (rng.below(2) == 0)
        plan.crash_at_step(v, 1 + rng.below(2 * std::uint64_t{n}));
      else
        plan.crash_after_activations(v, rng.below(8));
    }
  }

  // Mostly a generous budget (full colouring); sometimes a tight one so
  // the timed_out fate path is compared too.
  const std::uint64_t budget = rng.below(10) == 0
                                   ? 2 + rng.below(n)
                                   : 4 * std::uint64_t{n} + 64;

  const std::optional<std::string> mismatch =
      algo == "fast6"
          ? run_pair<SixColoringFast>(g, ids, plan, budget)
          : run_pair<DeltaSquaredColoring>(g, ids, plan, budget);

  TrialResult<Failure> slot;
  slot.text = "trial " + std::to_string(index) + " algo=" + algo +
              " graph=" + family + " n=" + std::to_string(n) +
              " ids=" + ids_name + " crashes=" + std::to_string(crash_events) +
              " budget=" + std::to_string(budget) +
              (mismatch ? " => MISMATCH " + *mismatch : " => ok") + "\n";
  if (mismatch) {
    slot.outcome = TrialTally::Outcome::failed;
    slot.failure = BatchMismatch{index, *mismatch};
  }
  return slot;
}

}  // namespace

const std::vector<std::string>& batch_algorithms() {
  static const std::vector<std::string> algos{"delta2", "fast6"};
  return algos;
}

bool known_batch_algorithm(const std::string& name) {
  const auto& algos = batch_algorithms();
  return std::find(algos.begin(), algos.end(), name) != algos.end();
}

BatchCampaignReport run_batch_campaign(const BatchCampaignOptions& options) {
  DifferentialBackend backend{options.n_min, options.n_max,
                              options.resolve_algos(batch_algorithms())};
  std::string header = "batch differential campaign seed=" +
                       std::to_string(options.seed) +
                       " trials=" + std::to_string(options.trials) +
                       " n=" + std::to_string(options.n_min) + ".." +
                       std::to_string(options.n_max) + " algos=";
  for (std::size_t i = 0; i < backend.algos.size(); ++i)
    header += (i ? "," : "") + backend.algos[i];
  header += "\n";
  CampaignRun<BatchMismatch> run =
      run_trials(backend, options, options, std::move(header));

  BatchCampaignReport report;
  report.trials = run.trials;
  report.ok = run.ok;
  report.mismatches = std::move(run.failures);
  report.text = std::move(run.text);
  report.text += "summary: trials=" + std::to_string(report.trials) +
                 " ok=" + std::to_string(report.ok) +
                 " mismatches=" + std::to_string(report.mismatches.size()) +
                 "\n";
  return report;
}

}  // namespace ftcc
