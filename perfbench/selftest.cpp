// The benchmark's own tests (README.md, "Self-test"):
//   - every verifier accepts a real result and rejects a broken one;
//   - seed discipline: each workload at reduced size on two seeds gets
//     different inputs, and both seeds pass verification.
#include <gtest/gtest.h>

#include <set>

#include "scale/batch_executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftcc;

constexpr NodeId kSmallScale = 64 * 64;
constexpr std::uint64_t kSmallTrials = 300;

ScaleInputs small_scale(Topology t, std::uint64_t seed) {
  ScaleInputs in(make_scale_graph(t, kSmallScale, seed));
  make_scale_ids_and_crashes(t, seed, in);
  return in;
}

ExecutionResult<DeltaSquaredColoring::Output> colour(const ScaleInputs& in) {
  BatchExecutor<DeltaSquaredColoring> ex(in.graph, in.ids, in.crashes);
  return ex.run(kMaxSweeps);
}

ModelCheckResult certify(std::uint64_t seed) {
  ModelChecker<SixColoring> mc(SixColoring{}, make_cycle(kMcNodes),
                               make_mc_ids(seed), make_mc_options());
  return mc.run_reduced(2);
}

// ---- verifiers reject broken results ------------------------------------

TEST(ScaleVerifier, RejectsAMonochromaticEdge) {
  const ScaleInputs in = small_scale(Topology::random, 1);
  auto r = colour(in);
  ASSERT_EQ(verify_scale(in, r), "");
  for (NodeId v = 0; v < in.graph.node_count(); ++v) {
    const NodeId u = in.graph.neighbors(v).front();
    if (!r.outputs[v] || !r.outputs[u]) continue;
    r.outputs[u] = r.outputs[v];
    break;
  }
  EXPECT_NE(verify_scale(in, r).find("monochromatic"), std::string::npos);
}

TEST(ScaleVerifier, RejectsALiveNodeLeftUnterminated) {
  const ScaleInputs in = small_scale(Topology::torus, 1);
  auto r = colour(in);
  ASSERT_EQ(verify_scale(in, r), "");
  ASSERT_FALSE(in.crash_set.empty());
  NodeId live = 0;
  while (r.crashed[live]) ++live;
  r.outputs[live].reset();
  EXPECT_NE(verify_scale(in, r).find("neither crashed nor terminated"),
            std::string::npos);
}

TEST(ScaleVerifier, RejectsACrashOutsideThePlan) {
  const ScaleInputs in = small_scale(Topology::random, 1);
  ASSERT_TRUE(in.crash_set.empty());
  auto r = colour(in);
  ASSERT_EQ(verify_scale(in, r), "");
  r.crashed[5] = true;
  r.outputs[5].reset();
  EXPECT_NE(verify_scale(in, r).find("crashed outside the crash plan"),
            std::string::npos);
}

TEST(ScaleVerifier, RejectsAColourOutsideThePalette) {
  const ScaleInputs in = small_scale(Topology::random, 1);
  auto r = colour(in);
  ASSERT_EQ(verify_scale(in, r), "");
  const auto delta = static_cast<std::uint64_t>(in.graph.max_degree());
  ASSERT_TRUE(r.outputs[7].has_value());
  r.outputs[7] = PairColor{delta, 1};
  EXPECT_NE(verify_scale(in, r).find("outside the palette"), std::string::npos);
}

TEST(CampaignVerifier, CountsInjectedFailuresAsFailedTrials) {
  CampaignOptions o = make_campaign_options(1, 20, 2);
  o.inject = InjectedFault::no_termination;
  o.shrink_checks = 200;
  const CampaignReport r = run_campaign(o);
  EXPECT_NE(verify_campaign(r, o.trials), "");
  EXPECT_GT(campaign_failed_trials(r, o.trials), 0u);
  EXPECT_EQ(campaign_failed_trials(r, o.trials), r.failures.size());
}

TEST(CampaignVerifier, RejectsUnaccountedTrials) {
  const CampaignOptions o = make_campaign_options(1, kSmallTrials, 2);
  CampaignReport r = run_campaign(o);
  ASSERT_EQ(verify_campaign(r, o.trials), "");
  EXPECT_EQ(campaign_failed_trials(r, o.trials), 0u);
  r.ok -= 3;
  EXPECT_NE(verify_campaign(r, o.trials), "");
  EXPECT_EQ(campaign_failed_trials(r, o.trials), 3u);
}

TEST(ModelCheckVerifier, RejectsLivelockBoundAndPalette) {
  const ModelCheckResult good = certify(1);
  ASSERT_EQ(verify_modelcheck(good), "");
  EXPECT_LE(good.worst_case_rounds(), kMcRoundBound);

  ModelCheckResult r = good;
  r.wait_free = false;
  EXPECT_EQ(verify_modelcheck(r), "not wait-free");

  r = good;
  r.worst_case_activations[3] = kMcRoundBound + 1;
  EXPECT_NE(verify_modelcheck(r).find("Theorem 3.1"), std::string::npos);

  r = good;
  r.colors_used.push_back(PairColor{2, 1}.code());
  EXPECT_NE(verify_modelcheck(r).find("palette"), std::string::npos);

  r = good;
  r.safety_violation = "injected";
  EXPECT_NE(verify_modelcheck(r), "");
}

// ---- seed discipline ----------------------------------------------------

TEST(SeedDiscipline, ScaleRandomInputsDifferAndBothVerify) {
  const ScaleInputs a = small_scale(Topology::random, 11);
  const ScaleInputs b = small_scale(Topology::random, 12);
  EXPECT_NE(graph_hash(a.graph), graph_hash(b.graph));
  EXPECT_NE(a.ids, b.ids);
  EXPECT_TRUE(a.crashes.empty() && b.crashes.empty());
  EXPECT_EQ(verify_scale(a, colour(a)), "");
  EXPECT_EQ(verify_scale(b, colour(b)), "");
}

TEST(SeedDiscipline, ScaleTorusIdsAndCrashSetDifferAndBothVerify) {
  const ScaleInputs a = small_scale(Topology::torus, 11);
  const ScaleInputs b = small_scale(Topology::torus, 12);
  // The torus is one graph; the seed draws the identifiers and crashes.
  EXPECT_EQ(graph_hash(a.graph), graph_hash(b.graph));
  EXPECT_NE(a.ids, b.ids);
  EXPECT_NE(a.crash_set, b.crash_set);
  EXPECT_EQ(verify_scale(a, colour(a)), "");
  EXPECT_EQ(verify_scale(b, colour(b)), "");
}

TEST(SeedDiscipline, CampaignSeedsDifferAndBothVerify) {
  const CampaignOptions oa = make_campaign_options(11, kSmallTrials, 2);
  const CampaignOptions ob = make_campaign_options(12, kSmallTrials, 2);
  EXPECT_NE(oa.seed, ob.seed);
  const CampaignReport ra = run_campaign(oa), rb = run_campaign(ob);
  EXPECT_NE(ra.text, rb.text);
  EXPECT_EQ(verify_campaign(ra, oa.trials), "");
  EXPECT_EQ(verify_campaign(rb, ob.trials), "");
}

TEST(SeedDiscipline, ModelCheckIdsDifferWorkDoesNot) {
  const IdAssignment a = make_mc_ids(11), b = make_mc_ids(12);
  EXPECT_NE(a, b);
  EXPECT_EQ(std::set<std::uint64_t>(a.begin(), a.end()).size(), kMcNodes);
  const ModelCheckResult ra = certify(11), rb = certify(12);
  EXPECT_EQ(verify_modelcheck(ra), "");
  EXPECT_EQ(verify_modelcheck(rb), "");
  // Same order type up to D7: the quotient has the same size on every seed.
  EXPECT_EQ(ra.configs, rb.configs);
  EXPECT_EQ(ra.transitions, rb.transitions);
}

}  // namespace
}  // namespace perfbench
