// The parallel-campaign determinism contract (DESIGN.md §10): for any
// --jobs value the schedule campaign produces byte-identical reports,
// identical tallies, and identical shrunk witnesses, because sub-seeds
// are pre-drawn in trial order and the merge concatenates per-trial
// chunks in trial order.  jobs == 1 is the sequential loop itself, so
// comparing jobs=1 against jobs=8 pins parallel runs to the exact
// sequential behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/certify_campaign.hpp"
#include "fuzz/schedule_io.hpp"

namespace ftcc {
namespace {

CampaignOptions small_options() {
  CampaignOptions options;
  options.seed = 0x5eed5eed;
  options.trials = 40;
  options.n_min = 4;
  options.n_max = 12;
  return options;
}

CampaignReport run_with_jobs(CampaignOptions options, unsigned jobs) {
  options.jobs = jobs;
  return run_campaign(options);
}

/// FNV-1a 64 over a report's text.  The golden values below pin the
/// exact report bytes of fixed-seed campaigns: any drift in trial
/// generation, trial bodies, shrinking, or the campaign core's merge
/// (runtime/campaign.hpp) changes them.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ParallelCampaign, MixedFaultReportMatchesGoldenDigest) {
  CampaignOptions options;
  options.seed = 20260806;
  options.trials = 200;
  options.fault_mode = FaultMode::mixed;
  options.wrap = true;
  const CampaignReport report = run_with_jobs(options, 2);
  EXPECT_EQ(report.trials, 200u);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(fnv1a(report.text), 0xc97e4ce2cfedd2e3ULL);
}

TEST(ParallelCampaign, ShrinkingReportMatchesGoldenDigest) {
  CampaignOptions options = small_options();
  options.trials = 20;
  options.inject = InjectedFault::no_termination;
  options.shrink = true;
  const CampaignReport report = run_with_jobs(options, 2);
  ASSERT_EQ(report.failures.size(), 20u);
  EXPECT_EQ(fnv1a(report.text), 0xa56728ec181c391fULL);
}

TEST(ParallelCampaign, CleanCampaignIsByteIdenticalAcrossJobs) {
  const CampaignOptions options = small_options();
  const CampaignReport sequential = run_with_jobs(options, 1);
  const CampaignReport parallel = run_with_jobs(options, 8);
  EXPECT_EQ(sequential.text, parallel.text);
  EXPECT_EQ(sequential.trials, parallel.trials);
  EXPECT_EQ(sequential.ok, parallel.ok);
  EXPECT_EQ(sequential.censored, parallel.censored);
  EXPECT_EQ(sequential.failures.size(), parallel.failures.size());
}

TEST(ParallelCampaign, ShrunkWitnessesMatchAcrossJobs) {
  // Failures exercise the whole per-trial pipeline (record → shrink →
  // artifact) inside worker threads; the witnesses must still be the ones
  // the sequential run produces, byte for byte.
  CampaignOptions options = small_options();
  options.trials = 8;
  options.inject = InjectedFault::no_termination;
  const CampaignReport sequential = run_with_jobs(options, 1);
  const CampaignReport parallel = run_with_jobs(options, 8);
  EXPECT_EQ(sequential.text, parallel.text);
  ASSERT_FALSE(sequential.failures.empty());
  ASSERT_EQ(sequential.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < sequential.failures.size(); ++i) {
    const CampaignFailure& a = sequential.failures[i];
    const CampaignFailure& b = parallel.failures[i];
    EXPECT_EQ(a.trial, b.trial);
    EXPECT_EQ(a.violation, b.violation);
    EXPECT_EQ(a.original_n, b.original_n);
    EXPECT_EQ(a.original_steps, b.original_steps);
    EXPECT_EQ(serialize_schedule(a.shrink.artifact),
              serialize_schedule(b.shrink.artifact));
  }
}

TEST(ParallelCampaign, MixedFaultWrappedCampaignIsJobsInvariant) {
  // Fault drawing consumes extra RNG inside each trial; an odd jobs value
  // (worker count not dividing the trial count) must not perturb it.
  CampaignOptions options = small_options();
  options.trials = 30;
  options.fault_mode = FaultMode::mixed;
  options.wrap = true;
  const CampaignReport sequential = run_with_jobs(options, 1);
  const CampaignReport parallel = run_with_jobs(options, 3);
  EXPECT_EQ(sequential.text, parallel.text);
  EXPECT_EQ(sequential.ok, parallel.ok);
  EXPECT_EQ(sequential.censored, parallel.censored);
  for (const auto& failure : sequential.failures)
    ADD_FAILURE() << "trial " << failure.trial << ": " << failure.violation;
}

TEST(ParallelCampaign, ProgressIsMonotoneAndCompleteUnderParallelJobs) {
  CampaignOptions options = small_options();
  options.jobs = 8;
  options.progress_every = 7;
  std::vector<CampaignProgress> snaps;
  // The tally serialises callbacks under its report mutex, so a plain
  // vector is safe here even with 8 workers recording.
  options.on_progress = [&](const CampaignProgress& p) {
    snaps.push_back(p);
  };
  const CampaignReport report = run_campaign(options);
  ASSERT_FALSE(snaps.empty());
  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_GT(snaps[i].done, snaps[i - 1].done);
  EXPECT_EQ(snaps.back().done, options.trials);
  EXPECT_EQ(snaps.back().total, options.trials);
  EXPECT_EQ(snaps.back().ok, report.ok);
  EXPECT_EQ(snaps.back().censored, report.censored);
  EXPECT_EQ(snaps.back().failures, report.failures.size());
}

TEST(ParallelCampaign, CertifyCampaignRunsEveryTrialUnderParallelJobs) {
  // Certify trials spawn their own node threads; the pool multiplies them
  // (deliberately — cross-trial scheduler pressure).  The text is not
  // byte-deterministic, but every trial must run and certify.
  CertifyCampaignOptions options;
  options.seed = 0xce57;
  options.trials = 6;
  options.n_min = 3;
  options.n_max = 5;
  options.jobs = 2;
  const CertifyCampaignReport report = run_certify_campaign(options);
  EXPECT_EQ(report.trials, 6u);
  EXPECT_EQ(report.certified, 6u);
  for (const auto& failure : report.failures)
    ADD_FAILURE() << "trial " << failure.trial << ": " << failure.verdict;
}

}  // namespace
}  // namespace ftcc
