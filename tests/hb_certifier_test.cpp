#include "analysis/hb/certify.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/algo1_six_coloring.hpp"
#include "core/recovering.hpp"
#include "fuzz/certify_campaign.hpp"
#include "graph/coloring.hpp"
#include "graph/ids.hpp"
#include "runtime/threaded_executor.hpp"

namespace ftcc {
namespace {

bool has_kind(const std::vector<CertifyViolation>& violations,
              const std::string& kind) {
  for (const auto& v : violations)
    if (v.kind == kind) return true;
  return false;
}

std::string kinds(const std::vector<CertifyViolation>& violations) {
  std::string out;
  for (const auto& v : violations) out += "[" + v.kind + "] " + v.message + " ";
  return out;
}

// ---------------------------------------------------------------------------
// Positive certification: real threaded runs, all five algorithms, plain
// and fault-injected, must linearize and re-execute equivalently.
// ---------------------------------------------------------------------------

TEST(Certifier, RealThreadedRunCertifies) {
  const Graph graph = make_cycle(5);
  const IdAssignment ids = random_ids(5, 7);
  SixColoring algo;
  ThreadedExecutor<SixColoring> ex(algo, graph, ids);
  HbLog log;
  ex.attach_hb_log(&log);
  const auto result = ex.run(1000);
  ASSERT_TRUE(result.completed);
  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.linearizable);
  EXPECT_TRUE(report.equivalent);
  EXPECT_EQ(report.events, log.total_events());
  // Rounds re-executed must match the threads' activation counts.
  std::uint64_t acts = 0;
  for (NodeId v = 0; v < 5; ++v) acts += result.activations[v];
  EXPECT_EQ(report.rounds, acts);
  // When the run collapses to the atomic model, the schedule activates
  // each node exactly as often as its thread ran.
  if (report.atomic) {
    std::vector<std::uint64_t> per_node(5, 0);
    for (const auto& sigma : report.atomic_schedule) {
      ASSERT_EQ(sigma.size(), 1u);  // singleton activations
      ++per_node[sigma.front()];
    }
    for (NodeId v = 0; v < 5; ++v)
      EXPECT_EQ(per_node[v], result.activations[v]) << "node " << v;
  }
}

TEST(Certifier, CampaignPlainTrialsAllCertify) {
  CertifyCampaignOptions options;
  options.seed = 2026;
  options.trials = 30;
  options.n_min = 3;
  options.n_max = 6;
  const CertifyCampaignReport report = run_certify_campaign(options);
  EXPECT_EQ(report.trials, 30u);
  EXPECT_EQ(report.certified, 30u)
      << (report.failures.empty() ? "" : report.failures.front().verdict);
  EXPECT_TRUE(report.failures.empty());
}

TEST(Certifier, CampaignFaultTrialsAllCertify) {
  CertifyCampaignOptions options;
  options.seed = 2027;
  options.trials = 30;
  options.n_min = 3;
  options.n_max = 6;
  options.inject_faults = true;
  const CertifyCampaignReport report = run_certify_campaign(options);
  EXPECT_EQ(report.certified, 30u)
      << (report.failures.empty() ? "" : report.failures.front().verdict);
  EXPECT_TRUE(report.failures.empty());
}

TEST(Certifier, StallFaultCertifiesAtSplitOnly) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  ThreadedOptions opts;
  opts.max_read_attempts = 1 << 12;
  opts.faults.push_back({0, ThreadedFault::Kind::stall_mid_publish, 0, 1});
  ThreadedExecutor<SixColoring> ex(algo, graph, ids, opts);
  HbLog log;
  ex.attach_hb_log(&log);
  (void)ex.run(1000);
  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Faulty runs never collapse: the stall has no atomic-model analogue.
  EXPECT_FALSE(report.atomic);
}

TEST(Certifier, CorruptionNeverTouchesAFinishedNodesRegister) {
  // The sequential Executor never corrupts a terminated node's frozen
  // register, so the threaded lowering of corrupt_words must not either:
  // a fault due on a node's terminating activation is dropped, and no
  // adversary write is ever logged in a node's finishing round.  Every
  // node here carries a corruption on each of its first 32 publishes, so
  // whichever round it finishes in has one due.
  using Wrapped = Recovering<SixColoring>;
  const NodeId n = 8;
  const Graph graph = make_cycle(n);
  std::uint64_t adversary_writes = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const IdAssignment ids = random_ids(n, seed);
    ThreadedOptions opts;
    for (NodeId v = 0; v < n; ++v)
      for (std::uint64_t k = 0; k < 32; ++k)
        opts.faults.push_back(
            {v, ThreadedFault::Kind::corrupt_words, k, 0x40000001ULL});
    ThreadedExecutor<Wrapped> ex(Wrapped{}, graph, ids, opts);
    HbLog log;
    ex.attach_hb_log(&log);
    const auto result = ex.run(1'000'000);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(
        is_proper_total(graph, to_partial_coloring<Wrapped>(result.outputs)));
    for (NodeId v = 0; v < n; ++v) {
      const auto& events = log.events(v);
      ASSERT_FALSE(events.empty());
      ASSERT_EQ(events.back().kind, HbEventKind::finish) << "node " << v;
      const std::uint64_t finishing_round = events.back().round;
      for (const HbEvent& e : events) {
        if (e.kind != HbEventKind::adversary) continue;
        ++adversary_writes;
        EXPECT_LT(e.round, finishing_round)
            << "seed " << seed << " node " << v
            << ": adversary write in the finishing round";
      }
    }
    const CertifyReport report = certify_log(Wrapped{}, graph, ids, log);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
  EXPECT_GT(adversary_writes, 0u);  // the faults did fire
}

// ---------------------------------------------------------------------------
// The happens-before analysis on handcrafted logs: each race class the
// seqlock must exclude is detected, with vector clocks agreeing.
// ---------------------------------------------------------------------------

TEST(HbAnalysis, VectorClocksOrderReadsAfterObservedWrites) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(0, {HbEventKind::publish, 0, 0, 2, {1}});
  log.record(1, {HbEventKind::publish, 0, 1, 2, {2}});
  // Node 2 observes node 1's publish: that publish happens-before the read.
  log.record(2, {HbEventKind::read, 0, 1, 2, {2}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  ASSERT_TRUE(analysis.ok) << kinds(analysis.violations);
  ASSERT_EQ(analysis.order.size(), 3u);
  const HbRef pub0{0, 0}, pub1{1, 0}, read2{2, 0};
  // Unrelated events are concurrent; observed writes are ordered.
  EXPECT_TRUE(analysis.concurrent(pub0, pub1));
  EXPECT_TRUE(analysis.concurrent(pub0, read2));
  EXPECT_FALSE(analysis.concurrent(pub1, read2));
  // clock(read2) dominates clock(pub1): one event of node 1 precedes it.
  EXPECT_EQ(analysis.clocks[2][0][1], 1u);
  EXPECT_EQ(analysis.clocks[2][0][2], 1u);
  EXPECT_EQ(analysis.clocks[2][0][0], 0u);
}

TEST(HbAnalysis, DetectsTornRead) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7, 7}});
  // Observed words disagree with what version 2 stored: a mixed read.
  log.record(0, {HbEventKind::read, 0, 1, 2, {7, 9}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "torn-read"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsPublishReadOverlap) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  // Odd observed version: the read returned mid-publish.
  log.record(0, {HbEventKind::read, 0, 1, 3, {7}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "overlap"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsStaleRead) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  log.record(1, {HbEventKind::publish, 1, 1, 4, {8}});
  // Reader sees version 4, then version 2: single-writer versions never
  // go backwards for one observer.
  log.record(0, {HbEventKind::read, 0, 1, 4, {8}});
  log.record(0, {HbEventKind::read, 1, 1, 2, {7}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "stale-read"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsPhantomVersion) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  // Version 6 would require three publishes; only one exists.
  log.record(0, {HbEventKind::read, 0, 1, 6, {7}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "phantom-version"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsDegradedReadWithoutDeadWriter) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  // A bounded-retry timeout is only legal against a stalled writer.
  log.record(0, {HbEventKind::read_timeout, 0, 1, 0, {}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "degraded-read"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsVersionProtocolViolations) {
  const Graph graph = make_cycle(3);
  {
    // First publish must produce version 2.
    HbLog log(3);
    log.record(0, {HbEventKind::publish, 0, 0, 4, {1}});
    const HbAnalysis analysis = analyze_hb(log, graph);
    EXPECT_TRUE(has_kind(analysis.violations, "version-protocol"))
        << kinds(analysis.violations);
  }
  {
    // A publish that does not bump the version (the classic broken
    // seqlock: odd phase skipped, version reused).
    HbLog log(3);
    log.record(0, {HbEventKind::publish, 0, 0, 2, {1}});
    log.record(0, {HbEventKind::publish, 1, 0, 2, {2}});
    const HbAnalysis analysis = analyze_hb(log, graph);
    EXPECT_TRUE(has_kind(analysis.violations, "version-protocol"))
        << kinds(analysis.violations);
  }
}

// ---------------------------------------------------------------------------
// Crash/revive protocol (the multi-process backend's kill -9 semantics):
// a stall is terminal unless a revive follows, a revive needs a crash to
// revive from, and the revived node's next publish heals the odd version.
// ---------------------------------------------------------------------------

TEST(HbAnalysis, StallIsTerminalWithoutARevive) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  log.record(1, {HbEventKind::stall, 1, 1, 3, {}});
  // A SIGKILLed process cannot publish again; a log claiming it did is
  // forged (or the supervisor lost a revive event).
  log.record(1, {HbEventKind::publish, 2, 1, 4, {9}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "malformed"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, ReviveRequiresAPrecedingCrash) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  log.record(1, {HbEventKind::revive, 1, 1, 2, {}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "malformed"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, TornKillThenReviveAndHealingPublishIsLegal) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  // kill -9 mid-publish: version left odd at 3.  The supervisor re-forks
  // the node; its first publish skips the odd phase (the cell is already
  // odd) and lands on 4 — exactly detail::publish_words' healing rule.
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  log.record(1, {HbEventKind::stall, 1, 1, 3, {}});
  log.record(1, {HbEventKind::revive, 1, 1, 3, {}});
  log.record(1, {HbEventKind::publish, 2, 1, 4, {9}});
  // A neighbour that hit the torn window exhausts its retry bound (legal
  // only against a stalled writer), then reads the healed value.
  log.record(0, {HbEventKind::read_timeout, 0, 1, 0, {}});
  log.record(0, {HbEventKind::read, 1, 1, 4, {9}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_TRUE(analysis.ok) << kinds(analysis.violations);
}

TEST(HbAnalysis, ReadOfTheTornVersionIsFlagged) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  log.record(1, {HbEventKind::stall, 1, 1, 3, {}});
  // The only legal observations of a torn cell are the old even value or
  // a retry-exhaustion ⊥; returning the odd version means the reader's
  // seqlock validation is broken.
  log.record(0, {HbEventKind::read, 0, 1, 3, {7}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "overlap"))
      << kinds(analysis.violations);
}

TEST(HbAnalysis, DetectsUnlinearizableCycle) {
  const Graph graph = make_cycle(3);
  HbLog log(3);
  // Each node observed the other's publish BEFORE publishing its own:
  // mutually impossible, the happens-before relation is cyclic.
  log.record(0, {HbEventKind::read, 0, 1, 2, {7}});
  log.record(0, {HbEventKind::publish, 0, 0, 2, {5}});
  log.record(1, {HbEventKind::read, 0, 0, 2, {5}});
  log.record(1, {HbEventKind::publish, 0, 1, 2, {7}});
  const HbAnalysis analysis = analyze_hb(log, graph);
  EXPECT_FALSE(analysis.ok);
  EXPECT_TRUE(has_kind(analysis.violations, "cycle"))
      << kinds(analysis.violations);
  EXPECT_TRUE(analysis.order.empty());
}

// ---------------------------------------------------------------------------
// Decision equivalence: mutating a healthy log must surface as divergence.
// ---------------------------------------------------------------------------

class MutatedRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SixColoring algo;
    ThreadedExecutor<SixColoring> ex(algo, graph_, ids_);
    ex.attach_hb_log(&log_);
    const auto result = ex.run(1000);
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(certify_log(algo, graph_, ids_, log_).ok());
  }

  /// First event of `kind` on any node; asserts one exists.
  std::pair<NodeId, std::size_t> find_event(HbEventKind kind) {
    for (NodeId v = 0; v < log_.node_count(); ++v) {
      const auto& events = log_.events(v);
      for (std::size_t i = 0; i < events.size(); ++i)
        if (events[i].kind == kind &&
            (kind != HbEventKind::read || events[i].version > 0))
          return {v, i};
    }
    ADD_FAILURE() << "no event of requested kind";
    return {0, 0};
  }

  /// Copy the log into a mutable mirror, apply `mutate`, rebuild an HbLog.
  template <typename F>
  CertifyReport certify_mutated(F&& mutate) {
    mutable_log_.clear();
    for (NodeId v = 0; v < log_.node_count(); ++v)
      mutable_log_.push_back(log_.events(v));
    mutate();
    HbLog mutated(log_.node_count());
    for (NodeId v = 0; v < log_.node_count(); ++v)
      for (const HbEvent& e : mutable_log_[v]) mutated.record(v, e);
    SixColoring algo;
    return certify_log(algo, graph_, ids_, mutated);
  }

  Graph graph_ = make_cycle(4);
  IdAssignment ids_ = sorted_ids(4);
  HbLog log_;
  std::vector<std::vector<HbEvent>> mutable_log_;
};

TEST_F(MutatedRunTest, ForgedPublishWordsDiverge) {
  // Change a publish's payload and every read that observed it (so no
  // torn-read fires): the linearization now contradicts publish(state).
  const CertifyReport report = certify_mutated([&] {
    auto [v, i] = find_event(HbEventKind::publish);
    const std::uint64_t version = mutable_log_[v][i].version;
    mutable_log_[v][i].words[0] ^= 0x10;
    for (auto& events : mutable_log_)
      for (HbEvent& e : events)
        if (e.kind == HbEventKind::read && e.peer == v &&
            e.version == version)
          e.words[0] ^= 0x10;
  });
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report.violations, "divergence"))
      << kinds(report.violations);
}

TEST_F(MutatedRunTest, ForgedOutputColorDiverges) {
  const CertifyReport report = certify_mutated([&] {
    auto [v, i] = find_event(HbEventKind::finish);
    mutable_log_[v][i].version ^= 1;  // a different color code
  });
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report.violations, "divergence"))
      << kinds(report.violations);
}

TEST_F(MutatedRunTest, TornWordsInReadAreCaught) {
  const CertifyReport report = certify_mutated([&] {
    auto [v, i] = find_event(HbEventKind::read);
    mutable_log_[v][i].words[0] ^= 0x10;
  });
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report.violations, "torn-read"))
      << kinds(report.violations);
}

// ---------------------------------------------------------------------------
// The seeded negative: a seqlock test double that skips the odd-version
// phase, driven through a deterministic word-granularity interleaving.
// The resulting log is a genuine torn read, caught with a replayable
// witness that reproduces the diagnosis after a disk round trip.
// ---------------------------------------------------------------------------

/// A broken seqlock cell: store() writes payload words first and bumps the
/// version afterwards — readers racing the store validate against the old
/// version and happily return mixed payloads.  The real protocol's odd
/// phase exists precisely to make this impossible.
struct BrokenSeqlockCell {
  std::uint64_t version = 0;
  std::vector<std::uint64_t> words;

  explicit BrokenSeqlockCell(std::size_t k) : words(k, 0) {}

  struct PendingStore {
    std::vector<std::uint64_t> payload;
    std::size_t next_word = 0;
  };
  PendingStore begin_store(std::vector<std::uint64_t> payload) {
    return {std::move(payload), 0};  // no odd-version bump: the bug
  }
  void store_word(PendingStore& store) {
    words[store.next_word] = store.payload[store.next_word];
    ++store.next_word;
  }
  void finish_store(PendingStore& store) {
    while (store.next_word < words.size()) store_word(store);
    version += 2;
  }
  /// What a protocol-following reader observes right now.
  [[nodiscard]] HbEvent read(NodeId owner, std::uint64_t round) const {
    return {HbEventKind::read, round, owner, version, words};
  }
};

TEST(BrokenSeqlock, TornReadCaughtWithReplayableWitness) {
  const Graph graph = make_cycle(3);
  const IdAssignment ids = sorted_ids(3);
  SixColoring algo;
  HbLog log(3);

  // Node 1's cell uses the broken protocol.  Scripted interleaving:
  // publish A completes; publish B gets one word in; node 0 reads — it
  // sees version 2 (still unbumped) with B's first word and A's tail.
  BrokenSeqlockCell cell(SixColoring::kRegisterWords);
  std::vector<std::uint64_t> a, b;
  auto s1 = algo.init(1, ids[1], graph.degree(1));
  algo.publish(s1).encode(a);
  b = a;
  b[0] ^= 0xff;  // any second-round register distinct in word 0
  auto store_a = cell.begin_store(a);
  cell.finish_store(store_a);
  log.record(1, {HbEventKind::publish, 0, 1, 2, a});
  auto store_b = cell.begin_store(b);
  cell.store_word(store_b);  // ... preempted mid-store
  log.record(0, cell.read(1, 0));
  cell.finish_store(store_b);
  log.record(1, {HbEventKind::publish, 1, 1, 4, b});

  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_kind(report.violations, "torn-read"))
      << kinds(report.violations);

  // Dump the witness and reproduce the diagnosis from disk.
  EventLogArtifact witness;
  witness.algo = "six";
  witness.graph_kind = "cycle";
  witness.n = 3;
  witness.ids = ids;
  witness.log = log;
  witness.verdict = "[torn-read] broken test double";
  const std::string path =
      (std::filesystem::temp_directory_path() / "ftcc-broken-seqlock.eventlog")
          .string();
  ASSERT_TRUE(save_event_log(path, witness));
  std::string error;
  const auto loaded = load_event_log(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const CertifyReport replayed = certify_event_log(*loaded);
  EXPECT_FALSE(replayed.ok());
  EXPECT_TRUE(has_kind(replayed.violations, "torn-read"))
      << kinds(replayed.violations);
  std::filesystem::remove(path);
}

CertifyCampaignFailure synthetic_certify_failure() {
  CertifyCampaignFailure failure;
  failure.trial = 3;
  failure.verdict = "[torn-read] synthetic";
  failure.artifact.algo = "six";
  failure.artifact.graph_kind = "cycle";
  failure.artifact.n = 3;
  failure.artifact.ids = sorted_ids(3);
  failure.artifact.log.reset(3);
  failure.artifact.verdict = failure.verdict;
  return failure;
}

TEST(CertifyWitnesses, PersistFillsMissingPaths) {
  CertifyCampaignReport report;
  report.failures.push_back(synthetic_certify_failure());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ftcc-certify-persist")
          .string();
  std::filesystem::remove_all(dir);
  std::ostringstream out;
  std::string error;
  ASSERT_TRUE(persist_witnesses(report.failures, dir, out, error)) << error;
  ASSERT_FALSE(report.failures[0].path.empty());
  EXPECT_EQ(out.str(),
            "witness trial 3: " + report.failures[0].path + "\n");
  EXPECT_TRUE(load_event_log(report.failures[0].path, &error).has_value())
      << error;
  // Already-persisted failures are not saved twice.
  std::ostringstream again;
  EXPECT_TRUE(persist_witnesses(report.failures, dir, again, error));
  EXPECT_TRUE(again.str().empty());
  std::filesystem::remove_all(dir);
}

TEST(CertifyWitnesses, PersistIntoARegularFileFailsWithAMessage) {
  // `tools/fuzz --certify` with a regular file named race-witnesses in
  // the way: the fallback names the problem instead of throwing.
  CertifyCampaignReport report;
  report.failures.push_back(synthetic_certify_failure());
  const std::string blocker =
      (std::filesystem::temp_directory_path() / "ftcc-certify-blocker")
          .string();
  std::filesystem::remove_all(blocker);
  std::ofstream(blocker) << "not a directory\n";
  std::ostringstream out;
  std::string error;
  EXPECT_FALSE(persist_witnesses(report.failures, blocker, out, error));
  EXPECT_NE(error.find(blocker), std::string::npos) << error;
  EXPECT_TRUE(out.str().empty());
  EXPECT_TRUE(report.failures[0].path.empty());
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace ftcc
