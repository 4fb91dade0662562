// Real-concurrency executor: one OS thread per node, registers as
// seqlocks over std::atomic_ref words — no simulation, actual preemptive
// interleaving.
//
// Why this is sound to offer: real hardware does NOT give the paper's
// atomic write-then-read rounds (a thread can be preempted between its
// write and its reads).  That is precisely the *split* semantics of the
// atomicity ablation (E16), under which the exhaustive checker proves:
//   - safety (proper outputs, proper identifiers) for ALL algorithms;
//   - wait-freedom for Algorithm 1 and SixColoringFast.
// So the 6-coloring algorithms run here with full guarantees, and the
// 5-coloring ones remain safe with probabilistic termination (the OS
// scheduler is not a perfectly phase-locked adversary; a bounded-round
// cutoff turns the theoretical livelock tail into a reported timeout).
//
// A node thread loops: seqlock-publish its register; seqlock-read both
// neighbours (bounded retry on torn reads — see below); run the algorithm
// step; repeat until it returns or hits the round cutoff.
//
// Torn reads are retried with exponential backoff, but only up to
// ThreadedOptions::max_read_attempts: a writer that dies mid-publish
// (seqlock version stuck odd) would otherwise peg a reader core forever —
// fatal on single-CPU CI.  An exhausted read degrades to ⊥, the
// sleeping-neighbour value every algorithm tolerates wait-free, and is
// counted in ExecutionResult-adjacent torn_read_timeouts() so tests can
// assert it never fires in healthy runs.
//
// Publish-point fault injection (ThreadedFault) exercises exactly those
// paths: `corrupt_words` XORs the node's k-th published payload in place
// once the activation that published it has finished without terminating
// (through the full seqlock write protocol, so the single-writer rule
// holds; a terminated node's frozen register is never touched, as in the
// sequential Executor), and `stall_mid_publish` leaves the version word
// odd and kills the thread — a writer crashed mid-write.
//
// Algorithms additionally need `kRegisterWords` and `decode_register`
// (see ThreadSafeAlgorithm below); provided for the cycle algorithms.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/algorithm.hpp"
#include "runtime/hb_log.hpp"
#include "runtime/result.hpp"
#include "util/assert.hpp"

namespace ftcc {

/// Extra requirements for running under real threads: a fixed register
/// word count and a coder matching Register::encode's layout.
template <typename A>
concept ThreadSafeAlgorithm = Algorithm<A> && RegisterCodable<A>;

/// A fault injected at a node's publish point (real-concurrency analogue
/// of FaultPlan's register corruption and crash-stop).
struct ThreadedFault {
  enum class Kind : std::uint8_t {
    corrupt_words,      ///< XOR the k-th published payload with `mask`
                        ///< after its activation, unless that terminated
    stall_mid_publish,  ///< die with the seqlock version left odd
  };
  NodeId node = 0;
  Kind kind = Kind::corrupt_words;
  /// Fire on this publish (0 = the node's first publish).
  std::uint64_t after_publishes = 0;
  /// XOR mask for corrupt_words, applied to every payload word.
  std::uint64_t mask = 1;
};

struct ThreadedOptions {
  /// Seqlock read retries before degrading the read to ⊥.  The default is
  /// generous: a healthy writer finishes a publish in nanoseconds, so only
  /// a dead writer ever exhausts this.
  std::uint64_t max_read_attempts = std::uint64_t{1} << 20;
  std::vector<ThreadedFault> faults;
};

template <ThreadSafeAlgorithm A>
class ThreadedExecutor {
 public:
  using Register = typename A::Register;
  using Output = typename A::Output;

  ThreadedExecutor(A algo, const Graph& graph, const IdAssignment& ids,
                   ThreadedOptions options = {})
      : algo_(std::move(algo)), graph_(&graph), options_(std::move(options)) {
    FTCC_EXPECTS(ids.size() == graph.node_count());
    const auto n = graph.node_count();
    cells_.assign(static_cast<std::size_t>(n) * kCellWords, 0);
    outputs_.resize(n);
    activations_.assign(n, 0);
    torn_read_timeouts_.assign(n, 0);
    stalled_.assign(n, 0);
    faults_.resize(n);
    for (const ThreadedFault& f : options_.faults) {
      FTCC_EXPECTS(f.node < n);
      faults_[f.node].push_back(f);
    }
    ids_ = ids;
  }

  /// Attach a happens-before event log filled during run() — every seqlock
  /// publish, neighbour read (with observed version), fault, and return is
  /// recorded per node for the race certifier (src/analysis/hb/).  The log
  /// must outlive the executor; pass nullptr to detach.  Each node's
  /// thread writes only its own slot, so recording is synchronization-free.
  void attach_hb_log(HbLog* log) { hb_log_ = log; }

  /// Attach a metric bundle (obs::ThreadedMetrics::create).  Node threads
  /// accumulate counts in a stack-local struct and flush them into the
  /// shared atomic cells exactly once, when the thread finishes — the hot
  /// publish/read loop sees only plain integer increments, which is what
  /// keeps the instrumented executor within noise of the baseline (see
  /// bench_obs).  The cells must outlive the executor.
  void attach_metrics(const obs::ThreadedMetrics* metrics) {
    metrics_ = metrics;
  }

  /// Run every node on its own thread until all return or any node
  /// exhausts max_rounds (reported as completed = false for that node).
  ExecutionResult<Output> run(std::uint64_t max_rounds) {
    const NodeId n = graph_->node_count();
    if (hb_log_) hb_log_->reset(n);
    // A node due to stall on its first publish lives init → publish →
    // stall.  Running it to completion before any other thread starts is
    // a legal schedule, and it leaves the odd seqlock version visible to
    // every neighbour's first read, so each of them meets the dead writer
    // instead of racing ahead of it and reading ⊥ (version 0).
    std::vector<std::uint8_t> ran_inline(n, 0);
    for (const ThreadedFault& f : options_.faults) {
      if (f.kind != ThreadedFault::Kind::stall_mid_publish ||
          f.after_publishes != 0 || ran_inline[f.node])
        continue;
      ran_inline[f.node] = 1;
      node_main(f.node, max_rounds);
    }
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (NodeId v = 0; v < n; ++v)
      if (!ran_inline[v])
        threads.emplace_back(
            [this, v, max_rounds] { node_main(v, max_rounds); });
    for (auto& t : threads) t.join();

    ExecutionResult<Output> result;
    result.activations = activations_;
    result.outputs = outputs_;
    result.crashed.assign(n, false);
    result.fates.assign(n, NodeFate::timed_out);
    result.completed = true;
    for (NodeId v = 0; v < n; ++v) {
      if (outputs_[v]) {
        result.fates[v] = NodeFate::terminated;
      } else if (stalled_[v]) {
        // A mid-publish death is a crash: the node is gone for good.
        result.fates[v] = NodeFate::crashed;
        result.crashed[v] = true;
      } else {
        result.completed = false;
      }
    }
    result.steps = result.max_activations();
    return result;
  }

  /// How often node v gave up on a torn read and proceeded with ⊥ (only a
  /// writer dead mid-publish can cause this; 0 in healthy runs).
  [[nodiscard]] std::uint64_t torn_read_timeouts(NodeId v) const {
    return torn_read_timeouts_[v];
  }

 private:
  /// Per-thread metric accumulator (plain integers; no sharing until the
  /// owning thread flushes it at exit).
  struct LocalCounts {
    std::uint64_t activations = 0;
    std::uint64_t publishes = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t read_timeouts = 0;
    std::uint64_t stalls = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t terminations = 0;
    std::optional<std::uint64_t> rounds_to_finish;
  };

  void flush_counts(const LocalCounts& c) const {
    if (!metrics_) return;
    metrics_->activations->inc(c.activations);
    metrics_->publishes->inc(c.publishes);
    metrics_->read_retries->inc(c.read_retries);
    metrics_->read_timeouts->inc(c.read_timeouts);
    metrics_->stalls->inc(c.stalls);
    metrics_->corruptions->inc(c.corruptions);
    metrics_->terminations->inc(c.terminations);
    if (c.rounds_to_finish)
      metrics_->rounds_to_finish->observe(*c.rounds_to_finish);
  }

  /// Flushes a LocalCounts on every exit path out of node_main.
  class CountsFlusher {
   public:
    CountsFlusher(const ThreadedExecutor* ex, const LocalCounts* counts)
        : ex_(ex), counts_(counts) {}
    ~CountsFlusher() { ex_->flush_counts(*counts_); }
    CountsFlusher(const CountsFlusher&) = delete;
    CountsFlusher& operator=(const CountsFlusher&) = delete;

   private:
    const ThreadedExecutor* ex_;
    const LocalCounts* counts_;
  };

  // Seqlock cell layout per node: [version][payload words].  Even version
  // = stable; writers bump to odd, store payload, bump to even; readers
  // retry until two equal even version reads bracket the payload.
  static constexpr std::size_t kCellWords = 1 + A::kRegisterWords;

  [[nodiscard]] std::atomic_ref<std::uint64_t> word(NodeId v,
                                                    std::size_t i) {
    return std::atomic_ref<std::uint64_t>(
        cells_[static_cast<std::size_t>(v) * kCellWords + i]);
  }

  /// Full seqlock write protocol; returns the resulting (even) version.
  std::uint64_t store_words(NodeId v, const std::vector<std::uint64_t>& words) {
    auto version = word(v, 0);
    const std::uint64_t odd = version.load(std::memory_order_relaxed) + 1;
    version.store(odd, std::memory_order_release);
    for (std::size_t i = 0; i < words.size(); ++i)
      word(v, i + 1).store(words[i], std::memory_order_relaxed);
    version.store(odd + 1, std::memory_order_release);
    return odd + 1;
  }

  /// Publish `reg` (its encoding is left in `words`), then apply any stall
  /// due at this publish.  Returns false if the node died mid-publish and
  /// must stop its thread.
  [[nodiscard]] bool publish(NodeId v, const Register& reg,
                             std::uint64_t publish_index,
                             std::vector<std::uint64_t>& words,
                             LocalCounts& c) {
    words.clear();
    reg.encode(words);
    FTCC_EXPECTS(words.size() == A::kRegisterWords);
    const std::uint64_t version = store_words(v, words);
    ++c.publishes;
    if (hb_log_)
      hb_log_->record(v, {HbEventKind::publish, publish_index, v, version,
                          words});
    for (const ThreadedFault& f : faults_[v]) {
      if (f.after_publishes != publish_index ||
          f.kind != ThreadedFault::Kind::stall_mid_publish)
        continue;
      // Die mid-write: version goes odd, half the payload lands, and the
      // closing even store never happens.
      auto version_word = word(v, 0);
      const std::uint64_t odd =
          version_word.load(std::memory_order_relaxed) + 1;
      version_word.store(odd, std::memory_order_release);
      if (!words.empty())
        word(v, 1).store(~words[0], std::memory_order_relaxed);
      stalled_[v] = 1;
      ++c.stalls;
      if (hb_log_)
        hb_log_->record(v, {HbEventKind::stall, publish_index, v, odd, {}});
      return false;
    }
    return true;
  }

  /// Apply the corrupt_words faults due on publish `publish_index` after
  /// the activation that made it, which did NOT terminate: the XORed
  /// payload is rewritten through the full seqlock protocol and logged as
  /// an adversary event before the node's next publish.  This is the
  /// sequential Executor's activation-boundary semantics — a terminated
  /// node's frozen register is off-limits, so a fault due on a
  /// terminating activation never fires.
  void corrupt_published(NodeId v, std::uint64_t publish_index,
                         std::vector<std::uint64_t>& words, LocalCounts& c) {
    for (const ThreadedFault& f : faults_[v]) {
      if (f.after_publishes != publish_index ||
          f.kind != ThreadedFault::Kind::corrupt_words)
        continue;
      for (auto& w : words) w ^= f.mask;
      const std::uint64_t version = store_words(v, words);
      ++c.corruptions;
      if (hb_log_)
        hb_log_->record(v, {HbEventKind::adversary, publish_index, v, version,
                            words});
    }
  }

  [[nodiscard]] std::optional<Register> read(NodeId reader, NodeId v,
                                             std::uint64_t round,
                                             LocalCounts& c) {
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (attempt >= options_.max_read_attempts) {
        // The writer died mid-publish; proceed as if v never woke.
        ++torn_read_timeouts_[reader];
        c.read_retries += attempt;
        ++c.read_timeouts;
        if (hb_log_)
          hb_log_->record(reader,
                          {HbEventKind::read_timeout, round, v, 0, {}});
        return std::nullopt;
      }
      backoff(attempt);
      const std::uint64_t v1 = word(v, 0).load(std::memory_order_acquire);
      if (v1 == 0) {  // never written: ⊥
        c.read_retries += attempt;
        if (hb_log_)
          hb_log_->record(reader, {HbEventKind::read, round, v, 0, {}});
        return std::nullopt;
      }
      if (v1 % 2 != 0) continue;  // writer in progress
      std::uint64_t words[8];
      FTCC_EXPECTS(A::kRegisterWords <= 8);
      for (std::size_t i = 0; i < A::kRegisterWords; ++i)
        words[i] = word(v, i + 1).load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t v2 = word(v, 0).load(std::memory_order_relaxed);
      if (v1 == v2) {
        c.read_retries += attempt;
        if (hb_log_)
          hb_log_->record(
              reader, {HbEventKind::read, round, v, v1,
                       std::vector<std::uint64_t>(words,
                                                  words + A::kRegisterWords)});
        return A::decode_register(
            std::span<const std::uint64_t>(words, A::kRegisterWords));
      }
    }
  }

  /// Exponential backoff: spin briefly, then yield with geometrically
  /// increasing frequency so a reader blocked on a slow (or dead) writer
  /// releases its core instead of pegging it — the difference between a
  /// microsecond hiccup and a livelock on single-CPU CI.
  static void backoff(std::uint64_t attempt) {
    if (attempt < 64) return;  // fast path: torn reads resolve in a few spins
    if (attempt < 4096) {
      // Yield on powers of two: 64, 128, 256, ... — exponentially rarer
      // spinning between increasingly long waits.
      if ((attempt & (attempt - 1)) == 0) std::this_thread::yield();
      return;
    }
    std::this_thread::yield();  // saturated: cede the core every attempt
  }

  void node_main(NodeId v, std::uint64_t max_rounds) {
    LocalCounts counts;
    CountsFlusher flusher(this, &counts);
    auto state = algo_.init(v, ids_[v], graph_->degree(v));
    const auto neighbors = graph_->neighbors(v);
    std::vector<std::optional<Register>> view(neighbors.size());
    std::vector<std::uint64_t> words;  // the last published payload
    words.reserve(A::kRegisterWords);
    for (std::uint64_t round = 0; round < max_rounds; ++round) {
      if (!publish(v, algo_.publish(state), round, words, counts)) return;
      for (std::size_t i = 0; i < neighbors.size(); ++i)
        view[i] = read(v, neighbors[i], round, counts);
      ++activations_[v];
      ++counts.activations;
      auto out = algo_.step(state, NeighborView<Register>(view));
      if (out) {
        outputs_[v] = std::move(*out);
        counts.terminations = 1;
        counts.rounds_to_finish = round + 1;
        if (hb_log_)
          hb_log_->record(
              v, {HbEventKind::finish, round, v, A::color_code(*outputs_[v]),
                  {}});
        return;
      }
      corrupt_published(v, round, words, counts);
      if (round % 16 == 15) std::this_thread::yield();
    }
  }

  A algo_;
  const Graph* graph_;
  ThreadedOptions options_;
  IdAssignment ids_;
  std::vector<std::uint64_t> cells_;  // seqlock cells, kCellWords per node
  std::vector<std::optional<Output>> outputs_;
  std::vector<std::uint64_t> activations_;
  // Slot v is written only by thread v and read after join.
  std::vector<std::uint64_t> torn_read_timeouts_;
  std::vector<std::uint8_t> stalled_;
  std::vector<std::vector<ThreadedFault>> faults_;
  HbLog* hb_log_ = nullptr;
  const obs::ThreadedMetrics* metrics_ = nullptr;
};

}  // namespace ftcc
