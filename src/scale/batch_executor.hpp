// The million-node campaign engine (DESIGN.md §15, ROADMAP item 3).
//
// BatchExecutor is a structure-of-arrays re-implementation of the
// synchronous special case of Executor<A>: every sweep activates exactly
// the working set, i.e. it replays Executor::run driven by a scheduler
// whose σ(t) is always "all working nodes".  That special case is the one
// that matters at scale — a full-coverage schedule finishes Algorithm 4 in
// O(chain length) sweeps — and restricting to it is what makes the
// per-node bookkeeping collapse into flat arrays:
//
//   - each node's published register is one record in a flat array keyed
//     by NodeId (Algorithm 4: a 16-byte {x, a, b}, so one neighbour read
//     touches one cache line); private state lives in plain columns,
//     walked in index order.  Presence rides in the record: reset() fills
//     every colour component with kAbsent, a value no colour component can
//     take, so "ever published" is `a != kAbsent` and needs no bitmap;
//   - termination and crash are one bit per node in packed word bitmaps;
//     the frontier bitmap (= working set) drives the sweep in ascending
//     index order.  Neighbour records of a random graph sit at random
//     addresses, so the read phase runs a second frontier cursor a fixed
//     number of nodes ahead and prefetches those nodes' neighbour records,
//     keeping several cache misses in flight instead of one;
//   - the mex/palette inner loop is branchless: neighbour colours are
//     deposited into a 128-bit ColorBitset with arithmetic masks (no
//     compare-and-branch per neighbour) and mex() is two countr_one
//     instructions.  Colour components are mex results over ≤ Δ ≤ 64
//     values, hence ≤ 64 < 128 — the bitset never overflows, and a
//     component fits a std::uint32_t losslessly.
//
// Semantics are pinned, not approximated: for every graph, id assignment,
// and crash-stop plan, run() must produce an ExecutionResult that is
// field-for-field equal (outputs, fates, crashed, activations, steps,
// completed) to Executor<A>::run under a synchronous scheduler.
// tests/scale_differential_test.cpp enforces this across seeds, topologies
// and crash plans; every ordering subtlety of Executor::step — the crash
// phase at step start skipped entirely for empty plans, terminated nodes
// still acquiring the crashed bit, the post-activation crashes_at probe —
// is replicated here on purpose.  Crash-stop is the only fault model the
// batch path supports (the paper's adversary); crash-recovery and
// corruption stay with the sequential executor.
//
// Like Executor, a BatchExecutor is reusable: reset() re-arms it for a new
// trial while keeping every column and bitmap it ever grew, and a
// steady-state sweep performs zero heap allocations (asserted by
// tests/executor_alloc_test.cpp).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/id_reduction.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/crash.hpp"
#include "runtime/result.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace ftcc {

/// Fixed-size colour set for the branchless mex loops.  set_if deposits a
/// colour under an arithmetic mask — cond must be 0 or 1 — so the neighbour
/// loop compiles to straight-line ALU code.  Callers guarantee c < 128;
/// the batch kernels only ever insert colour components, which are mex
/// results over at most Δ ≤ 64 values and therefore at most 64.
class ColorBitset {
 public:
  void clear() noexcept { w_[0] = w_[1] = 0; }
  void set_if(std::uint64_t c, std::uint64_t cond) noexcept {
    w_[(c >> 6) & 1] |= cond << (c & 63);
  }
  /// Smallest colour not in the set.
  [[nodiscard]] std::uint64_t mex() const noexcept {
    const int low = std::countr_one(w_[0]);
    return low < 64 ? static_cast<std::uint64_t>(low)
                    : 64u + static_cast<std::uint64_t>(std::countr_one(w_[1]));
  }

 private:
  std::uint64_t w_[2] = {0, 0};
};

/// Colour-component value of a register that was never published (⊥).
/// Live components are mex results over ≤ Δ ≤ 64 values, so they never
/// reach it: a conflict test against kAbsent is always false, and a
/// presence test is `a != kAbsent`.
inline constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

/// Narrows a colour component into a register record.  Components are
/// mex results over at most Δ ≤ 64 values, so the narrowing is lossless
/// and never produces kAbsent.
[[nodiscard]] inline std::uint32_t register_component(std::uint64_t c) {
  FTCC_EXPECTS(c <= 64);
  return static_cast<std::uint32_t>(c);
}

/// Per-algorithm column sets.  A specialization provides the layout plus
/// publish/step kernels that mirror the algorithm's publish()/step()
/// exactly (same conflict test, same mex pools, same update order) and a
/// prefetch hook the sweep calls a few frontier nodes ahead.  Only
/// specialized algorithms run on the batch path — instantiating the
/// primary template is a compile error.
template <typename A>
struct BatchColumns;

/// Algorithm 4 (DeltaSquaredColoring): private state columns a/b and one
/// published register record per node.  The identifier x is immutable,
/// so the record's x is the only copy of it.
template <>
struct BatchColumns<DeltaSquaredColoring> {
  using Output = DeltaSquaredColoring::Output;

  /// One neighbour read = one 16-byte load from one cache line.
  struct alignas(16) Reg {
    std::uint64_t x;
    std::uint32_t a, b;
  };
  static_assert(sizeof(Reg) == 16);

  std::vector<std::uint64_t> a, b;  // private state
  std::vector<Reg> reg;             // published register (x, a, b)

  void reset(const Graph& g, const IdAssignment& ids) {
    const NodeId n = g.node_count();
    // Same admission check as DeltaSquaredColoring::init.
    for (NodeId v = 0; v < n; ++v)
      FTCC_EXPECTS(g.degree(v) >= 1 &&
                   g.degree(v) <= DeltaSquaredColoring::kMaxDegree);
    a.assign(n, 0);
    b.assign(n, 0);
    reg.resize(n);
    for (NodeId v = 0; v < n; ++v) reg[v] = Reg{ids[v], kAbsent, kAbsent};
  }

  void publish(NodeId v) noexcept {
    reg[v].a = register_component(a[v]);
    reg[v].b = register_component(b[v]);
  }

  void prefetch(std::span<const NodeId> neigh) const noexcept {
    for (const NodeId u : neigh) __builtin_prefetch(&reg[u]);
  }

  /// One activation of v against its neighbours' published records.  An
  /// absent record (kAbsent) never conflicts and deposits nothing.
  /// Returns true on termination, filling `out`.
  bool step(NodeId v, std::span<const NodeId> neigh, Output& out) noexcept {
    const std::uint64_t sx = reg[v].x, sa = a[v], sb = b[v];
    std::uint64_t conflict = 0;
    for (const NodeId u : neigh) {
      const Reg r = reg[u];
      conflict |= static_cast<std::uint64_t>(r.a == sa) &
                  static_cast<std::uint64_t>(r.b == sb);
    }
    if (!conflict) {
      out = Output{sa, sb};
      return true;
    }
    ColorBitset higher_a, lower_b;
    higher_a.clear();
    lower_b.clear();
    for (const NodeId u : neigh) {
      const Reg r = reg[u];
      const std::uint64_t pres = static_cast<std::uint64_t>(r.a != kAbsent);
      higher_a.set_if(r.a, pres & static_cast<std::uint64_t>(r.x > sx));
      lower_b.set_if(r.b, pres & static_cast<std::uint64_t>(r.x < sx));
    }
    a[v] = higher_a.mex();
    b[v] = lower_b.mex();
    return false;
  }

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return (a.capacity() + b.capacity()) * sizeof(std::uint64_t) +
           reg.capacity() * sizeof(Reg);
  }
};

/// SixColoringFast: Algorithm 1's pair colouring plus the Cole–Vishkin
/// identifier reduction, so x and r are mutable columns alongside a/b and
/// the record carries all four.  Cycle-only (degree exactly 2), like the
/// sequential init, so neighbour reads are sequential and the prefetch
/// hook is a no-op.
template <>
struct BatchColumns<SixColoringFast> {
  using Output = SixColoringFast::Output;

  struct Reg {
    std::uint64_t x, r;
    std::uint32_t a, b;
  };

  std::vector<std::uint64_t> x, r, a, b;  // private state
  std::vector<Reg> reg;                   // published register (x, r, a, b)

  void reset(const Graph& g, const IdAssignment& ids) {
    const NodeId n = g.node_count();
    for (NodeId v = 0; v < n; ++v)
      FTCC_EXPECTS(g.degree(v) == 2);  // a cycle algorithm
    x.assign(ids.begin(), ids.end());
    r.assign(n, 0);
    a.assign(n, 0);
    b.assign(n, 0);
    reg.assign(n, Reg{0, 0, kAbsent, kAbsent});
  }

  void publish(NodeId v) noexcept {
    reg[v] = Reg{x[v], r[v], register_component(a[v]),
                 register_component(b[v])};
  }

  void prefetch(std::span<const NodeId>) const noexcept {}

  bool step(NodeId v, std::span<const NodeId> neigh, Output& out) noexcept {
    const Reg r0 = reg[neigh[0]], r1 = reg[neigh[1]];
    const std::uint64_t p0 = static_cast<std::uint64_t>(r0.a != kAbsent);
    const std::uint64_t p1 = static_cast<std::uint64_t>(r1.a != kAbsent);
    const std::uint64_t sx = x[v], sa = a[v], sb = b[v];
    const std::uint64_t conflict = (static_cast<std::uint64_t>(r0.a == sa) &
                                    static_cast<std::uint64_t>(r0.b == sb)) |
                                   (static_cast<std::uint64_t>(r1.a == sa) &
                                    static_cast<std::uint64_t>(r1.b == sb));
    if (!conflict) {
      out = Output{sa, sb};
      return true;
    }
    ColorBitset higher_a, lower_b;
    higher_a.set_if(r0.a, p0 & static_cast<std::uint64_t>(r0.x > sx));
    higher_a.set_if(r1.a, p1 & static_cast<std::uint64_t>(r1.x > sx));
    lower_b.set_if(r0.b, p0 & static_cast<std::uint64_t>(r0.x < sx));
    lower_b.set_if(r1.b, p1 & static_cast<std::uint64_t>(r1.x < sx));
    a[v] = higher_a.mex();
    b[v] = lower_b.mex();
    // Identifier reduction, gated like the sequential step on both
    // neighbour registers being non-⊥.
    if (p0 & p1) cv_identifier_update(x[v], r[v], r0.x, r0.r, r1.x, r1.r);
    return false;
  }

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return (x.capacity() + r.capacity() + a.capacity() + b.capacity()) *
               sizeof(std::uint64_t) +
           reg.capacity() * sizeof(Reg);
  }
};

template <typename A>
class BatchExecutor {
 public:
  using Output = typename BatchColumns<A>::Output;

  BatchExecutor() = default;
  explicit BatchExecutor(const Graph& graph, const IdAssignment& ids,
                         CrashPlan crashes = {}) {
    reset(graph, ids, std::move(crashes));
  }

  /// Re-arm for a fresh trial, reusing every column and bitmap this
  /// executor ever grew.  `graph` must outlive the next run.
  void reset(const Graph& graph, const IdAssignment& ids,
             CrashPlan crashes = {}) {
    FTCC_EXPECTS(ids.size() == graph.node_count());
    graph_ = &graph;
    crashes_ = std::move(crashes);
    const NodeId n = graph.node_count();
    const std::size_t words = word_count(n);
    cols_.reset(graph, ids);
    frontier_.assign(words, ~std::uint64_t{0});
    if (n % 64 != 0 && words > 0)
      frontier_.back() = (std::uint64_t{1} << (n % 64)) - 1;
    terminated_.assign(words, 0);
    crashed_.assign(words, 0);
    activations_.assign(n, 0);
    out_a_.assign(n, 0);
    out_b_.assign(n, 0);
    metrics_ = nullptr;
    pending_ = PendingMetrics{};
    now_ = 0;
  }

  /// Attach an obs::BatchMetrics bundle; the cells must outlive the
  /// executor.  Events accumulate in plain per-executor integers and reach
  /// the shared atomic cells in one flush_metrics() pass at the end of
  /// run() — the same batching discipline as the sequential executor.
  void attach_metrics(const obs::BatchMetrics* metrics) { metrics_ = metrics; }

  void flush_metrics() {
    if (!metrics_) return;
    if (pending_.activations) metrics_->activations->inc(pending_.activations);
    if (pending_.sweeps) {
      metrics_->sweeps->inc(pending_.sweeps);
      metrics_->frontier_size->merge_buckets(pending_.frontier_buckets,
                                             pending_.frontier_sum);
    }
    if (pending_.crashes) metrics_->crashes->inc(pending_.crashes);
    if (pending_.terminations)
      metrics_->terminations->inc(pending_.terminations);
    pending_ = PendingMetrics{};
  }

  /// One synchronous time step: activate every node in the frontier, in
  /// ascending index order.  Mirrors Executor::step with σ = the working
  /// set — crash phase first (skipped entirely when the plan is empty,
  /// matching apply_step_faults), then all simultaneous writes, then all
  /// reads + transitions with the post-activation crash probe.  Returns
  /// the number of nodes activated.  Zero heap allocations.
  std::size_t sweep() {
    const NodeId n = graph_->node_count();
    ++now_;
    if (!crashes_.empty()) {
      for (NodeId v = 0; v < n; ++v) {
        if (!test(crashed_, v) &&
            crashes_.crashes_at(v, now_, activations_[v])) {
          set_bit(crashed_, v);
          clear_bit(frontier_, v);
          if (metrics_ && !test(terminated_, v)) ++pending_.crashes;
        }
      }
    }
    // Phase 1: all simultaneous writes, walking the frontier in index
    // order.  A publish also marks the record present (a != kAbsent).
    std::size_t activated = 0;
    for (std::size_t w = 0; w < frontier_.size(); ++w) {
      std::uint64_t bits = frontier_[w];
      activated += static_cast<std::size_t>(std::popcount(bits));
      while (bits != 0) {
        const NodeId v = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        cols_.publish(v);
      }
    }
    // Phases 2+3: reads and private transitions.  Registers were all
    // published above, so the records already hold the simultaneous
    // snapshot.  Terminating or crashing only clears the node's own
    // frontier bit, so the per-word snapshot `bits` stays valid — and so
    // does the lookahead cursor's, which only ever loads a word the main
    // cursor has not reached yet.  The lookahead runs kLookahead frontier
    // nodes ahead and prefetches their neighbours' records.
    FrontierCursor ahead{frontier_.data(), frontier_.size()};
    for (std::size_t i = 0; i < kLookahead; ++i) prefetch_next(ahead);
    for (std::size_t w = 0; w < frontier_.size(); ++w) {
      std::uint64_t bits = frontier_[w];
      while (bits != 0) {
        const NodeId v = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        prefetch_next(ahead);
        ++activations_[v];
        Output out;
        if (cols_.step(v, graph_->neighbors(v), out)) {
          out_a_[v] = out.a;
          out_b_[v] = out.b;
          set_bit(terminated_, v);
          clear_bit(frontier_, v);
          if (metrics_) ++pending_.terminations;
        }
        if (crashes_.crashes_at(v, now_, activations_[v])) {
          set_bit(crashed_, v);
          clear_bit(frontier_, v);
          if (metrics_) ++pending_.crashes;
        }
      }
    }
    if (metrics_) {
      pending_.activations += activated;
      ++pending_.sweeps;
      ++pending_.frontier_buckets[log2_bucket_index(activated)];
      pending_.frontier_sum += activated;
    }
    return activated;
  }

  /// Sweep until the frontier drains or the step budget is exhausted,
  /// then materialize the result.  Field-for-field equal to
  /// Executor::run under a synchronous full-coverage scheduler.
  ExecutionResult<Output> run(std::uint64_t max_steps) {
    while (now_ < max_steps && !frontier_empty()) sweep();
    ExecutionResult<Output> result;
    const NodeId n = graph_->node_count();
    result.completed = frontier_empty();
    result.steps = now_;
    result.activations = activations_;
    result.outputs.assign(n, std::nullopt);
    result.crashed.assign(n, false);
    result.fates.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      if (test(terminated_, v)) {
        result.outputs[v] = Output{out_a_[v], out_b_[v]};
      }
      if (test(crashed_, v)) result.crashed[v] = true;
      result.fates[v] = test(terminated_, v) ? NodeFate::terminated
                        : test(crashed_, v) ? NodeFate::crashed
                                            : NodeFate::timed_out;
    }
    flush_metrics();
    return result;
  }

  // --- Introspection (tests, benches) ---------------------------------
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  [[nodiscard]] bool is_working(NodeId v) const { return test(frontier_, v); }
  [[nodiscard]] bool has_terminated(NodeId v) const {
    return test(terminated_, v);
  }
  [[nodiscard]] bool has_crashed(NodeId v) const { return test(crashed_, v); }
  [[nodiscard]] std::uint64_t activation_count(NodeId v) const {
    return activations_[v];
  }
  /// Live frontier population (popcount scan; not part of the hot path).
  [[nodiscard]] std::size_t frontier_size() const noexcept {
    std::size_t c = 0;
    for (const std::uint64_t w : frontier_)
      c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }
  [[nodiscard]] bool frontier_empty() const noexcept {
    for (const std::uint64_t w : frontier_)
      if (w != 0) return false;
    return true;
  }
  /// Heap bytes held by the executor's columns and bitmaps (capacity, not
  /// size) — the numerator of bench_scale's bytes/node.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return cols_.heap_bytes() +
           (frontier_.capacity() + terminated_.capacity() +
            crashed_.capacity()) *
               sizeof(std::uint64_t) +
           (activations_.capacity() + out_a_.capacity() + out_b_.capacity()) *
               sizeof(std::uint64_t);
  }

 private:
  /// How many frontier nodes ahead of the read phase the prefetch runs.
  /// Lookaheads of 4 to 32 measured alike on random d8 graphs; 8 keeps
  /// about eight nodes' worth of neighbour reads in flight.
  static constexpr std::size_t kLookahead = 8;

  /// A forward walk over the set bits of a bitmap that loads each word
  /// when it enters it.
  struct FrontierCursor {
    const std::uint64_t* words;
    std::size_t count;
    std::size_t w = 0;
    std::uint64_t bits = count > 0 ? words[0] : 0;
  };

  /// Advance `c` to the next frontier node, if any, and prefetch its
  /// neighbours' registers.
  void prefetch_next(FrontierCursor& c) const noexcept {
    while (c.bits == 0) {
      if (++c.w >= c.count) return;
      c.bits = c.words[c.w];
    }
    const NodeId u = static_cast<NodeId>(
        c.w * 64 + static_cast<std::size_t>(std::countr_zero(c.bits)));
    c.bits &= c.bits - 1;
    cols_.prefetch(graph_->neighbors(u));
  }

  [[nodiscard]] static std::size_t word_count(NodeId n) noexcept {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }
  [[nodiscard]] static bool test(const std::vector<std::uint64_t>& bm,
                                 NodeId v) noexcept {
    return ((bm[v >> 6] >> (v & 63)) & 1u) != 0;
  }
  static void set_bit(std::vector<std::uint64_t>& bm, NodeId v) noexcept {
    bm[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& bm, NodeId v) noexcept {
    bm[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  const Graph* graph_ = nullptr;
  CrashPlan crashes_;
  BatchColumns<A> cols_;
  std::vector<std::uint64_t> frontier_;    // = the working set
  std::vector<std::uint64_t> terminated_;
  std::vector<std::uint64_t> crashed_;
  std::vector<std::uint64_t> activations_;
  std::vector<std::uint64_t> out_a_, out_b_;
  const obs::BatchMetrics* metrics_ = nullptr;
  /// Locally batched metric events (see attach_metrics / flush_metrics).
  struct PendingMetrics {
    std::uint64_t activations = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t crashes = 0;
    std::uint64_t terminations = 0;
    std::array<std::uint64_t, obs::Histogram::kBuckets> frontier_buckets{};
    std::uint64_t frontier_sum = 0;
  };
  PendingMetrics pending_;
  std::uint64_t now_ = 0;
};

}  // namespace ftcc
