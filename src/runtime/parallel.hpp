// Deterministic-parallelism building blocks (DESIGN.md §10), shared by
// the campaign core (runtime/campaign.hpp) and the model-check explorer.
// They live under src/runtime/ because that is where the
// concurrency-confinement lint allows atomics and mutexes; everything
// above consumes them through phase-disciplined APIs that keep results
// independent of worker count.
//
//   StripedKeyMap — the explorer's visited set, sharded by hash so the
//       parallel BFS expansion phase can probe concurrently while the
//       sequential merge phase inserts.  There are NO locks: correctness
//       is phase discipline (all probes in the fork/join expansion phase,
//       all inserts in the single-threaded merge between phases), which
//       the WorkerPool's spawn/join edges order — TSan-checkably.
//
//   TrialTally — cross-worker progress aggregation: workers bump relaxed
//       atomic tallies per finished trial; the reporting callback fires
//       under a mutex every `every`-th completion with a monotone `done`
//       filter, so a --jobs=8 campaign still prints one coherent,
//       non-regressing progress line.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include <atomic>
#include <mutex>

namespace ftcc {

/// Hash-sharded map from Key to a dense std::uint32_t index.
///
/// Phase discipline instead of locks: find() may run from any number of
/// workers concurrently AS LONG AS no insert is in flight; emplace() and
/// reserve() must run single-threaded between parallel phases.  The
/// explorer's level-synchronised BFS alternates exactly like that.
///
/// A second, stronger contract the striping buys for free: two threads
/// may call emplace() CONCURRENTLY as long as their keys land in
/// different shards (shard_index() is a pure function of the key), since
/// each shard is an independent unordered_map.  The stress test
/// (tests/runtime_stripedmap_test.cpp) exercises exactly this partition
/// under TSan.  The shard count is a compile-time parameter so the store
/// can be sized for 10⁸+ compressed handles (more shards = smaller
/// per-shard rehashes); it must be a power of two.
template <typename Key, typename Hash = std::hash<Key>,
          std::size_t Shards = 16>
class StripedKeyMap {
 public:
  static_assert(Shards >= 2 && (Shards & (Shards - 1)) == 0,
                "shard count must be a power of two");
  static constexpr std::size_t kShards = Shards;

  /// Pre-size every shard for ~`total` keys overall (the rehash-churn fix:
  /// one up-front allocation instead of log(total) rehashes per shard).
  void reserve(std::size_t total) {
    for (auto& shard : shards_) shard.reserve(total / kShards + 1);
  }

  [[nodiscard]] std::optional<std::uint32_t> find(const Key& key) const {
    const auto& shard = shards_[shard_of(key)];
    const auto it = shard.find(key);
    if (it == shard.end()) return std::nullopt;
    return it->second;
  }

  void emplace(Key&& key, std::uint32_t index) {
    shards_[shard_of(key)].emplace(std::move(key), index);
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.size();
    return total;
  }

  /// Largest shard (the occupancy-skew instrument E23 reports: a healthy
  /// hash keeps max close to size/kShards).
  [[nodiscard]] std::size_t max_shard_size() const {
    std::size_t m = 0;
    for (const auto& shard : shards_)
      if (shard.size() > m) m = shard.size();
    return m;
  }

  /// Which shard `key` lives in — exposed so callers can PARTITION keys
  /// across threads (concurrent emplace into distinct shards is safe; see
  /// the class comment).
  [[nodiscard]] std::size_t shard_index(const Key& key) const {
    return shard_of(key);
  }

 private:
  [[nodiscard]] std::size_t shard_of(const Key& key) const {
    // Shard on the high bits: unordered_map buckets consume the low bits,
    // so reusing them would correlate shard choice with bucket choice.
    // (64 - bit_width(kShards)) keeps the historical bit window for the
    // default 16 shards: bits 59..62.
    constexpr unsigned kShift =
        64 - static_cast<unsigned>(std::bit_width(kShards));
    return (Hash{}(key) >> kShift) & (kShards - 1);
  }

  std::array<std::unordered_map<Key, std::uint32_t, Hash>, kShards> shards_;
};

/// Progress snapshot handed to the tally's callback (the campaign core
/// calls it CampaignProgress, runtime/campaign.hpp).
struct TallyProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;
  std::uint64_t failures = 0;
};

class TrialTally {
 public:
  TrialTally(std::uint64_t total, std::uint64_t every,
             std::function<void(const TallyProgress&)> callback)
      : total_(total),
        every_(every == 0 ? 1 : every),
        callback_(std::move(callback)) {}

  enum class Outcome : std::uint8_t { ok, censored, failed };

  /// Record one finished trial; fires the callback on every `every`-th
  /// completion and on the last one, exactly like the sequential loop did.
  void record(Outcome outcome) {
    switch (outcome) {
      case Outcome::ok: ok_.fetch_add(1, std::memory_order_relaxed); break;
      case Outcome::censored:
        censored_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::failed:
        failures_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!callback_) return;
    if (done % every_ != 0 && done != total_) return;
    const std::scoped_lock lock(report_mutex_);
    if (done <= last_reported_) return;  // a later snapshot already printed
    last_reported_ = done;
    callback_({done, total_, ok_.load(std::memory_order_relaxed),
               censored_.load(std::memory_order_relaxed),
               failures_.load(std::memory_order_relaxed)});
  }

 private:
  std::uint64_t total_;
  std::uint64_t every_;
  std::function<void(const TallyProgress&)> callback_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> censored_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::mutex report_mutex_;
  std::uint64_t last_reported_ = 0;
};

}  // namespace ftcc
