// Communication accounting for the simulated machine. Counters are kept
// per rank (each written only by its owning rank thread, so no atomics are
// needed) and merged after a job completes.
//
// Ownership contract (audited; enforced in checked builds): the only
// writers of a rank's TrafficCounters during Machine::run are
// RankCtx::exchange() and the collective wrappers, all of which execute on
// the rank thread — worker lanes never touch counters. RankCtx::traffic()
// asserts this in checked mode (see RankCtx::check_owner). Merged views are
// read after the rank threads joined, so thread creation/join provide the
// only synchronization the counters need.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace parsssp {

/// What kind of algorithm step a message exchange belongs to. Mirrors the
/// phase taxonomy of the paper (short phases, long push phase, pull
/// request/response, Bellman-Ford tail, control collectives).
enum class PhaseKind : std::uint8_t {
  kShortPhase = 0,
  kLongPush,
  kPullRequest,
  kPullResponse,
  kBellmanFord,
  kControl,
  kAsync,  ///< barrier-free relax batches (runtime/async_channel.hpp)
  kCount   // sentinel
};

std::string_view phase_kind_name(PhaseKind kind);

/// Per-kind message/byte totals, plus the global-synchronization tally the
/// asynchronous engine exists to eliminate (docs/ASYNC.md): every barrier
/// and every collective a rank participates in is counted here, so a
/// solve's synchronization cost is a first-class measured quantity
/// (SsspStats::sync_allreduces / sync_barriers), not a guess. Each
/// collective and each exchange round is one physical fence wait, so
/// global_syncs() counts exactly the fences this rank waited at.
struct TrafficCounters {
  std::array<std::uint64_t, static_cast<std::size_t>(PhaseKind::kCount)>
      messages{};
  std::array<std::uint64_t, static_cast<std::size_t>(PhaseKind::kCount)>
      bytes{};
  /// Collective reductions (allreduce/broadcast/allgather) entered; one
  /// fence each.
  std::uint64_t allreduces = 0;
  /// Fence waits outside collectives: plain barrier() calls plus the one
  /// fence inside each exchange round.
  std::uint64_t barriers = 0;

  void add(PhaseKind kind, std::uint64_t msg_count, std::uint64_t byte_count) {
    messages[static_cast<std::size_t>(kind)] += msg_count;
    bytes[static_cast<std::size_t>(kind)] += byte_count;
  }
  /// Global synchronization points this rank participated in.
  std::uint64_t global_syncs() const { return allreduces + barriers; }
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;
  TrafficCounters& operator+=(const TrafficCounters& other);
};

/// One slot per rank plus a merged view.
class TrafficStats {
 public:
  explicit TrafficStats(std::size_t num_ranks) : per_rank_(num_ranks) {}

  TrafficCounters& rank(std::size_t r) { return per_rank_[r]; }
  const TrafficCounters& rank(std::size_t r) const { return per_rank_[r]; }

  TrafficCounters merged() const;

  /// Largest per-rank message total: the load-imbalance signal the push/pull
  /// heuristic cares about.
  std::uint64_t max_rank_messages() const;

  void reset();

 private:
  std::vector<TrafficCounters> per_rank_;
};

}  // namespace parsssp
