// Collective operations over the simulated machine: barrier, allreduce,
// broadcast, allgather. These model the Allreduce/termination-check traffic
// the paper's bulk-synchronous epochs rely on.
//
// Protocol: one fence per collective. Every rank deposits its contribution
// into a cache-line-sized scratch slot, one barrier separates writes from
// reads, and every rank folds all slots *in rank order* (so each rank
// computes bit-identical results). The scratch slots come in two sets, and
// each rank alternates between them on every scratch-using collective
// (allreduce, broadcast, allgather). A set is written again only two
// collectives later, and before that write every rank must pass the middle
// collective's fence, which it reaches only after its reads of the first
// one. That fence is what used to be a second "release the slots" barrier.
//
// The fence itself is FenceBarrier: a counter + generation word that a
// waiter watches with a short pause-spin, then sched_yield, then a futex
// park. See its comment for the measured budgets.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"

namespace parsssp {

/// Reusable barrier for a fixed number of parties: an arrival counter plus
/// a generation word. The last arriver resets the counter and bumps the
/// generation; everyone else waits for the generation to move, first with
/// a short pause-spin, then with sched_yield, then parked on the word
/// (std::atomic::wait, a futex on Linux). Arrivals are acq_rel and the
/// generation store is seq_cst (see arrive_and_wait for why release is not
/// enough), so every write a rank made before arriving is visible to every
/// rank after the barrier.
///
/// The wait budgets, on a 4-core box:
///   * Measured on this barrier: libstdc++'s std::barrier cost 6.0-7.9 us
///     per wait in a tight 4-thread loop and 6-10 us inside a
///     MachineSession; this barrier costs 0.44-0.53 us in the same loop,
///     and kSpinPauses (~0.6 us) then kSpinYields (70-90 us) then park
///     holds it at 0.5-2 us inside a MachineSession.
///   * Measured on an earlier prototype of it, not re-run since: with a
///     40 us pause-spin, serve tail latency got 20-50% worse (8.7-12.5 ms
///     against 7.3-8.5 ms), because rank threads woken from the session's
///     condition variable can land on the same vCPU and a spinning rank
///     then holds the core its peer needs; a park-only variant gained
///     nothing over std::barrier.
/// The state is only a count and a generation word, so a poison bit for
/// failure containment can be added to the generation later.
class FenceBarrier {
 public:
  /// Pause instructions before the waiter starts yielding its core.
  static constexpr unsigned kSpinPauses = 32;
  /// sched_yield calls before the waiter parks on the generation word.
  static constexpr unsigned kSpinYields = 256;

  explicit FenceBarrier(rank_t parties) : parties_(parties) {}

  FenceBarrier(const FenceBarrier&) = delete;
  FenceBarrier& operator=(const FenceBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      // seq_cst, not just release: notify_all() skips the futex wake when
      // its seq_cst read of the waiter count sees zero, and a parking
      // waiter counts itself before the kernel re-reads this word.
      // Ordering the store before that read keeps a late parker from
      // missing both the new generation and the wake.
      generation_.store(gen + 1, std::memory_order_seq_cst);
      generation_.notify_all();
      return;
    }
    for (unsigned i = 0; i < kSpinPauses; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    for (unsigned i = 0; i < kSpinYields; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      std::this_thread::yield();
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  /// Spin-wait hint (x86 PAUSE); a plain re-read of the word elsewhere.
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  const std::uint32_t parties_;
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLineBytes) std::atomic<std::uint32_t> generation_{0};
};

class CollectiveContext {
 public:
  explicit CollectiveContext(rank_t num_ranks)
      : num_ranks_(num_ranks),
        fence_(num_ranks),
        parity_(num_ranks),
        scratch_(2 * static_cast<std::size_t>(num_ranks)) {}

  rank_t num_ranks() const { return num_ranks_; }

  void barrier() { fence_.arrive_and_wait(); }

  template <typename T, typename Op>
  T allreduce(rank_t rank, T value, Op op) {
    Slot* slots = next_slots(rank);
    store(slots, rank, value);
    barrier();
    T acc = load<T>(slots, 0);
    for (rank_t r = 1; r < num_ranks_; ++r) acc = op(acc, load<T>(slots, r));
    return acc;
  }

  template <typename T>
  T broadcast(rank_t rank, T value, rank_t root) {
    Slot* slots = next_slots(rank);
    if (rank == root) store(slots, rank, value);
    barrier();
    return load<T>(slots, root);
  }

  template <typename T>
  std::vector<T> allgather(rank_t rank, T value) {
    Slot* slots = next_slots(rank);
    store(slots, rank, value);
    barrier();
    std::vector<T> result(num_ranks_);
    for (rank_t r = 0; r < num_ranks_; ++r) result[r] = load<T>(slots, r);
    return result;
  }

 private:
  static constexpr std::size_t kSlotBytes = 64;
  struct alignas(64) Slot {
    std::array<std::byte, kSlotBytes> bytes;
  };

  /// Flips `rank`'s parity and returns the slot set this collective uses.
  /// Ranks run the same sequence of collectives, so their parities agree.
  Slot* next_slots(rank_t rank) {
    unsigned& parity = parity_[rank].value;
    parity ^= 1u;
    return scratch_.data() + static_cast<std::size_t>(parity) * num_ranks_;
  }

  template <typename T>
  static void store(Slot* slots, rank_t rank, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= kSlotBytes, "collective payload too large");
    std::memcpy(slots[rank].bytes.data(), &value, sizeof(T));
  }

  template <typename T>
  static T load(const Slot* slots, rank_t rank) {
    T value;
    std::memcpy(&value, slots[rank].bytes.data(), sizeof(T));
    return value;
  }

  rank_t num_ranks_;
  FenceBarrier fence_;
  /// Per-rank parity of the next collective; each entry is touched only by
  /// its own rank.
  std::vector<CacheAligned<unsigned>> parity_;
  /// Two sets of num_ranks_ slots, indexed [parity * num_ranks_ + rank].
  std::vector<Slot> scratch_;
};

/// Reduction functors with the value semantics of MPI_SUM / MPI_MIN / ...
struct SumOp {
  template <typename T>
  T operator()(T a, T b) const {
    return a + b;
  }
};
struct MinOp {
  template <typename T>
  T operator()(T a, T b) const {
    return b < a ? b : a;
  }
};
struct MaxOp {
  template <typename T>
  T operator()(T a, T b) const {
    return a < b ? b : a;
  }
};
struct OrOp {
  template <typename T>
  T operator()(T a, T b) const {
    return a || b;
  }
};
struct AndOp {
  template <typename T>
  T operator()(T a, T b) const {
    return a && b;
  }
};

}  // namespace parsssp
