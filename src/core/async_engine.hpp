// The asynchronous SSSP engine (docs/ASYNC.md): Delta-stepping without the
// bucket barriers.
//
// The bucket-synchronous engines fence every bucket with allreduces and
// every relax exchange with barriers; at scale that latency tax is the
// term t_step * phases of the cost model. This engine removes the phase
// structure entirely: each rank loops
//
//   drain inbound relax batches -> apply strictly-improving updates ->
//   pop the lowest bucket of a lazy-batched local priority queue ->
//   relax those vertices' arcs -> flush outgoing shards at bucket-level
//   boundaries,
//
// with no global synchronization anywhere in the data plane. Relaxations
// are speculative — a vertex may be relaxed at a distance that a slower
// in-flight message later improves — and corrected by monotone
// re-relaxation: every improvement re-queues the vertex, every apply is
// strict-<, so distances only fall and converge to the exact SSSP under
// any message schedule. Speculation is bounded by a shared LevelBoard
// window (below): a rank more than kSpeculationWindow bucket levels ahead
// of the slowest frontier parks instead of relaxing work that frontier is
// about to invalidate. Once the settled fraction passes hybrid_tau the
// window opens for good — the async form of OPT's Bellman-Ford tail.
// Termination is detected by a Safra-style token ring
// (runtime/quiescence.hpp) riding the same channel as the payload.
//
// Contract: distances are bit-identical to the bucket-synchronous OPT
// engine's (both compute the exact SSSP); parents are canonicalized by the
// caller (core/parent_canon.hpp) so they match too. The engine honors
// delta (priority granularity), hybrid_tau (when the window opens),
// data_path (pooled buffer recycling vs the allocate-per-round reference
// baseline) and track_parents; the other bucket-synchronous work-shaping
// knobs (pruning, ios, ...) are inert here — see SsspOptions::async_opt.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/delta_engine.hpp"  // IWYU pragma: export (RelaxMsg is the wire format)
#include "core/dist_graph.hpp"
#include "core/instrumentation.hpp"
#include "core/lazy_pq.hpp"
#include "core/options.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "runtime/async_channel.hpp"
#include "runtime/machine.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {

/// Speculation-window board: each rank publishes the bucket level it is
/// about to relax (kInfBucket once its queue is empty) through a relaxed
/// atomic, and reads the cross-rank minimum as a progress estimate to
/// bound how far ahead of the slowest frontier it speculates (the
/// KLA-style bounded-asynchrony window of docs/ASYNC.md). Not a
/// synchronization primitive: the values may be arbitrarily stale and
/// correctness never depends on them — monotone re-relaxation is exact
/// under any schedule. The board only steers the schedule toward the
/// work-efficient one; the rank holding the minimum is never throttled,
/// so it cannot stall progress either. Each slot also carries its rank's
/// settled count, which the hybrid tail sums.
class LevelBoard {
 public:
  explicit LevelBoard(rank_t ranks) : slots_(ranks) {}

  void publish(rank_t rank, std::uint64_t level) {
    slots_[rank].v.store(level, std::memory_order_relaxed);
  }

  /// Sender-side publish on the *recipient's* behalf: lowers `rank`'s slot
  /// to the minimum level of a batch just posted to it. Without this the
  /// board goes blind to in-flight work — a passive recipient still
  /// advertises kInfBucket until it is next scheduled, and the sender
  /// would speculate right past the frontier it just mailed out. The
  /// recipient's own publish (which runs after draining) re-tightens the
  /// slot either way, so a stale donation lasts one loop iteration.
  void donate(rank_t rank, std::uint64_t level) {
    auto& slot = slots_[rank].v;
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (level < cur && !slot.compare_exchange_weak(
                              cur, level, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t global_min() const {
    std::uint64_t m = kInfBucket;
    for (const Slot& s : slots_) {
      m = std::min(m, s.v.load(std::memory_order_relaxed));
    }
    return m;
  }

  /// Publishes how many of `rank`'s vertices it has settled so far (the
  /// hybrid tail's input, like OPT's per-bucket settled count).
  void publish_settled(rank_t rank, std::uint64_t settled) {
    slots_[rank].settled.store(settled, std::memory_order_relaxed);
  }

  std::uint64_t settled_total() const {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.settled.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {  ///< own cache line: publish is hot-loop
    std::atomic<std::uint64_t> v{0};
    std::atomic<std::uint64_t> settled{0};
  };
  std::vector<Slot> slots_;
};

/// Inputs and output slots shared by all ranks of one asynchronous solve.
/// The caller owns the channel and the level board: both must be freshly
/// constructed (or fully quiescent) and sized to the machine's rank count.
struct AsyncEngineShared {
  const CsrGraph* graph = nullptr;
  BlockPartition part;
  const std::vector<LocalEdgeView>* views = nullptr;
  std::vector<dist_t>* dist = nullptr;  ///< global; rank writes its slice
  std::vector<vid_t>* parent = nullptr;  ///< optional; null disables
  vid_t root = 0;
  const SsspOptions* options = nullptr;
  std::vector<RankCounters>* rank_counters = nullptr;  ///< one slot per rank
  SsspStats* stats = nullptr;  ///< structure fields written by rank 0
  AsyncChannel<RelaxMsg>* channel = nullptr;
  LevelBoard* board = nullptr;
};

class AsyncEngine {
 public:
  AsyncEngine(RankCtx& ctx, const AsyncEngineShared& shared);

  /// Executes the full SSSP. Collective: all ranks run this together (the
  /// only collective operation inside is the final stats reduction).
  void run();

 private:
  void init();
  void main_loop();
  /// Applies one drained inbound batch (strict-<, re-queue on improve).
  void apply_batch(std::vector<RelaxMsg>& msgs);
  /// Opens the send pool's phase if it is not already open (lazy: one
  /// begin_phase per level flush).
  void ensure_phase();
  /// Pops the lowest priority bucket and relaxes its live entries' short
  /// arcs; registers them for deferred long-arc relaxation at close.
  void relax_one_batch();
  /// Relaxes `arcs` of vertex `v` at distance `d`: local targets applied
  /// in place, remote targets appended to the outgoing shards.
  void relax_arcs(vid_t v, dist_t d, std::span<const Arc> arcs);
  /// Level boundary: relaxes the deferred long arcs of every vertex
  /// settled in the level, then posts the accumulated shards. Returns
  /// whether it did anything (pending work processed or batches posted).
  bool close_level();
  /// Posts every non-empty outgoing shard through the channel. Returns
  /// whether anything was posted (false when the phase never opened or all
  /// shards were empty).
  bool flush_sends();
  void apply_local(vid_t local, dist_t nd, vid_t pred);
  /// Whether the speculation window holds back a rank whose next level is
  /// `next`; switches to the open-window tail once it is due.
  bool throttled(std::uint64_t next);
  /// Final cross-rank stats reduction (the async path's one allreduce).
  void finalize();

  vid_t to_local(vid_t global) const { return global - begin_; }
  vid_t to_global(vid_t local) const { return begin_ + local; }

  RankCtx& ctx_;
  AsyncEngineShared sh_;
  const LocalEdgeView& view_;
  AsyncChannel<RelaxMsg>& channel_;
  std::span<dist_t> dist_;   ///< owned slice of the global distance array
  std::span<vid_t> parent_;  ///< owned slice of the parent array (optional)
  vid_t begin_ = 0;
  vid_t nloc_ = 0;

  LazyBucketQueue pq_;
  QuiescenceRank detector_;
  /// Outgoing shards (one lane: the async loop is rank-thread serial) and
  /// the recycling free list the drained inbound batches retire into.
  SendBufferPool<RelaxMsg> out_pool_;
  /// Drain target, reused across iterations for its capacity.
  std::vector<AsyncChannel<RelaxMsg>::Batch> arrived_;
  /// pop_batch target, reused across iterations.
  std::vector<std::pair<vid_t, dist_t>> batch_;

  /// Whether out_pool_ has an open phase with (possibly empty) accumulated
  /// shards; set by the first relax of a bucket level, cleared by flush.
  bool phase_open_ = false;
  /// Vertices settled in the current level whose long arcs are deferred
  /// to close_level (the light/heavy split: within-level reactivations
  /// re-relax only short arcs), plus per-vertex membership flags so a
  /// vertex reactivated within the level registers once.
  std::vector<vid_t> long_pending_;
  std::vector<std::uint8_t> in_pending_;
  /// Vertices popped live at least once, and their count. While the
  /// window is closed a live pop happens only at the global frontier
  /// level, so this is the rank's settled count.
  std::vector<std::uint8_t> popped_;
  std::uint64_t settled_ = 0;
  /// Set once the global settled fraction passes hybrid_tau: the window
  /// stays open for the rest of the solve (the Bellman-Ford tail).
  bool tail_ = false;

  RankCounters counters_;
  /// TrafficCounters sync tallies at construction; finalize() reports the
  /// solve's own allreduce/barrier count as the delta against these.
  std::uint64_t sync0_allreduces_ = 0;
  std::uint64_t sync0_barriers_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t token_hops_ = 0;
  CostModel cost_;
  /// This rank's trace lane; null unless SsspOptions::trace is set.
  TraceLane* tlane_ = nullptr;
};

/// Convenience entry point: the Machine job body for one async solve.
void run_async_sssp_job(RankCtx& ctx, const AsyncEngineShared& shared);

}  // namespace parsssp
