// The distributed bucket-synchronous SSSP engine: the paper's Delta-stepping
// with edge classification, IOS, push/pull pruning, hybridization and
// intra-rank load balancing — all switchable through SsspOptions, so the
// same engine realizes Dijkstra (Delta=1), Bellman-Ford (one bucket), Del-D,
// Prune-D, OPT-D and LB-OPT-D.
//
// One DeltaEngine instance runs per rank inside a Machine job. All
// cross-rank interaction goes through RankCtx: relax/request/response
// message exchanges plus Allreduce-based termination and bucket-advance
// checks, exactly the communication structure described in §II
// ("Distributed Implementation").
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/buckets.hpp"
#include "core/dist_graph.hpp"
#include "core/instrumentation.hpp"
#include "core/options.hpp"
#include "core/sync.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {

/// Push-model relaxation / pull-model response payload.
struct RelaxMsg {
  vid_t v;     ///< destination vertex (global id, owned by receiver)
  dist_t nd;   ///< proposed tentative distance d(u) + w(e)
  vid_t pred;  ///< relaxing vertex u (shortest-path tree parent candidate)
};

/// Pull-model request payload: "if u is settled in the current bucket, send
/// me d(u) + w" (paper §III-B, Fig. 5(b)).
struct PullReqMsg {
  vid_t u;     ///< source vertex (owned by receiver of the request)
  vid_t v;     ///< requesting vertex (for the response address)
  weight_t w;  ///< weight of edge <u, v>
};

/// Inputs and output slots shared by all ranks of one solve.
struct EngineShared {
  const CsrGraph* graph = nullptr;
  BlockPartition part;
  const std::vector<LocalEdgeView>* views = nullptr;
  std::vector<dist_t>* dist = nullptr;  ///< global; rank writes its slice
  /// Shortest-path-tree parents (optional; null disables tracking).
  std::vector<vid_t>* parent = nullptr;
  vid_t root = 0;
  const SsspOptions* options = nullptr;
  std::vector<RankCounters>* rank_counters = nullptr;  ///< one slot per rank
  SsspStats* stats = nullptr;  ///< structure fields written by rank 0

  // --- Seeded mode (the incremental repair path, docs/DYNAMIC.md) -------
  // Null settled_init selects the standard run: dist/parent are filled
  // fresh and the root is seeded. Non-null selects the seeded run: the
  // caller provides complete tentative dist/parent arrays plus a global
  // preset-settled bitmap, each rank applies the seed messages it owns
  // (strict-< with unsettle-on-improve), and the bucket schedule starts
  // from whatever buckets the seeds and unsettled vertices occupy.

  /// Global preset-settled flags (size num_vertices); non-null => seeded.
  const std::vector<char>* settled_init = nullptr;
  /// Seed relaxations, applied at init by each target's owner in order.
  const std::vector<RelaxMsg>* seeds = nullptr;
  /// Optional global change flags (size num_vertices): set to 1 by a
  /// vertex's owner on every distance write (seed or sweep). The repair
  /// planner uses them to bound canonical re-parenting.
  std::vector<char>* changed = nullptr;
  /// Overrides the graph's max weight for the pull estimator (any monotone
  /// upper bound keeps the decision heuristic sound); 0 = use the graph's.
  weight_t max_weight = 0;
};

class DeltaEngine {
 public:
  DeltaEngine(RankCtx& ctx, const EngineShared& shared);

  /// Executes the full SSSP. Collective: all ranks run this together.
  void run();

 private:
  // -- epoch structure ----------------------------------------------------
  /// Reduction payload of the bucket advance: the next bucket plus the
  /// global settled count the hybrid switch reads, so the switch decision
  /// rides the same fence.
  struct BucketAdvance {
    std::uint64_t bucket = kInfBucket;
    std::uint64_t settled = 0;
  };
  struct BucketAdvanceOp {
    BucketAdvance operator()(const BucketAdvance& a,
                             const BucketAdvance& b) const {
      return {std::min(a.bucket, b.bucket), a.settled + b.settled};
    }
  };
  /// Collective: the minimum bucket above `after` holding an unsettled
  /// reached vertex (kInfBucket when none) and the global settled count.
  BucketAdvance next_bucket(std::int64_t after);
  void process_epoch(std::uint64_t k);
  void short_phases(std::uint64_t k);
  bool decide_long_mode(std::uint64_t k);
  void long_phase_push(std::uint64_t k);
  void long_phase_pull(std::uint64_t k);
  void bellman_ford_tail(std::uint64_t from_bucket);
  void finalize();

  /// Seeded-mode init: applies the owned subset of EngineShared::seeds to
  /// the caller-provided tentative state (strict-<, unsettle-on-improve).
  void apply_seeds();

  // -- helpers ------------------------------------------------------------
  struct StepReduce {
    std::uint64_t any = 0;
    std::uint64_t max_work = 0;
    std::uint64_t max_bytes = 0;
    std::uint64_t sum_relax = 0;
  };
  struct StepReduceOp {
    StepReduce operator()(const StepReduce& a, const StepReduce& b) const {
      return {a.any | b.any, std::max(a.max_work, b.max_work),
              std::max(a.max_bytes, b.max_bytes), a.sum_relax + b.sum_relax};
    }
  };

  /// Collective per-superstep accounting: advances the modeled clock and
  /// returns the reduced values — sum_relax for phase details, and `any`:
  /// whether some rank's frontier is non-empty after this step, the
  /// activity check that ends a bucket's phase loop.
  StepReduce account_step(std::uint64_t work, std::uint64_t bytes,
                          std::uint64_t relax);

  /// Charges the modeled cost of one global activity check (a bucket-level
  /// allreduce). The checks themselves ride account_step or next_bucket,
  /// or are skipped when their answer is known, but the modeled machine
  /// still pays each one, so modeled time matches the paper's schedule.
  void charge_activity_check();

  // -- relax data path (docs/PERFORMANCE.md) ------------------------------

  /// What an applied improvement does to the frontier.
  enum class InsertMode : std::uint8_t {
    kNone,    ///< long phases: bucket members are already settled
    kBucket,  ///< short phases: join iff the new distance lands in bucket k
    kAny,     ///< Bellman-Ford tail: every improved vertex re-activates
  };

  /// Readies relax_pool_ for a phase's emission and zeroes lane_emitted_.
  /// On the reference path this first drops all pooled capacity, so the
  /// baseline really pays the seed's per-phase allocations.
  void begin_relax_emit();

  /// Sums/maxes lane_emitted_ into (emitted, max_lane).
  std::pair<std::uint64_t, std::uint64_t> emit_totals() const;

  /// Sender-side reduction (pooled path, when enabled and `allow_reduction`)
  /// followed by the exchange. Returns the number of messages that actually
  /// crossed (post-reduction, self-delivery included) — the byte basis for
  /// account_step. Incoming batches land in relax_pool_.
  std::uint64_t relax_exchange(PhaseKind kind, bool allow_reduction);

  /// Applies relax_pool_.incoming() to owned vertices, serially or
  /// lane-partitioned by destination vertex range (pooled path with
  /// parallel_apply and >1 lanes). Returns the number of incoming messages.
  std::uint64_t apply_incoming(std::uint64_t frontier_k, InsertMode mode);
  void apply_serial(std::uint64_t frontier_k, InsertMode mode);
  void apply_parallel(std::uint64_t frontier_k, InsertMode mode);

  /// What one apply did to rank-wide totals; lanes keep their own and the
  /// rank thread folds them in (fold_tally).
  struct ApplyTally {
    std::uint64_t unsettled = 0;       ///< preset vertices reopened
    std::uint64_t reached_weight = 0;  ///< pull weight of newly reached ones
  };
  /// Folds relaxation `m` into owned vertex `local`; false if it does not
  /// improve. Writes only `local`'s entries, the reached_ word holding it
  /// and `tally`, so lanes owning disjoint whole words may run it at once.
  bool improve(vid_t local, const RelaxMsg& m, ApplyTally& tally);
  /// Whether an improvement of `local` to `nd` puts it on the frontier.
  bool joins_frontier(vid_t local, dist_t nd, std::uint64_t frontier_k,
                      InsertMode mode) const;
  void fold_tally(const ApplyTally& tally);
  /// unreached_pull_weight of `local` under this solve's IOS setting.
  std::uint64_t pull_weight(vid_t local) const;

  bool classification_active() const {
    return sh_.options->edge_classification &&
           !sh_.options->bellman_ford_regime();
  }
  dist_t bucket_end(std::uint64_t k) const {  // inclusive upper limit of B_k
    return (k + 1) * static_cast<dist_t>(sh_.options->delta) - 1;
  }
  vid_t to_local(vid_t global) const { return global - begin_; }
  vid_t to_global(vid_t local) const { return begin_ + local; }

  RankCtx& ctx_;
  EngineShared sh_;
  const LocalEdgeView& view_;
  std::span<dist_t> dist_;  ///< owned slice of the global distance array
  std::span<vid_t> parent_;  ///< owned slice of the parent array (optional)
  vid_t begin_ = 0;
  vid_t nloc_ = 0;

  std::vector<char> settled_;
  /// Reached-but-unsettled owned vertices, kept in step with dist_ and
  /// settled_ (finalize() rechecks this in Debug builds).
  ReachedSet reached_;
  std::vector<std::uint64_t> member_stamp_;  ///< epoch when vertex joined B_k
  std::vector<vid_t> members_;               ///< settled set of current epoch
  std::vector<char> in_frontier_;
  std::vector<vid_t> frontier_;
  std::uint64_t epoch_ = 0;
  std::uint64_t settled_local_cum_ = 0;

  // Seeded mode (repair) state; empty/false on standard runs.
  bool seeded_ = false;
  /// Preset-settled vertices that have not been unsettled or re-settled
  /// yet. They skip frontier collection like any settled vertex but must
  /// still issue pull requests: their tentative distance is only an upper
  /// bound until the sweep ends.
  std::vector<char> preset_;
  std::span<char> changed_;  ///< owned slice of EngineShared::changed
  /// Per-lane tallies of one parallel apply (lanes may not touch
  /// settled_local_cum_ or reached_'s unreached weight directly).
  std::vector<CacheAligned<ApplyTally>> lane_tally_;

  // Relax data path state. The pools are rank-thread-owned; worker lanes
  // only ever touch their own lane's shards (emission) or the disjoint
  // vertex range a parallel apply assigns them.
  SendBufferPool<RelaxMsg> relax_pool_;
  SendBufferPool<PullReqMsg> req_pool_;
  SenderReducer<dist_t> reducer_;
  /// Per-lane counters, cache-line padded: adjacent uint64s written by all
  /// lanes at emission rate were a false-sharing hot spot.
  std::vector<CacheAligned<std::uint64_t>> lane_emitted_;
  std::vector<CacheAligned<std::uint64_t>> lane_load_;
  /// Parallel apply: per-lane (canonical message index, vertex) insert logs,
  /// merged by index on the rank thread to reproduce the serial apply's
  /// frontier order exactly.
  std::vector<CacheAligned<std::vector<std::pair<std::uint64_t, vid_t>>>>
      lane_inserts_;
  std::vector<std::uint64_t> batch_offsets_;  ///< scratch: segment offsets
  std::vector<std::pair<std::uint64_t, vid_t>> merged_inserts_;  ///< scratch

  RankCounters counters_;
  /// TrafficCounters sync tallies at construction; finalize() reports the
  /// solve's own allreduce/barrier count as the delta against these.
  std::uint64_t sync0_allreduces_ = 0;
  std::uint64_t sync0_barriers_ = 0;
  CostModel cost_;
  /// This rank's trace lane; null unless SsspOptions::trace is set.
  TraceLane* tlane_ = nullptr;
  // Rank-identical accumulators (derived from collective reductions).
  double model_other_ns_ = 0;
  double model_bkt_ns_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t buckets_ = 0;
  std::vector<bool> pull_decisions_;
  std::vector<PhaseDetail> phase_details_;
  std::vector<BucketDetail> bucket_details_;
  bool switched_ = false;
  std::uint64_t switch_bucket_ = 0;
};

/// Convenience entry point: the Machine job body for one solve.
void run_sssp_job(RankCtx& ctx, const EngineShared& shared);

}  // namespace parsssp
