// Low-overhead structured tracing for the engines, the runtime data path
// and the serving layer (docs/OBSERVABILITY.md).
//
// A TraceRecorder owns one TraceLane per recording thread (rank threads,
// the serve dispatcher). Each lane is a cache-line-aligned, preallocated
// ring of TraceSpan slots with a single writer — recording a span is two
// steady_clock reads plus one slot store, no allocation, no lock. When a
// lane fills up, further spans are counted in `dropped()` instead of
// overwriting history (the accounting self-check needs complete coverage,
// so silent wrap-around would be worse than visible loss).
//
// Tracing is opt-in per solve: engines record through a TraceLane* that is
// null unless SsspOptions::trace points at a recorder, so the untraced hot
// path pays exactly one pointer test per span site and zero extra clock
// reads (the accounting timers below read the clock either way, exactly as
// the engines always have).
//
// Readers (export, self-check, metrics snapshots) may run concurrently
// with writers: the lane size is published with release stores and spans
// are never overwritten, so an acquire load of the size yields a
// consistent prefix.
//
// Analyzer check A5 (scripts/analysis/): engine hot paths must not call
// steady_clock::now() directly — all wall-clock reads go through the
// helpers in this header (PhaseTimer, TimedSection, ScopedSpan), so every
// timed interval is visible to the trace and the sum-to-wall self-check.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/instrumentation.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace parsssp {

/// Span taxonomy. "Top-level" engine categories tile a rank's solve span
/// disjointly (the self-check sums them); kExchange/kApply nest inside
/// phases and are excluded from the sum; serve categories live on the
/// dispatcher lane of a QueryEngine.
enum class SpanCat : std::uint8_t {
  // Engine top-level: bucket bookkeeping (the BktTime side) ...
  kBucketScan,  ///< frontier collection, bucket advance, termination checks
  // ... and phase bodies (the OtherTime side).
  kInit,         ///< distance fill + root seed + starting barrier
  kShortPhase,   ///< one short-edge relaxation round of bucket k
  kLongPush,     ///< the long push phase of bucket k
  kLongPull,     ///< the long pull (request/response) phase of bucket k
  kDecision,     ///< the push/pull decision heuristic of bucket k
  kBellmanFord,  ///< one Bellman-Ford round (tail or Delta=inf regime)
  // Envelopes (excluded from the component sum).
  kSolve,       ///< one rank's whole single-root solve
  kMultiSweep,  ///< one rank's whole multi-root sweep
  // Nested inside phases (runtime data path; excluded from the sum).
  kExchange,  ///< RankCtx::exchange / exchange_pooled
  kApply,     ///< applying incoming relax batches
  // Serve layer (dispatcher lane).
  kAdmission,    ///< queue wait: submit() to batch close, one span per query
  kBatchClose,   ///< popping + closing one batch off the admission queue
  kCacheLookup,  ///< the batch's result-cache pass
  kServeSolve,   ///< the machine computation of a batch's unique roots
  // Dynamic-graph update subsystem (docs/DYNAMIC.md).
  kRepairFrontier,  ///< planning: suspects, downward closure, seed harvest
  kRepairSweep,     ///< the seeded Delta-stepping sweep of one repair
  kUpdateApply,     ///< serving: applying one edge batch + view patching
  // MVCC snapshot layer (docs/SNAPSHOTS.md; publish-thread lane).
  kSnapshotPublish,  ///< installing a new head + reader-gate drain
  kSnapshotRetire,   ///< one snapshot's limbo: supersession to reclamation
  // Asynchronous engine (docs/ASYNC.md; rank lanes, no tiling contract —
  // the barrier-free loop has no phase structure to sum against).
  kAsyncDrain,   ///< draining + applying one inbox swap
  kAsyncRelax,   ///< relaxing one popped priority batch + flushing sends
  kQuiescence,   ///< token handling / idle parking between work
  kCount
};

std::string_view span_cat_name(SpanCat cat);

/// Value for TraceSpan::arg when a span has no argument.
inline constexpr std::uint64_t kNoSpanArg = ~std::uint64_t{0};

struct TraceSpan {
  std::int64_t start_ns = 0;  ///< steady_clock, relative to recorder epoch
  std::int64_t dur_ns = 0;
  std::uint64_t arg = kNoSpanArg;  ///< bucket / batch size / rank, by cat
  SpanCat cat = SpanCat::kCount;
};

/// One thread's span ring. Single writer (the owning thread); any thread
/// may read a consistent prefix concurrently.
class alignas(kCacheLineBytes) TraceLane {
 public:
  /// Steady-clock nanoseconds since the recorder's epoch.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::int64_t to_ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Records one span; drops (and counts) if the ring is full. Owner
  /// thread only.
  void record(SpanCat cat, std::int64_t start_ns, std::int64_t dur_ns,
              std::uint64_t arg = kNoSpanArg) {
    const std::uint64_t n = size_.load(std::memory_order_relaxed);
    if (n >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[n] = TraceSpan{start_ns, dur_ns, arg, cat};
    size_.store(n + 1, std::memory_order_release);
  }

  const std::string& name() const { return name_; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Copies the published span prefix (safe concurrently with the writer).
  std::vector<TraceSpan> spans() const {
    const std::uint64_t n = size_.load(std::memory_order_acquire);
    return std::vector<TraceSpan>(slots_.begin(), slots_.begin() + n);
  }

  /// Constructed by TraceRecorder::thread_lane (public for emplacement).
  TraceLane(std::string name, std::size_t capacity,
            std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch), name_(std::move(name)) {
    slots_.resize(capacity);
  }
  TraceLane(const TraceLane&) = delete;
  TraceLane& operator=(const TraceLane&) = delete;

 private:
  friend class TraceRecorder;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> slots_;  ///< preallocated; never resized after ctor
  std::atomic<std::uint64_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::string name_;
};

/// Owns the lanes of one tracing session. Lane registration (first span
/// site per thread) takes a mutex; recording never does.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity_per_lane = 1u << 16)
      : epoch_(std::chrono::steady_clock::now()),
        capacity_(capacity_per_lane) {}

  /// The calling thread's lane, registered on first use. `name_hint` names
  /// the lane in the export (first registration wins); stable across calls
  /// from the same thread, so engines re-running on a session's rank
  /// threads reuse their lanes instead of growing the recorder.
  TraceLane& thread_lane(std::string_view name_hint);

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  struct LaneView {
    std::string name;
    std::vector<TraceSpan> spans;
    std::uint64_t dropped = 0;
  };
  /// Consistent per-lane prefixes; safe concurrently with writers.
  std::vector<LaneView> snapshot() const;

  std::uint64_t total_dropped() const;

  /// Resets every lane to empty. Writers must be quiescent (between
  /// solves); lane registrations are kept.
  void clear();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  mutable Mutex mutex_;
  std::deque<TraceLane> lanes_ MPS_GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, TraceLane*> by_thread_
      MPS_GUARDED_BY(mutex_);
};

/// RAII span over a scope. A null lane skips the clock reads entirely.
class ScopedSpan {
 public:
  explicit ScopedSpan(TraceLane* lane, SpanCat cat,
                      std::uint64_t arg = kNoSpanArg)
      : lane_(lane), cat_(cat), arg_(arg) {
    if (lane_ != nullptr) start_ns_ = lane_->now_ns();
  }
  ~ScopedSpan() {
    if (lane_ == nullptr) return;
    lane_->record(cat_, start_ns_, lane_->now_ns() - start_ns_, arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLane* lane_;
  SpanCat cat_;
  std::uint64_t arg_;
  std::int64_t start_ns_ = 0;
};

/// RAII wall-clock accumulator (the engines' phase timer). Always reads
/// the clock — this is the accounting path, active with tracing off.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& acc)
      : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& acc_;
  std::chrono::steady_clock::time_point t0_;
};

/// PhaseTimer + ScopedSpan fused over one clock pair: accumulates the
/// interval into `acc` and, when `lane` is non-null, records it as a span.
/// The traced and untraced runs therefore account identical intervals.
class TimedSection {
 public:
  TimedSection(double& acc, TraceLane* lane, SpanCat cat,
               std::uint64_t arg = kNoSpanArg)
      : acc_(acc),
        lane_(lane),
        cat_(cat),
        arg_(arg),
        t0_(std::chrono::steady_clock::now()) {}
  ~TimedSection() {
    const auto t1 = std::chrono::steady_clock::now();
    acc_ += std::chrono::duration<double>(t1 - t0_).count();
    if (lane_ != nullptr) {
      const std::int64_t s = lane_->to_ns(t0_);
      lane_->record(cat_, s, lane_->to_ns(t1) - s, arg_);
    }
  }
  TimedSection(const TimedSection&) = delete;
  TimedSection& operator=(const TimedSection&) = delete;

 private:
  double& acc_;
  TraceLane* lane_;
  SpanCat cat_;
  std::uint64_t arg_;
  std::chrono::steady_clock::time_point t0_;
};

/// Writes the recorder's spans as Chrome trace-event JSON ("traceEvents"
/// array of complete "X" events), loadable by ui.perfetto.dev and
/// chrome://tracing. One tid per lane; ts/dur in microseconds.
void write_chrome_trace(std::ostream& out, const TraceRecorder& recorder);

/// Accounting self-check over a traced single-root solve: on every lane
/// that carries a kSolve span, the top-level engine spans must tile the
/// solve — their durations sum to the solve span within tolerance — and
/// the kBucketScan subset must match the reported BktTime the same way
/// (max over ranks on both sides, mirroring SsspStats aggregation).
/// `abs_slack_s` absorbs per-span clock quantization on very fast solves.
struct TraceCheckReport {
  bool ok = false;
  double reported_wall_s = 0;    ///< stats: BktTime + OtherTime
  double reported_bucket_s = 0;  ///< stats: BktTime
  double span_wall_s = 0;        ///< max over lanes: top-level span sum
  double span_bucket_s = 0;      ///< max over lanes: kBucketScan span sum
  std::uint64_t dropped = 0;
  std::string detail;  ///< human-readable verdict (one line)
};
TraceCheckReport check_engine_accounting(const TraceRecorder& recorder,
                                         const SsspStats& stats,
                                         double tolerance = 0.05,
                                         double abs_slack_s = 500e-6);

}  // namespace parsssp
