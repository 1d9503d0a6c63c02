// The layer ledger: one benchmark for the solve and serve paths, with a
// traced mode that attributes the time to layers. See ledger/README.md for
// the workloads, the metric map and how to read a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instrumentation.hpp"
#include "core/types.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"

namespace parsssp::ledger {

/// Every workload runs 4 ranks x 1 lane: one rank thread per core of the
/// 4-core reference box, so the numbers time the engine, not the OS
/// scheduler.
inline constexpr rank_t kRanks = 4;
inline constexpr unsigned kLanes = 1;
inline constexpr std::uint32_t kDelta = 25;

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Negative control: corrupt one checked distance before the gate sees
  /// it. The run must then report a failed operation and exit non-zero.
  bool corrupt = false;
  /// Print the seed-derived inputs (roots, streams, update batches) and
  /// exit; the benchmark's own tests compare these across seeds.
  bool dump_inputs = false;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed; a wrong answer counts as failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Graph 500's TEPS average: the harmonic mean.
double harmonic_mean(const std::vector<double>& v);
/// Nearest-rank percentile: the ceil(p * n)-th smallest sample.
double percentile(std::vector<double> v, double p);
/// The median over consecutive whole windows of `window` samples (in time
/// order) of each window's p-th percentile, dropping a trailing partial
/// window; with fewer than two whole windows, the percentile of all of `v`.
/// A slow spell of the host then moves only the windows it overlaps, not
/// the reported figure.
double windowed_percentile(const std::vector<double>& v, std::size_t window,
                           double p);
/// Operations completed per second, given each one's completion time
/// (seconds from the loop's start, ascending): the median over ten equal
/// time slices, so a few seconds of host noise move it less than a mean
/// over the whole loop would.
double window_rate(const std::vector<double>& done_s);
/// Peak resident set size of this process so far.
double peak_rss_mb();
/// FNV-1a over a distance vector: the gate compares answers by digest so
/// the oracle need not keep every distance vector resident.
std::uint64_t digest(const std::vector<dist_t>& dist);

/// Per-solve span sums of one traced solve, max over ranks unless noted.
struct SolveSpans {
  double exchange_s = 0;
  double bucket_scan_s = 0;
  double decision_s = 0;
  double apply_s = 0;
  double relax_s = 0;  ///< phase spans minus the exchanges nested in them
  double init_s = 0;
  /// Summed over ranks: exchange + bucket_scan + decision, and solve.
  double sync_sum_s = 0;
  double solve_sum_s = 0;
  /// max / mean over ranks of (solve - exchange).
  double imbalance = 1;
};
/// Reads the rank lanes of `recorder` after one single-root solve.
SolveSpans analyze_solve(const TraceRecorder& recorder);

/// Accumulates core.* metrics over solves of one workload.
class CoreLedger {
 public:
  /// One untraced solve: its wall time (call to return) and statistics.
  void add_untraced(double wall_s, const SsspStats& stats);
  /// One traced solve: its wall time and span sums.
  void add_traced(double wall_s, const SolveSpans& spans);
  void report(Metrics& m) const;

 private:
  std::vector<double> untraced_s_, traced_s_;
  double relax_ = 0, phases_ = 0, buckets_ = 0, syncs_ = 0, model_s_ = 0;
  std::size_t stats_n_ = 0;
  SolveSpans sum_;
  double imbalance_sum_ = 0;
};

/// Runs `set_up` at least 5 times and, while under a second in total, up
/// to 25 times: setup_s is the median, so a fast set-up gets enough
/// samples to be steady.
template <typename SetUp>
void repeat_set_up(SetUp set_up) {
  const auto t0 = Clock::now();
  for (int rep = 0;
       rep < 5 || (rep < 25 && seconds_between(t0, Clock::now()) < 1.0);
       ++rep) {
    set_up();
  }
}

/// Median over `reps` builds of every rank's LocalEdgeView at kDelta.
double time_view_build_s(const CsrGraph& g, int reps);

/// runtime.* metrics: fences, exchange rounds, sender reduction and job
/// dispatch, timed inside MachineSession jobs at kRanks x kLanes.
void runtime_probe(Metrics& m);

/// The workloads. Each fills `m` (end-to-end metrics untraced, per-layer
/// metrics traced) and `out`.
void run_solve_workload(const Args& args, Metrics& m, Outcome& out);
void run_serve_workload(const Args& args, Metrics& m, Outcome& out);

/// Per-layer serve/update/snapshot metrics from a short serve stream on
/// `graph` (the solve workloads' traced runs use it, so every workload
/// reports every layer).
void serve_probe(const CsrGraph& graph, const Args& args, Metrics& m,
                 Outcome& out);

}  // namespace parsssp::ledger
