#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>

#include "core/dist_graph.hpp"
#include "ledger.hpp"
#include "runtime/partition.hpp"

namespace parsssp::ledger {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double harmonic_mean(const std::vector<double>& v) {
  double inv = 0;
  for (const double x : v) inv += 1.0 / x;
  return inv > 0 ? static_cast<double>(v.size()) / inv : 0.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double windowed_percentile(const std::vector<double>& v, std::size_t window,
                           double p) {
  if (v.size() < 2 * window) return percentile(v, p);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= v.size(); at += window) {
    per_window.push_back(percentile(
        std::vector<double>(v.begin() + at, v.begin() + at + window), p));
  }
  return median(std::move(per_window));
}

double window_rate(const std::vector<double>& done_s) {
  constexpr int kWindows = 10;
  if (done_s.empty()) return 0;
  const double width = done_s.back() / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (const double t : done_s) {
    ++counts[std::min(kWindows - 1, static_cast<int>(t / width))];
  }
  return median(std::move(counts)) / width;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t digest(const std::vector<dist_t>& dist) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const dist_t d : dist) {
    h ^= d;
    h *= 0x100000001b3ull;
  }
  return h;
}

SolveSpans analyze_solve(const TraceRecorder& recorder) {
  SolveSpans out;
  double busy_max = 0, busy_sum = 0;
  int ranks = 0;
  for (const TraceRecorder::LaneView& lane : recorder.snapshot()) {
    if (!std::string_view(lane.name).starts_with("rank")) continue;
    double by_cat[static_cast<int>(SpanCat::kCount)] = {};
    for (const TraceSpan& s : lane.spans) {
      by_cat[static_cast<int>(s.cat)] += static_cast<double>(s.dur_ns) * 1e-9;
    }
    const auto cat = [&](SpanCat c) { return by_cat[static_cast<int>(c)]; };
    const double solve = cat(SpanCat::kSolve);
    if (solve <= 0) continue;
    const double exchange = cat(SpanCat::kExchange);
    const double phases = cat(SpanCat::kShortPhase) + cat(SpanCat::kLongPush) +
                          cat(SpanCat::kLongPull) + cat(SpanCat::kBellmanFord);
    out.exchange_s = std::max(out.exchange_s, exchange);
    out.bucket_scan_s = std::max(out.bucket_scan_s, cat(SpanCat::kBucketScan));
    out.decision_s = std::max(out.decision_s, cat(SpanCat::kDecision));
    out.apply_s = std::max(out.apply_s, cat(SpanCat::kApply));
    out.relax_s = std::max(out.relax_s, phases - exchange);
    out.init_s = std::max(out.init_s, cat(SpanCat::kInit));
    out.sync_sum_s +=
        exchange + cat(SpanCat::kBucketScan) + cat(SpanCat::kDecision);
    out.solve_sum_s += solve;
    busy_max = std::max(busy_max, solve - exchange);
    busy_sum += solve - exchange;
    ++ranks;
  }
  if (ranks > 0 && busy_sum > 0) out.imbalance = busy_max * ranks / busy_sum;
  return out;
}

void CoreLedger::add_untraced(double wall_s, const SsspStats& stats) {
  untraced_s_.push_back(wall_s);
  relax_ += static_cast<double>(stats.total_relaxations());
  phases_ += static_cast<double>(stats.phases);
  buckets_ += static_cast<double>(stats.buckets);
  syncs_ += static_cast<double>(stats.global_syncs());
  model_s_ += stats.model_time_s;
  ++stats_n_;
}

void CoreLedger::add_traced(double wall_s, const SolveSpans& spans) {
  traced_s_.push_back(wall_s);
  sum_.exchange_s += spans.exchange_s;
  sum_.bucket_scan_s += spans.bucket_scan_s;
  sum_.decision_s += spans.decision_s;
  sum_.apply_s += spans.apply_s;
  sum_.relax_s += spans.relax_s;
  sum_.init_s += spans.init_s;
  sum_.sync_sum_s += spans.sync_sum_s;
  sum_.solve_sum_s += spans.solve_sum_s;
  imbalance_sum_ += spans.imbalance;
}

void CoreLedger::report(Metrics& m) const {
  const auto per = [](double total, std::size_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  const double wall = mean(untraced_s_);
  const double relax = per(relax_, stats_n_);
  const double model = per(model_s_, stats_n_);
  m.set("core.relaxations", relax, "count");
  m.set("core.phases", per(phases_, stats_n_), "count");
  m.set("core.buckets", per(buckets_, stats_n_), "count");
  m.set("core.global_syncs", per(syncs_, stats_n_), "count");
  m.set("core.model_ms", model * 1e3, "ms");
  m.set("core.wall_over_model", model > 0 ? wall / model : 0.0, "ratio");
  m.set("core.ns_per_relax", relax > 0 ? wall * 1e9 / relax : 0.0, "ns");
  const std::size_t n = traced_s_.size();
  m.set("core.exchange_ms", per(sum_.exchange_s, n) * 1e3, "ms");
  m.set("core.bucket_scan_ms", per(sum_.bucket_scan_s, n) * 1e3, "ms");
  m.set("core.decision_ms", per(sum_.decision_s, n) * 1e3, "ms");
  m.set("core.apply_ms", per(sum_.apply_s, n) * 1e3, "ms");
  m.set("core.relax_ms", per(sum_.relax_s, n) * 1e3, "ms");
  m.set("core.init_ms", per(sum_.init_s, n) * 1e3, "ms");
  m.set("core.sync_span_frac",
        sum_.solve_sum_s > 0 ? sum_.sync_sum_s / sum_.solve_sum_s : 0.0,
        "ratio");
  m.set("core.rank_imbalance", per(imbalance_sum_, n), "ratio");
  m.set("obs.trace_overhead_frac",
        wall > 0 ? mean(traced_s_) / wall - 1.0 : 0.0, "ratio");
}

double time_view_build_s(const CsrGraph& g, int reps) {
  const BlockPartition part(g.num_vertices(), kRanks);
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    for (rank_t r = 0; r < kRanks; ++r) {
      const LocalEdgeView view = LocalEdgeView::build(g, part, r, kDelta);
    }
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

}  // namespace parsssp::ledger
