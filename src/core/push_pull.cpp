#include "core/push_pull.hpp"

#include <algorithm>
#include <cmath>

namespace parsssp {

double expected_requests_for_vertex(std::uint64_t long_degree, dist_t dv,
                                    std::uint64_t k, std::uint32_t delta,
                                    weight_t max_weight) {
  if (long_degree == 0) return 0.0;
  if (dv == kInfDist) return static_cast<double>(long_degree);
  // Request condition: w < d(v) - k*Delta with w uniform in [Delta, wmax].
  const dist_t bound = dv - k * static_cast<dist_t>(delta);
  if (bound <= delta) return 0.0;
  const double span =
      static_cast<double>(max_weight) - static_cast<double>(delta) + 1.0;
  if (span <= 0) return static_cast<double>(long_degree);
  const double p =
      std::min(1.0, (static_cast<double>(bound) - delta) / span);
  return static_cast<double>(long_degree) * p;
}

PushPullLocal estimate_push_pull_local(
    const LocalEdgeView& view, std::span<const dist_t> dist_local,
    std::span<const vid_t> members, const ReachedSet& candidates,
    std::uint64_t k, std::uint32_t delta, EstimatorKind estimator,
    weight_t max_weight, bool include_short_in_long_phase) {
  PushPullLocal local;

  // Push side: every long arc of a settled member is relaxed; under IOS the
  // outer-short arcs go out in the long phase too. We use the long degree
  // for both estimators (outer-short counts need d(u)-dependent filtering
  // that the paper's preprocessing-based estimate also omits).
  for (const vid_t u : members) {
    local.push_volume += view.long_degree(u);
    if (include_short_in_long_phase) {
      // Upper bound: all short arcs could be outer-short.
      local.push_volume += view.short_degree(u);
    }
  }

  // Pull side: later-bucket vertices request over qualifying arcs. Reached
  // ones are filtered by eq. (1); unreached ones request over every arc.
  double expected = 0.0;
  candidates.for_each([&](vid_t v) {
    const dist_t dv = dist_local[v];
    if (bucket_of(dv, delta) <= k) return;  // current bucket
    const dist_t bound = dv - k * static_cast<dist_t>(delta);
    switch (estimator) {
      case EstimatorKind::kExact:
        local.pull_requests += view.count_long_below(v, bound);
        break;
      case EstimatorKind::kExpectation:
        expected += expected_requests_for_vertex(view.long_degree(v), dv, k,
                                                 delta, max_weight);
        break;
      case EstimatorKind::kHistogram:
        expected += view.count_long_below_histogram(v, bound);
        break;
    }
    if (include_short_in_long_phase) {
      if (estimator == EstimatorKind::kExact) {
        local.pull_requests += view.short_degree(v);
      } else {
        expected += static_cast<double>(view.short_degree(v));
      }
    }
  });
  if (estimator != EstimatorKind::kExact) {
    local.pull_requests += static_cast<std::uint64_t>(std::llround(expected));
  }
  local.pull_requests += candidates.unreached_pull();
  return local;
}

PushPullDecision decide_push_pull(const PushPullGlobal& global, rank_t ranks,
                                  double load_lambda) {
  PushPullDecision d;
  // Volume: push moves push_volume messages; pull moves requests plus (at
  // most) as many responses.
  const double push_volume = static_cast<double>(global.push_volume);
  const double pull_volume = 2.0 * static_cast<double>(global.pull_requests);
  d.push_cost = push_volume +
                load_lambda * ranks * static_cast<double>(global.push_max_rank);
  d.pull_cost = pull_volume +
                load_lambda * ranks *
                    (2.0 * static_cast<double>(global.pull_max_rank));
  d.pull = d.pull_cost < d.push_cost;
  return d;
}

}  // namespace parsssp
