// The pruning machinery (paper §III-B/C): communication-volume estimation
// for the push and pull long-phase models, and the per-bucket decision
// heuristic.
//
// Push volume  = number of long edges incident on the current bucket's
//                settled vertices (plus outer-short edges under IOS).
// Pull volume  = requests + responses; a request crosses edge <u,v> with v
//                in a later bucket iff w(e) < d(v) - k*Delta (eq. (1)), and
//                responses <= requests, the paper's working upper bound.
//
// Cost of a mode = volume + load_lambda * ranks * max_per_rank_volume,
// the "fine-tuned" form the paper alludes to: the second term penalizes
// concentrating traffic on one rank (the 15% of cases the volume-only
// heuristic got wrong). Validated against exhaustive decision sequences in
// bench/tabG_heuristic_validation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/buckets.hpp"
#include "core/dist_graph.hpp"
#include "core/options.hpp"
#include "core/types.hpp"

namespace parsssp {

/// This rank's contribution to the decision inputs for bucket k.
struct PushPullLocal {
  std::uint64_t push_volume = 0;  ///< long(-phase) arcs on local members
  std::uint64_t pull_requests = 0;  ///< requests local later-bucket vertices
                                    ///< would send (exact or expected)
};

/// Computes the local estimate.
///  - `members`: locals settled in the current epoch (bucket k).
///  - `dist_local`: owned tentative distances.
///  - `candidates`: the reached-but-unsettled owned vertices. The estimator
///    runs over those in a bucket after k; every unsettled unreached vertex
///    requests over all its qualifying arcs whatever k is, so that part is
///    candidates.unreached_pull(), which must be built with
///    unreached_pull_weight under the same `include_short_in_long_phase`.
///  - `include_short_in_long_phase`: true under IOS (outer-short edges are
///    relaxed in the long phase, and pulled over accordingly).
/// Under kExact the estimate is an integer sum, equal to a pass over every
/// unsettled owned vertex. Under kExpectation and kHistogram the unreached
/// terms are added once, after the rounded sum over the candidates, so the
/// estimate can differ from the interleaved pass by floating-point summation
/// order (at most 1 request).
PushPullLocal estimate_push_pull_local(
    const LocalEdgeView& view, std::span<const dist_t> dist_local,
    std::span<const vid_t> members, const ReachedSet& candidates,
    std::uint64_t k, std::uint32_t delta, EstimatorKind estimator,
    weight_t max_weight, bool include_short_in_long_phase);

/// Pull requests an unreached vertex sends whatever the bucket: one per long
/// arc, plus one per short arc under IOS. A ReachedSet built with this
/// weight supplies the unreached part of estimate_push_pull_local.
inline std::uint64_t unreached_pull_weight(const LocalEdgeView& view,
                                           vid_t local,
                                           bool include_short_in_long_phase) {
  return view.long_degree(local) +
         (include_short_in_long_phase ? view.short_degree(local) : 0);
}

/// Global decision inputs after reduction over ranks.
struct PushPullGlobal {
  std::uint64_t push_volume = 0;
  std::uint64_t pull_requests = 0;
  std::uint64_t push_max_rank = 0;
  std::uint64_t pull_max_rank = 0;
};

struct PushPullDecision {
  bool pull = false;
  double push_cost = 0;
  double pull_cost = 0;
};

/// The decision heuristic. `ranks` is the machine size R.
PushPullDecision decide_push_pull(const PushPullGlobal& global, rank_t ranks,
                                  double load_lambda);

/// Expected number of pull requests one vertex with distance `dv` would send
/// for bucket k, under uniform long-edge weights in [delta, max_weight]
/// (the paper's closed-form estimator, exposed for tests/ablation).
double expected_requests_for_vertex(std::uint64_t long_degree, dist_t dv,
                                    std::uint64_t k, std::uint32_t delta,
                                    weight_t max_weight);

}  // namespace parsssp
