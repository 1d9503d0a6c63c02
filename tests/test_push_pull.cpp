#include "core/push_pull.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace parsssp {
namespace {

CsrGraph long_edge_graph() {
  // All weights >= delta=10 so every arc is long.
  EdgeList list;
  list.add_edge(0, 1, 10);
  list.add_edge(0, 2, 20);
  list.add_edge(0, 3, 30);
  list.add_edge(1, 2, 15);
  return CsrGraph::from_edges(list);
}

struct Fixture {
  CsrGraph g = long_edge_graph();
  BlockPartition part{4, 1};
  LocalEdgeView view = LocalEdgeView::build(g, part, 0, 10);
};

ReachedSet reached_set(const LocalEdgeView& view,
                       const std::vector<dist_t>& dist,
                       const std::vector<char>& settled, bool ios) {
  ReachedSet set;
  set.build(dist, settled,
            [&](vid_t v) { return unreached_pull_weight(view, v, ios); });
  return set;
}

/// The estimate (delta 10) over the set built from `dist` and `settled`.
PushPullLocal estimate(const LocalEdgeView& view,
                       const std::vector<dist_t>& dist,
                       const std::vector<char>& settled,
                       const std::vector<vid_t>& members, std::uint64_t k,
                       EstimatorKind estimator, weight_t max_weight,
                       bool ios) {
  return estimate_push_pull_local(view, dist, members,
                                  reached_set(view, dist, settled, ios), k, 10,
                                  estimator, max_weight, ios);
}

TEST(PushPullEstimate, PushVolumeSumsLongDegrees) {
  Fixture f;
  const std::vector<dist_t> dist{5, kInfDist, kInfDist, kInfDist};
  const std::vector<char> settled{0, 0, 0, 0};
  const std::vector<vid_t> members{0};  // vertex 0 in bucket 0
  const auto est = estimate(f.view, dist, settled, members, 0,
                            EstimatorKind::kExact, 30, /*ios=*/false);
  EXPECT_EQ(est.push_volume, 3u);  // deg(0) = 3 long arcs
}

TEST(PushPullEstimate, PullCountsUnreachedFully) {
  Fixture f;
  const std::vector<dist_t> dist{5, kInfDist, kInfDist, kInfDist};
  const std::vector<char> settled{0, 0, 0, 0};
  const std::vector<vid_t> members{0};
  const auto est = estimate(f.view, dist, settled, members, 0,
                            EstimatorKind::kExact, 30, /*ios=*/false);
  // Vertices 1,2,3 are in B_inf; all their long arcs qualify:
  // deg(1)=2, deg(2)=2, deg(3)=1 -> 5 requests.
  EXPECT_EQ(est.pull_requests, 5u);
}

TEST(PushPullEstimate, PullBoundFiltersByWeight) {
  Fixture f;
  // Vertex 2 has tentative distance 25 (bucket 2 for delta=10). For the
  // current bucket k=0, bound = 25; arcs of 2: weights {20, 15} -> both < 25.
  // Vertex 3 dist 35 (bucket 3), bound 35, arc weight 30 qualifies.
  const std::vector<dist_t> dist{5, 12, 25, 35};
  const std::vector<char> settled{0, 0, 0, 0};
  const std::vector<vid_t> members{0};
  const auto est = estimate(f.view, dist, settled, members, 0,
                            EstimatorKind::kExact, 30, /*ios=*/false);
  // Vertex 1 (bucket 1, bound 12): arcs {10, 15} -> only 10 qualifies.
  EXPECT_EQ(est.pull_requests, 1u + 2u + 1u);
}

TEST(PushPullEstimate, SettledAndCurrentBucketExcludedFromPull) {
  Fixture f;
  const std::vector<dist_t> dist{5, 8, 25, kInfDist};
  std::vector<char> settled{0, 0, 0, 1};  // 3 settled (artificially)
  const std::vector<vid_t> members{0, 1};  // both in bucket 0
  const auto est = estimate(f.view, dist, settled, members, 0,
                            EstimatorKind::kExact, 30, /*ios=*/false);
  // Only vertex 2 is an unsettled later-bucket vertex.
  EXPECT_EQ(est.pull_requests, 2u);
}

TEST(ExpectedRequests, MatchesClosedForm) {
  // long_degree=10, d(v)=100, k=0, delta=10, wmax=100:
  // bound=100, p=(100-10)/(100-10+1)=90/91.
  const double e = expected_requests_for_vertex(10, 100, 0, 10, 100);
  EXPECT_NEAR(e, 10.0 * 90.0 / 91.0, 1e-9);
}

TEST(ExpectedRequests, InfDistanceCountsAll) {
  EXPECT_DOUBLE_EQ(expected_requests_for_vertex(7, kInfDist, 3, 10, 100),
                   7.0);
}

TEST(ExpectedRequests, TightBoundGivesZero) {
  // bound = d - k*delta = 10 = delta -> no long edge can qualify.
  EXPECT_DOUBLE_EQ(expected_requests_for_vertex(5, 30, 2, 10, 100), 0.0);
}

TEST(ExpectedRequests, CappedAtDegree) {
  const double e = expected_requests_for_vertex(4, 1000000, 0, 10, 100);
  EXPECT_DOUBLE_EQ(e, 4.0);
}

TEST(PushPullEstimate, ExpectationTracksExactOnUniformWeights) {
  // Build a vertex with many long arcs of uniform weights and check the two
  // estimators agree within a loose tolerance.
  EdgeList list;
  for (vid_t i = 1; i <= 200; ++i) {
    list.add_edge(0, i, static_cast<weight_t>(10 + (i * 37) % 91));  // 10..100
  }
  const auto g = CsrGraph::from_edges(list);
  const BlockPartition part(g.num_vertices(), 1);
  const auto view = LocalEdgeView::build(g, part, 0, 10);

  std::vector<dist_t> dist(g.num_vertices(), kInfDist);
  dist[0] = 60;  // bucket 6; bound for k=0 is 60
  std::vector<char> settled(g.num_vertices(), 1);
  settled[0] = 0;
  const std::vector<vid_t> members;
  const auto exact = estimate(view, dist, settled, members, 0,
                              EstimatorKind::kExact, 100, /*ios=*/false);
  const auto approx = estimate(view, dist, settled, members, 0,
                               EstimatorKind::kExpectation, 100,
                               /*ios=*/false);
  EXPECT_GT(exact.pull_requests, 0u);
  const double ratio = static_cast<double>(approx.pull_requests) /
                       static_cast<double>(exact.pull_requests);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

// The estimator as one pass over every owned vertex, the unreached
// vertices' terms interleaved with the rest: what the set-based estimate
// replaces.
std::uint64_t full_pass_pull(const LocalEdgeView& view,
                             const std::vector<dist_t>& dist,
                             const std::vector<char>& settled, std::uint64_t k,
                             std::uint32_t delta, EstimatorKind estimator,
                             weight_t max_weight, bool ios) {
  std::uint64_t exact = 0;
  double expected = 0.0;
  for (vid_t v = 0; v < view.num_local(); ++v) {
    if (settled[v]) continue;
    const dist_t dv = dist[v];
    if (bucket_of(dv, delta) <= k) continue;
    const dist_t bound =
        dv == kInfDist ? kInfDist : dv - k * static_cast<dist_t>(delta);
    switch (estimator) {
      case EstimatorKind::kExact:
        exact += view.count_long_below(v, bound) +
                 (ios ? view.short_degree(v) : 0);
        break;
      case EstimatorKind::kExpectation:
        expected += expected_requests_for_vertex(view.long_degree(v), dv, k,
                                                 delta, max_weight);
        break;
      case EstimatorKind::kHistogram:
        expected += view.count_long_below_histogram(v, bound);
        break;
    }
    if (ios && estimator != EstimatorKind::kExact) {
      expected += static_cast<double>(view.short_degree(v));
    }
  }
  return exact + static_cast<std::uint64_t>(std::llround(expected));
}

TEST(PushPullEstimate, ReachedSetMatchesFullPass) {
  // A random graph with short and long arcs (delta 10), estimated on the
  // middle rank of three so locals are offsets into the owned slice.
  constexpr std::uint32_t kDelta = 10;
  constexpr weight_t kMaxWeight = 100;
  std::mt19937_64 rng(7);
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  EdgeList list;
  constexpr vid_t kVertices = 600;
  for (int e = 0; e < 6000; ++e) {
    list.add_edge(pick(0, kVertices - 1), pick(0, kVertices - 1),
                  static_cast<weight_t>(pick(1, kMaxWeight)));
  }
  const auto g = CsrGraph::from_edges(list);
  const BlockPartition part(g.num_vertices(), 3);
  const auto view = LocalEdgeView::build(g, part, 1, kDelta);
  const vid_t n = view.num_local();

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<dist_t> dist(n);
    std::vector<char> settled(n);
    for (vid_t v = 0; v < n; ++v) {
      dist[v] = pick(0, 3) == 0 ? kInfDist : pick(0, 600);
      settled[v] = dist[v] != kInfDist && pick(0, 3) == 0;
    }
    // Preset-settled unreached vertices of a seeded run.
    for (int i = 0; i < 5; ++i) settled[pick(0, n - 1)] = 1;
    const std::vector<vid_t> members;
    for (const bool ios : {false, true}) {
      const std::uint64_t k = pick(0, 40);
      for (const EstimatorKind estimator :
           {EstimatorKind::kExact, EstimatorKind::kExpectation,
            EstimatorKind::kHistogram}) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " ios " << ios << " k " << k
                     << " estimator " << static_cast<int>(estimator));
        const std::uint64_t want = full_pass_pull(
            view, dist, settled, k, kDelta, estimator, kMaxWeight, ios);
        const std::uint64_t got =
            estimate_push_pull_local(view, dist, members,
                                     reached_set(view, dist, settled, ios), k,
                                     kDelta, estimator, kMaxWeight, ios)
                .pull_requests;
        if (estimator == EstimatorKind::kExact) {
          EXPECT_EQ(got, want);
        } else {
          EXPECT_LE(got, want + 1);
          EXPECT_LE(want, got + 1);
        }
      }
    }
  }
}

TEST(Decision, PicksLowerVolume) {
  PushPullGlobal g;
  g.push_volume = 1000;
  g.pull_requests = 100;  // pull volume 200
  g.push_max_rank = 0;
  g.pull_max_rank = 0;
  EXPECT_TRUE(decide_push_pull(g, 4, 0.0).pull);

  g.push_volume = 100;
  g.pull_requests = 1000;
  EXPECT_FALSE(decide_push_pull(g, 4, 0.0).pull);
}

TEST(Decision, LoadTermCanFlipChoice) {
  PushPullGlobal g;
  // Volumes slightly favour pull, but pull's traffic all sits on one rank.
  g.push_volume = 420;
  g.pull_requests = 200;  // pull volume 400
  g.push_max_rank = 40;   // push nicely balanced over ~10 ranks
  g.pull_max_rank = 200;  // pull concentrated
  EXPECT_TRUE(decide_push_pull(g, 8, 0.0).pull);
  EXPECT_FALSE(decide_push_pull(g, 8, 1.0).pull);
}

TEST(Decision, CostsReported) {
  PushPullGlobal g;
  g.push_volume = 10;
  g.pull_requests = 10;
  const auto d = decide_push_pull(g, 1, 0.0);
  EXPECT_DOUBLE_EQ(d.push_cost, 10.0);
  EXPECT_DOUBLE_EQ(d.pull_cost, 20.0);
  EXPECT_FALSE(d.pull);
}

}  // namespace
}  // namespace parsssp
