// The histogram-based pull-request estimator (paper §III-C's "histograms
// could be used for deriving approximate estimates").
#include <gtest/gtest.h>

#include "core/dist_graph.hpp"
#include "core/push_pull.hpp"
#include "core/solver.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"

namespace parsssp {
namespace {

// 200 long arcs on vertex 0, weights spread over [10, 100].
struct Fixture {
  Fixture() {
    EdgeList list;
    for (vid_t i = 1; i <= 200; ++i) {
      list.add_edge(0, i, static_cast<weight_t>(10 + (i * 37) % 91));
    }
    g = CsrGraph::from_edges(list);
    part = BlockPartition(g.num_vertices(), 1);
    view = LocalEdgeView::build(g, part, 0, 10);
  }
  CsrGraph g;
  BlockPartition part;
  LocalEdgeView view;
};

TEST(HistogramEstimator, ZeroBelowDelta) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.view.count_long_below_histogram(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(f.view.count_long_below_histogram(0, 5), 0.0);
}

TEST(HistogramEstimator, FullAboveMax) {
  Fixture f;
  EXPECT_NEAR(f.view.count_long_below_histogram(0, 10000), 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(f.view.count_long_below_histogram(0, kInfDist), 200.0);
}

TEST(HistogramEstimator, TracksExactWithinBinResolution) {
  Fixture f;
  for (const dist_t bound : {20u, 35u, 50u, 64u, 80u, 99u}) {
    const double exact =
        static_cast<double>(f.view.count_long_below(0, bound));
    const double approx = f.view.count_long_below_histogram(0, bound);
    // One bin spans ~5.7 weight units here; allow 2 bins of slack.
    EXPECT_NEAR(approx, exact, 2.0 * 200.0 / LocalEdgeView::kHistogramBins)
        << "bound=" << bound;
  }
}

TEST(HistogramEstimator, MonotoneInBound) {
  Fixture f;
  double prev = -1.0;
  for (dist_t bound = 10; bound <= 110; bound += 5) {
    const double c = f.view.count_long_below_histogram(0, bound);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(HistogramEstimator, UsedByPushPullEstimate) {
  Fixture f;
  std::vector<dist_t> dist(f.g.num_vertices(), kInfDist);
  dist[0] = 60;
  std::vector<char> settled(f.g.num_vertices(), 1);
  settled[0] = 0;
  const std::vector<vid_t> members;
  ReachedSet candidates;
  candidates.build(dist, settled, [&](vid_t v) {
    return unreached_pull_weight(f.view, v, false);
  });
  const auto exact =
      estimate_push_pull_local(f.view, dist, members, candidates, 0, 10,
                               EstimatorKind::kExact, 100, false);
  const auto hist =
      estimate_push_pull_local(f.view, dist, members, candidates, 0, 10,
                               EstimatorKind::kHistogram, 100, false);
  EXPECT_GT(hist.pull_requests, 0u);
  const double ratio = static_cast<double>(hist.pull_requests) /
                       static_cast<double>(exact.pull_requests);
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.25);
}

TEST(HistogramEstimator, EngineCorrectUnderHistogramDecisions) {
  RmatConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 8;
  const auto g = CsrGraph::from_edges(generate_rmat(cfg));
  Solver solver(g, {.machine = {.num_ranks = 4}});
  SsspOptions o = SsspOptions::prune(25);
  o.estimator = EstimatorKind::kHistogram;
  const vid_t root = sample_roots(g, 1, 1).at(0);
  EXPECT_EQ(solver.solve(root, o).dist, dijkstra_distances(g, root));
}

}  // namespace
}  // namespace parsssp
