// solve-rmat1 and solve-road: back-to-back single-root Solver::solve calls
// from one client thread, OPT-25, roots taken from the seed.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_util/runner.hpp"
#include "core/solver.hpp"
#include "graph/builders.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "ledger.hpp"
#include "seq/dijkstra.hpp"
#include "update/dynamic_graph.hpp"

namespace parsssp::ledger {
namespace {

/// Distinct roots cycled by the timed loop. Each one's oracle digest is
/// computed once, so every timed solve is checked without keeping a
/// distance vector per solve. The latency percentiles are taken per whole
/// cycle, so every window holds the same root mix, and enough roots that
/// the p95 of a cycle rests on a dozen of them, not on the seed's few
/// slowest.
constexpr std::size_t kRoots = 256;

EdgeList workload_edges(const std::string& workload) {
  if (workload == "solve-rmat1") {
    return generate_rmat(family_config(RmatFamily::kRmat1, 16));
  }
  // The heterogeneous-weight road-like grid of bench/tuner_bakeoff, at
  // 128 x 128: deep (hundreds of buckets), low degree.
  return make_grid(128, [](vid_t a, vid_t b) {
    return static_cast<weight_t>(20 + (a * 31 + b * 17) % 50);
  });
}

struct Instance {
  std::unique_ptr<CsrGraph> graph;
  std::unique_ptr<Solver> solver;
};

/// CSR build + Solver construction + first view build, the set-up a user
/// of Solver pays before the first answer. The first solve itself is not
/// set-up; its view build is (Solver::last_preprocess_seconds).
Instance set_up(const EdgeList& edges, double* setup_s, double* csr_s) {
  Instance inst;
  const auto t0 = Clock::now();
  inst.graph = std::make_unique<CsrGraph>(CsrGraph::from_edges(edges));
  const auto t1 = Clock::now();
  inst.solver = std::make_unique<Solver>(
      *inst.graph,
      SolverConfig{.machine = {.num_ranks = kRanks, .lanes_per_rank = kLanes}});
  const auto t2 = Clock::now();
  inst.solver->solve(0, SsspOptions::opt(kDelta));
  *csr_s = seconds_between(t0, t1);
  *setup_s = seconds_between(t0, t2) + inst.solver->last_preprocess_seconds();
  return inst;
}

}  // namespace

void run_solve_workload(const Args& args, Metrics& m, Outcome& out) {
  const EdgeList edges = workload_edges(args.workload);

  std::vector<double> setup_s, csr_s;
  Instance inst;
  repeat_set_up([&] {
    inst.solver.reset();  // the Solver references the graph: drop it first
    inst.graph.reset();
    double s = 0, c = 0;
    inst = set_up(edges, &s, &c);
    setup_s.push_back(s);
    csr_s.push_back(c);
  });
  const CsrGraph& g = *inst.graph;
  Solver& solver = *inst.solver;

  const std::vector<vid_t> roots = sample_roots(g, kRoots, args.seed);
  if (args.dump_inputs) {
    std::printf("roots");
    for (const vid_t r : roots) std::printf(" %llu", (unsigned long long)r);
    std::printf("\n");
    return;
  }
  // The oracle runs before any timing, one thread per rank's core.
  std::vector<std::uint64_t> oracle(roots.size());
  {
    std::vector<std::jthread> workers;
    for (rank_t w = 0; w < kRanks; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t k = w; k < roots.size(); k += kRanks) {
          oracle[k] = digest(dijkstra_distances(g, roots[k]));
        }
      });
    }
  }

  const SsspOptions options = SsspOptions::opt(kDelta);
  // The gate runs outside the timed region; a wrong answer is a failed op.
  const auto check = [&](std::size_t i, std::vector<dist_t>& dist) {
    ++out.attempted;
    if (args.corrupt && out.attempted == 1) dist[dist.size() / 2] += 1;
    if (digest(dist) != oracle[i % roots.size()]) {
      ++out.failed;
      std::fprintf(stderr, "MISMATCH: root %llu differs from Dijkstra\n",
                   (unsigned long long)roots[i % roots.size()]);
    }
  };

  // Untraced loop. In a traced run it takes 40% of the budget and serves
  // as the trace-overhead baseline.
  CoreLedger core;
  std::vector<double> wall_s, gteps, done_s;
  const double loop_s = args.trace ? args.seconds * 0.4 : args.seconds;
  const auto loop_start = Clock::now();
  std::size_t i = 0;
  for (; seconds_between(loop_start, Clock::now()) < loop_s || i < roots.size();
       ++i) {
    const auto t0 = Clock::now();
    SsspResult r = solver.solve(roots[i % roots.size()], options);
    const double dt = seconds_between(t0, Clock::now());
    wall_s.push_back(dt);
    done_s.push_back(seconds_between(loop_start, Clock::now()));
    gteps.push_back(r.stats.gteps(g.num_undirected_edges()));
    core.add_untraced(dt, r.stats);
    check(i, r.dist);
  }

  if (!args.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("p50_ms", windowed_percentile(wall_s, roots.size(), 0.50) * 1e3,
          "ms");
    m.set("tail_ms", windowed_percentile(wall_s, roots.size(), 0.95) * 1e3,
          "ms");
    m.set("model_gteps", harmonic_mean(gteps), "GTEPS");
    m.set("rate_per_s", window_rate(done_s), "1/s");
    std::fprintf(stderr, "solves: %zu, %zu whole root cycles of %zu\n",
                 wall_s.size(), wall_s.size() / roots.size(), roots.size());
    return;
  }

  // Traced loop: a fresh recorder per solve keeps the rank lanes bounded
  // (Solver::solve spawns new rank threads on every call).
  SsspOptions traced = options;
  const auto traced_start = Clock::now();
  for (std::size_t j = 0;
       seconds_between(traced_start, Clock::now()) < loop_s || j < roots.size();
       ++j, ++i) {
    TraceRecorder recorder(1u << 14);
    traced.trace = &recorder;
    const auto t0 = Clock::now();
    SsspResult r = solver.solve(roots[i % roots.size()], traced);
    const double dt = seconds_between(t0, Clock::now());
    core.add_traced(dt, analyze_solve(recorder));
    if (recorder.total_dropped() != 0) {
      throw std::runtime_error("trace lane overflow; raise the lane capacity");
    }
    check(i, r.dist);
  }

  runtime_probe(m);
  core.report(m);
  m.set("core.view_build_ms", time_view_build_s(g, 5) * 1e3, "ms");
  m.set("graph.csr_build_ms", median(csr_s) * 1e3, "ms");
  serve_probe(strip_self_loops(g), args, m, out);
}

}  // namespace parsssp::ledger
