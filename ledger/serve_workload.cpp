// serve-mixed: a QueryEngine over a DynamicGraph (MVCC default) serving
// OPT-25 queries open-loop, with update batches injected into the stream.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string_view>
#include <thread>

#include "bench_util/runner.hpp"
#include "core/solver.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "ledger.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "update/dynamic_graph.hpp"

namespace parsssp::ledger {
namespace {

constexpr std::uint32_t kScale = 14;
constexpr double kRateQps = 25;
constexpr std::size_t kRootDomain = 256;
constexpr double kZipfS = 1.2;
constexpr std::size_t kUpdateEvery = 20;  ///< one batch per this many queries
constexpr std::size_t kOpsPerBatch = 8;
constexpr std::size_t kSamples = 32;  ///< answers the gate re-solves

/// Independent seed streams for the inputs of one run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return rmat_hash(seed, salt);
}

/// `count` update batches, each valid against the graph as the previous
/// ones left it: generated on a mirror that applies each batch at once.
/// The mirror's apply times are the update.apply_us samples.
std::vector<EdgeBatch> make_batches(const CsrGraph& base, std::size_t count,
                                    std::uint64_t seed,
                                    std::vector<double>* apply_s) {
  DynamicGraph mirror(base);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> pick_vertex(0, base.num_vertices() - 1);
  std::uniform_int_distribution<weight_t> pick_weight(1, 255);
  std::vector<EdgeBatch> batches;
  while (batches.size() < count) {
    EdgeBatch batch;
    std::map<std::pair<vid_t, vid_t>, bool> used;  // one op per pair
    while (batch.size() < kOpsPerBatch) {
      const auto roll = rng() % 4;
      // Half the ops touch an existing edge of a random vertex, so deletes
      // and reweights find edges on a sparse graph.
      const vid_t u = pick_vertex(rng);
      vid_t v = pick_vertex(rng);
      if (roll != 0) {
        const std::vector<Arc> arcs = mirror.arcs_of(u);
        if (arcs.empty()) continue;
        v = arcs[rng() % arcs.size()].to;
      }
      if (u == v || !used.emplace(std::minmax(u, v), true).second) continue;
      const bool present = mirror.has_edge(u, v);
      if (roll == 0 && !present) {
        batch.insert_edge(u, v, pick_weight(rng));
      } else if (roll == 1 && present) {
        batch.delete_edge(u, v);
      } else if (roll >= 2 && present) {
        batch.update_weight(u, v, pick_weight(rng));
      }
    }
    const auto t0 = Clock::now();
    mirror.apply(batch);
    apply_s->push_back(seconds_between(t0, Clock::now()));
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Zipf-popular roots over a domain of kRootDomain giant-component
/// vertices taken from the seed (isolated roots would make the per-query
/// cost, and so the load, depend on the seed), with Poisson arrivals.
std::vector<QueryEvent> make_stream(const CsrGraph& g, std::size_t queries,
                                    double rate, std::uint64_t seed) {
  const std::vector<vid_t> domain = sample_roots(g, kRootDomain, seed);
  // The generator draws vertex ids in [0, n); with n = |domain| they index
  // the domain.
  std::vector<QueryEvent> stream =
      make_open_loop_stream({.num_queries = queries,
                             .rate_qps = rate,
                             .dist = RootDist::kZipf,
                             .zipf_s = kZipfS,
                             .num_roots_domain = kRootDomain,
                             .seed = seed},
                            domain.size());
  for (QueryEvent& q : stream) q.root = domain[q.root];
  return stream;
}

struct ServeInstance {
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<QueryEngine> engine;  ///< declared last: destroyed first

  void reset() {
    engine.reset();
    graph.reset();
  }
};

/// DynamicGraph + QueryEngine construction + one query, which pays the
/// engine's first view build.
ServeInstance set_up(const CsrGraph& base, TraceRecorder* trace) {
  ServeInstance inst;
  inst.graph = std::make_unique<DynamicGraph>(base);
  ServeConfig config;
  config.machine = {.num_ranks = kRanks, .lanes_per_rank = kLanes};
  config.trace = trace;
  inst.engine = std::make_unique<QueryEngine>(*inst.graph, config);
  inst.engine->query(0, SsspOptions::opt(kDelta));
  return inst;
}

/// A served answer kept for the gate.
struct Sample {
  vid_t root = 0;
  std::uint64_t version = 0;
  std::shared_ptr<const QueryAnswer> answer;
};

struct StreamRun {
  std::vector<double> query_s;   ///< completion minus scheduled send
  std::vector<double> update_s;  ///< completion minus send
  double late_max_s = 0;         ///< how far behind schedule the sender ran
  double late_mean_s = 0;
  double tail_end_s = 0;  ///< median latency of the last 10% of queries
  std::vector<Sample> samples;
  ServeStats stats;
  std::uint64_t live_max = 0;
  double retire_mean_s = 0;
};

/// Replays `stream` open-loop from this (the only client) thread: each
/// query is submitted at its scheduled time, and batch k goes in just
/// before query (k + 1) * kUpdateEvery. Latency counts from the scheduled
/// send, so a stalled sender charges the wait to the queries behind it.
StreamRun run_stream(ServeInstance& inst,
                     const std::vector<QueryEvent>& stream,
                     const std::vector<EdgeBatch>& batches, Outcome& out) {
  QueryEngine& engine = *inst.engine;
  SnapshotManager& manager = *inst.graph->snapshot_manager();
  const SsspOptions options = SsspOptions::opt(kDelta);
  const std::size_t sample_every =
      std::max<std::size_t>(1, stream.size() / kSamples);

  StreamRun run;
  std::vector<std::future<QueryResult>> futures;
  std::vector<Clock::time_point> due_at;
  std::vector<std::future<UpdateResult>> update_futures;
  std::vector<Clock::time_point> update_sent;
  futures.reserve(stream.size());
  due_at.reserve(stream.size());

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  double late_sum = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(stream[i].arrival_s));
    std::this_thread::sleep_until(due);
    const std::size_t b = i / kUpdateEvery;
    if (i % kUpdateEvery == 0 && i > 0 && b - 1 < batches.size()) {
      update_sent.push_back(Clock::now());
      update_futures.push_back(engine.apply_updates(batches[b - 1]));
      run.live_max = std::max(run.live_max, manager.stats().live);
    }
    const double late = seconds_between(due, Clock::now());
    run.late_max_s = std::max(run.late_max_s, late);
    late_sum += late;
    due_at.push_back(due);
    futures.push_back(engine.submit(stream[i].root, options));
  }
  run.late_mean_s = late_sum / static_cast<double>(stream.size());

  for (std::size_t i = 0; i < futures.size(); ++i) {
    ++out.attempted;
    try {
      const QueryResult r = futures[i].get();
      run.query_s.push_back(seconds_between(due_at[i], r.completed_at));
      if (i % sample_every == 0) {
        run.samples.push_back({stream[i].root, r.version, r.answer});
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "query failed: %s\n", e.what());
    }
  }
  for (std::size_t u = 0; u < update_futures.size(); ++u) {
    ++out.attempted;
    try {
      const UpdateResult r = update_futures[u].get();
      run.update_s.push_back(seconds_between(update_sent[u], r.completed_at));
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "update failed: %s\n", e.what());
    }
  }
  const std::size_t tail = std::max<std::size_t>(1, run.query_s.size() / 10);
  run.tail_end_s = median(std::vector<double>(run.query_s.end() - tail,
                                              run.query_s.end()));
  run.stats = engine.stats();
  run.live_max = std::max(run.live_max, run.stats.snapshots_live);
  run.retire_mean_s = manager.stats().retire_latency_mean_s;
  return run;
}

/// Re-solves every sampled answer with a fresh Solver::solve on the exact
/// version stamped on it, rebuilt by replaying the batches on a mirror.
/// Returns the number of mismatches. Each solve is timed (after a warm-up
/// solve that builds the new Solver's views) into `core`; with `trace`, a
/// traced repeat of each solve feeds the span metrics.
std::size_t gate(const CsrGraph& base, const std::vector<EdgeBatch>& batches,
                 std::vector<Sample> samples, bool corrupt, bool trace,
                 CoreLedger* core) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.version < b.version;
            });
  DynamicGraph mirror(base, {.snapshots = false});
  std::uint64_t at = 0;
  std::optional<CsrGraph> frozen;
  std::optional<Solver> solver;
  const SsspOptions options = SsspOptions::opt(kDelta);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (!frozen || at < s.version) {
      while (at < s.version) mirror.apply(batches.at(at++));
      solver.reset();
      frozen.emplace(mirror.materialize());
      solver.emplace(*frozen, SolverConfig{.machine = {.num_ranks = kRanks,
                                                       .lanes_per_rank = kLanes}});
      solver->solve(s.root, options);
    }
    const auto t0 = Clock::now();
    SsspResult fresh = solver->solve(s.root, options);
    core->add_untraced(seconds_between(t0, Clock::now()), fresh.stats);
    if (corrupt && i == 0) fresh.dist[fresh.dist.size() / 2] += 1;
    if (fresh.dist != s.answer->dist) {
      ++mismatches;
      std::fprintf(stderr,
                   "MISMATCH: root %llu at version %llu differs from a fresh "
                   "solve of that version\n",
                   (unsigned long long)s.root, (unsigned long long)s.version);
    }
    if (trace) {
      TraceRecorder recorder(1u << 14);
      SsspOptions traced = options;
      traced.trace = &recorder;
      const auto t1 = Clock::now();
      solver->solve(s.root, traced);
      core->add_traced(seconds_between(t1, Clock::now()),
                       analyze_solve(recorder));
    }
  }
  return mismatches;
}

/// Modeled GTEPS of fresh solves of the base graph from kModelRoots
/// giant-component roots: the paper's reproduction metric for this graph,
/// averaged over enough roots to be steady (the gate's samples repeat the
/// few hottest roots).
double model_gteps(const CsrGraph& base, std::uint64_t seed) {
  constexpr std::size_t kModelRoots = 64;
  Solver solver(base, SolverConfig{.machine = {.num_ranks = kRanks,
                                               .lanes_per_rank = kLanes}});
  std::vector<double> gteps;
  for (const vid_t root : sample_roots(base, kModelRoots, seed)) {
    const SsspResult r = solver.solve(root, SsspOptions::opt(kDelta));
    gteps.push_back(r.stats.gteps(base.num_undirected_edges()));
  }
  return harmonic_mean(gteps);
}

/// Mean duration (seconds) of `cat` spans on the lane named `lane`, per
/// span, or per unit of the span argument when `per_arg`.
double span_mean_s(const TraceRecorder& recorder, std::string_view lane,
                   SpanCat cat, bool per_arg = false) {
  double total = 0, count = 0;
  for (const TraceRecorder::LaneView& view : recorder.snapshot()) {
    if (view.name != lane) continue;
    for (const TraceSpan& s : view.spans) {
      if (s.cat != cat) continue;
      total += static_cast<double>(s.dur_ns) * 1e-9;
      count += per_arg ? static_cast<double>(s.arg) : 1.0;
    }
  }
  return count > 0 ? total / count : 0.0;
}

void report_serve_layers(const StreamRun& run, const TraceRecorder& recorder,
                         const std::vector<double>& apply_s, Metrics& m) {
  const ServeStats& st = run.stats;
  m.set("serve.cache_hit_rate", st.cache.hit_rate(), "ratio");
  m.set("serve.version_misses", static_cast<double>(st.cache.version_misses),
        "count");
  m.set("serve.cache_lookup_us",
        span_mean_s(recorder, "serve-dispatcher", SpanCat::kCacheLookup,
                    /*per_arg=*/true) *
            1e6,
        "us");
  double batches = 0, queries = 0;
  for (std::size_t size = 1; size < st.batch_size_histogram.size(); ++size) {
    batches += static_cast<double>(st.batch_size_histogram[size]);
    queries += static_cast<double>(size * st.batch_size_histogram[size]);
  }
  m.set("serve.batch_size_mean", batches > 0 ? queries / batches : 0.0,
        "count");
  const double computed =
      static_cast<double>(st.multi_sweeps + st.single_solves);
  m.set("serve.multi_sweep_frac",
        computed > 0 ? static_cast<double>(st.multi_sweeps) / computed : 0.0,
        "ratio");
  m.set("serve.admission_wait_ms",
        span_mean_s(recorder, "serve-dispatcher", SpanCat::kAdmission) * 1e3,
        "ms");
  m.set("serve.batch_solve_ms",
        span_mean_s(recorder, "serve-dispatcher", SpanCat::kServeSolve) * 1e3,
        "ms");
  m.set("update.apply_us", mean(apply_s) * 1e6, "us");
  m.set("update.p95_ms", percentile(run.update_s, 0.95) * 1e3, "ms");
  m.set("snapshot.publish_us",
        span_mean_s(recorder, "serve-builder", SpanCat::kSnapshotPublish) * 1e6,
        "us");
  m.set("snapshot.live_max", static_cast<double>(run.live_max), "count");
  m.set("snapshot.retire_latency_ms", run.retire_mean_s * 1e3, "ms");
}

void log_stream(const char* what, double rate, const StreamRun& run) {
  std::fprintf(stderr,
               "%s: %.0f q/s offered, %zu queries, p50 %.3f ms, p95 %.3f ms, "
               "p99 %.3f ms, "
               "max %.3f ms, end-of-stream p50 %.3f ms, sender late max "
               "%.3f ms (mean %.4f ms), %zu updates (p95 %.3f ms), hit rate "
               "%.3f\n",
               what, rate, run.query_s.size(),
               percentile(run.query_s, 0.5) * 1e3,
               percentile(run.query_s, 0.95) * 1e3,
               percentile(run.query_s, 0.99) * 1e3,
               percentile(run.query_s, 1) * 1e3, run.tail_end_s * 1e3,
               run.late_max_s * 1e3, run.late_mean_s * 1e3, run.update_s.size(),
               percentile(run.update_s, 0.95) * 1e3, run.stats.cache.hit_rate());
}

/// Serves a seeded stream at `rate` for `seconds` on `inst`. The batches
/// and the mirror's apply times go to the optional outputs.
StreamRun serve_stream(ServeInstance& inst, const CsrGraph& base, double rate,
                       double seconds, std::uint64_t seed,
                       std::vector<EdgeBatch>* batches_out,
                       std::vector<double>* apply_s, Outcome& out) {
  const auto queries = static_cast<std::size_t>(rate * seconds);
  const std::vector<QueryEvent> stream =
      make_stream(base, queries, rate, sub_seed(seed, 1));
  std::vector<double> apply_scratch;
  std::vector<EdgeBatch> batches =
      make_batches(base, queries / kUpdateEvery, sub_seed(seed, 2),
                   apply_s != nullptr ? apply_s : &apply_scratch);
  StreamRun run = run_stream(inst, stream, batches, out);
  if (batches_out != nullptr) *batches_out = std::move(batches);
  return run;
}

/// Closed loop from the one client thread: keeps kWindow queries of a
/// seeded stream outstanding (a full batch's worth, so the batched path
/// runs), with an update batch every kUpdateEvery queries, for `seconds`.
/// Returns completed queries per second (window_rate): the engine's
/// saturation rate.
double saturation_qps(const CsrGraph& base, std::uint64_t seed, double seconds,
                      Outcome& out) {
  constexpr std::size_t kWindow = 8;
  constexpr double kMaxQps = 2000;  // sizes the pre-generated stream
  ServeInstance inst = set_up(base, nullptr);
  const auto queries = static_cast<std::size_t>(kMaxQps * seconds);
  const std::vector<QueryEvent> stream =
      make_stream(base, queries, 0, sub_seed(seed, 1));
  std::vector<double> apply_s;
  const std::vector<EdgeBatch> batches = make_batches(
      base, queries / kUpdateEvery, sub_seed(seed, 2), &apply_s);
  const SsspOptions options = SsspOptions::opt(kDelta);

  std::deque<std::future<QueryResult>> window;
  std::vector<std::future<UpdateResult>> updates;
  std::size_t next = 0;
  std::vector<double> done_s;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  while (next < stream.size() && Clock::now() < deadline) {
    while (window.size() < kWindow && next < stream.size()) {
      if (next % kUpdateEvery == 0 && next / kUpdateEvery < batches.size() &&
          next > 0) {
        updates.push_back(
            inst.engine->apply_updates(batches[next / kUpdateEvery - 1]));
      }
      window.push_back(inst.engine->submit(stream[next++].root, options));
    }
    ++out.attempted;
    try {
      window.front().get();
      done_s.push_back(seconds_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "query failed: %s\n", e.what());
    }
    window.pop_front();
  }
  for (auto& f : window) {
    ++out.attempted;
    try {
      f.get();
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  for (auto& f : updates) {
    ++out.attempted;
    try {
      f.get();
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  std::fprintf(stderr, "saturation: %zu queries in %.3f s, %zu updates\n",
               done_s.size(), seconds_between(t0, Clock::now()),
               updates.size());
  return window_rate(done_s);
}

}  // namespace

void run_serve_workload(const Args& args, Metrics& m, Outcome& out) {
  const EdgeList edges =
      generate_rmat(family_config(RmatFamily::kRmat1, kScale));
  std::vector<double> setup_s, csr_s;
  std::optional<CsrGraph> base;
  ServeInstance inst;
  repeat_set_up([&] {
    inst.reset();
    base.reset();
    const auto t0 = Clock::now();
    base.emplace(strip_self_loops(CsrGraph::from_edges(edges)));
    const auto t1 = Clock::now();
    inst = set_up(*base, nullptr);
    csr_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  });
  TraceRecorder recorder;
  if (args.trace) {
    // Traced engines register lanes per thread id; build the traced one
    // only now, so no earlier (dead) thread can alias its lanes.
    inst.reset();
    inst = set_up(*base, &recorder);
  }

  const double main_s = args.seconds * 0.6;
  if (args.dump_inputs) {
    const auto queries = static_cast<std::size_t>(kRateQps * main_s);
    std::vector<double> apply_s;
    const auto stream =
        make_stream(*base, queries, kRateQps, sub_seed(args.seed, 1));
    const auto batches = make_batches(*base, queries / kUpdateEvery,
                                      sub_seed(args.seed, 2), &apply_s);
    std::printf("stream");
    for (const QueryEvent& q : stream) {
      std::printf(" %llu@%.9f", (unsigned long long)q.root, q.arrival_s);
    }
    std::printf("\nupdates");
    for (const EdgeBatch& b : batches) {
      for (const EdgeOp& op : b.ops()) {
        std::printf(" %d:%llu-%llu:%u", static_cast<int>(op.kind),
                    (unsigned long long)op.u, (unsigned long long)op.v, op.w);
      }
    }
    std::printf("\n");
    return;
  }

  // The main stream: kRateQps for 60% of the budget, on the set-up engine;
  // the saturation loop takes most of the rest. The offered rate is about
  // an eighth of the saturation rate on the reference box, so a shared
  // host running several times slower still serves it without a growing
  // queue.
  std::vector<EdgeBatch> batches;
  std::vector<double> apply_s;
  const StreamRun run = serve_stream(inst, *base, kRateQps, main_s, args.seed,
                                     &batches, &apply_s, out);
  log_stream("main stream", kRateQps, run);
  inst.reset();

  CoreLedger core;
  const std::size_t mismatches =
      gate(*base, batches, run.samples, args.corrupt, args.trace, &core);
  out.failed += mismatches;
  std::fprintf(stderr, "gate: %zu sampled answers re-solved, %zu mismatches\n",
               run.samples.size(), mismatches);

  if (!args.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("p50_ms", percentile(run.query_s, 0.50) * 1e3, "ms");
    // p95, not p99: p99 rests on the few queries that a descheduled
    // client or rank thread delays by 10-40 ms, and spread 0.58 across
    // ten seeds.
    m.set("tail_ms", percentile(run.query_s, 0.95) * 1e3, "ms");
    m.set("model_gteps", model_gteps(*base, sub_seed(args.seed, 5)), "GTEPS");
    m.set("rate_per_s",
          saturation_qps(*base, sub_seed(args.seed, 4), args.seconds * 0.35,
                         out),
          "1/s");
    return;
  }
  runtime_probe(m);
  core.report(m);
  m.set("core.view_build_ms", time_view_build_s(*base, 5) * 1e3, "ms");
  m.set("graph.csr_build_ms", median(csr_s) * 1e3, "ms");
  report_serve_layers(run, recorder, apply_s, m);
}

void serve_probe(const CsrGraph& graph, const Args& args, Metrics& m,
                 Outcome& out) {
  // A short, slow stream: the solve graphs are larger than serve-mixed's,
  // so the offered rate stays well under their saturation point.
  constexpr double kProbeRate = 40;
  constexpr double kProbeSeconds = 2;
  TraceRecorder recorder;
  ServeInstance inst = set_up(graph, &recorder);
  std::vector<EdgeBatch> batches;
  std::vector<double> apply_s;
  const StreamRun run =
      serve_stream(inst, graph, kProbeRate, kProbeSeconds,
                   sub_seed(args.seed, 3), &batches, &apply_s, out);
  inst.reset();
  log_stream("serve probe", kProbeRate, run);
  CoreLedger unused;
  out.failed += gate(graph, batches, run.samples, false, false, &unused);
  report_serve_layers(run, recorder, apply_s, m);
}

}  // namespace parsssp::ledger
