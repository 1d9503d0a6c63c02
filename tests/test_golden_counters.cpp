// Golden counters: a committed fixture pinning the algorithmic work and
// the modeled clock of the bucket-synchronous engine. Each line of
// golden/golden_counters.txt records, for one (graph, ranks, options,
// root) tuple, the distance and parent digests, phases, buckets, every
// relaxation counter, the pull decisions, digests of the phase/bucket
// details and the hexfloat modeled times. Any change that alters what the
// engine computes or charges — as opposed to how fast the host runs it —
// fails here loudly, without a second data path to compare against.
//
// Synchronization counts are deliberately absent: they describe the
// runtime's fences, not the algorithm, and may change by design.
//
// To regenerate after an intended algorithmic change, run the test binary
// with GOLDEN_COUNTERS_UPDATE=1; it rewrites the fixture in the source
// tree. Review the diff before committing it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/runner.hpp"
#include "core/solver.hpp"
#include "graph/builders.hpp"
#include "graph/graph_algos.hpp"

namespace parsssp {
namespace {

constexpr std::size_t kRootsPerGraph = 3;
constexpr unsigned kLanes = 2;

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ull;
  }
};

template <typename T>
std::uint64_t digest_of(const std::vector<T>& values) {
  Digest d;
  for (const T& v : values) d.add(static_cast<std::uint64_t>(v));
  return d.h;
}

std::uint64_t digest_phases(const std::vector<PhaseDetail>& details) {
  Digest d;
  for (const PhaseDetail& p : details) {
    d.add(p.bucket);
    d.add(static_cast<std::uint64_t>(p.kind));
    d.add(p.relaxations);
  }
  return d.h;
}

std::uint64_t digest_buckets(const std::vector<BucketDetail>& details) {
  Digest d;
  for (const BucketDetail& b : details) {
    for (const std::uint64_t w :
         {b.bucket, b.self_edges, b.backward_edges, b.forward_edges,
          b.pull_requests, b.pull_responses, b.push_volume_estimate,
          b.pull_volume_estimate, b.push_max_rank, b.pull_max_rank,
          static_cast<std::uint64_t>(b.used_pull)}) {
      d.add(w);
    }
  }
  return d.h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

struct GraphCase {
  const char* name;
  std::function<CsrGraph()> make;
};

std::vector<GraphCase> graph_cases() {
  return {
      {"rmat1-s12", [] { return build_rmat_graph(RmatFamily::kRmat1, 12); }},
      {"rmat2-s11", [] { return build_rmat_graph(RmatFamily::kRmat2, 11); }},
      // The heterogeneous-weight road-like grid: deep, low degree, many
      // buckets — the fence-heavy shape.
      {"grid-64",
       [] {
         return CsrGraph::from_edges(make_grid(64, [](vid_t a, vid_t b) {
           return static_cast<weight_t>(20 + (a * 31 + b * 17) % 50);
         }));
       }},
  };
}

struct OptionCase {
  const char* name;
  SsspOptions options;
};

std::vector<OptionCase> option_cases() {
  SsspOptions details = SsspOptions::opt(25);
  details.collect_phase_details = true;
  details.collect_bucket_details = true;
  SsspOptions early_switch = SsspOptions::opt(25);
  early_switch.hybrid_tau = 0.05;
  std::vector<OptionCase> cases = {
      {"opt-25", SsspOptions::opt(25)},
      {"del-25", SsspOptions::del(25)},
      {"prune-4", SsspOptions::prune(4)},
      {"dijkstra", SsspOptions::dijkstra()},
      {"bellman-ford", SsspOptions::bellman_ford()},
      {"lb-opt-25", SsspOptions::lb_opt(25, /*heavy_threshold=*/16)},
      {"opt-25-details", details},
      {"opt-25-tau0.05", early_switch},
  };
  for (OptionCase& c : cases) c.options.track_parents = true;
  return cases;
}

std::string describe(const SsspResult& r) {
  const SsspStats& s = r.stats;
  std::string pulls;
  for (const bool p : s.pull_decisions) pulls += p ? '1' : '0';
  std::ostringstream out;
  out << "dist=" << hex(digest_of(r.dist))
      << " parent=" << hex(digest_of(r.parent)) << " phases=" << s.phases
      << " buckets=" << s.buckets << " short=" << s.short_relaxations
      << " long=" << s.long_push_relaxations << " req=" << s.pull_requests
      << " resp=" << s.pull_responses << " bf=" << s.bf_relaxations
      << " switched=" << s.switched_to_bf << "@" << s.bf_switch_bucket
      << " pulls=" << hex(digest_of(s.pull_decisions)) << "/"
      << s.pull_decisions.size()
      << " pdet=" << hex(digest_phases(s.phase_details))
      << " bdet=" << hex(digest_buckets(s.bucket_details))
      << " model=" << hexfloat(s.model_time_s)
      << " model_bkt=" << hexfloat(s.model_bucket_time_s);
  return out.str();
}

/// Every case's fixture line, in a fixed order.
std::vector<std::string> compute_lines() {
  std::vector<std::string> lines;
  for (const GraphCase& gc : graph_cases()) {
    const CsrGraph g = gc.make();
    const std::vector<vid_t> roots = sample_roots(g, kRootsPerGraph, 7);
    for (const rank_t ranks : {rank_t{1}, rank_t{3}, rank_t{4}}) {
      Solver solver(g, {.machine = {.num_ranks = ranks,
                                    .lanes_per_rank = kLanes}});
      for (const OptionCase& oc : option_cases()) {
        for (const vid_t root : roots) {
          const SsspResult r = solver.solve(root, oc.options);
          lines.push_back(std::string(gc.name) + " r" +
                          std::to_string(ranks) + " " + oc.name + " root" +
                          std::to_string(root) + " | " + describe(r));
        }
      }
    }
  }
  return lines;
}

std::vector<std::string> read_fixture() {
  std::ifstream in(GOLDEN_COUNTERS_FILE);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

TEST(GoldenCounters, EngineWorkAndModeledTimeMatchFixture) {
  const std::vector<std::string> got = compute_lines();
  const char* update = std::getenv("GOLDEN_COUNTERS_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(GOLDEN_COUNTERS_FILE);
    out << "# graph ranks options root | per-solve golden counters; see "
           "tests/test_golden_counters.cpp\n";
    for (const std::string& line : got) out << line << "\n";
    GTEST_SKIP() << "rewrote " << GOLDEN_COUNTERS_FILE;
  }
  const std::vector<std::string> want = read_fixture();
  ASSERT_EQ(got.size(), want.size())
      << "fixture " << GOLDEN_COUNTERS_FILE << " has the wrong case count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "case " << i;
  }
}

}  // namespace
}  // namespace parsssp
