// runtime.* metrics. Each op is timed on rank 0 inside a MachineSession job
// (all ranks run the same loop, so rank 0's time per op is the fence's
// cost); every probe repeats its job and reports the median.
#include <atomic>

#include "core/delta_engine.hpp"
#include "ledger.hpp"
#include "runtime/collectives.hpp"
#include "runtime/machine.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp::ledger {
namespace {

constexpr int kReps = 7;
constexpr int kFenceOps = 2000;
constexpr int kRounds = 20;
constexpr std::uint32_t kMsgsPerDest = 4096;
constexpr vid_t kBlock = vid_t{1} << 12;

/// Relax message with RMAT-like destination skew: a few low ids receive
/// many duplicates per round, as hubs do.
RelaxMsg skewed_message(rank_t r, std::uint32_t i) {
  const std::uint64_t h = (static_cast<std::uint64_t>(r) * 0x9e3779b1u + i) *
                          0xbf58476d1ce4e5b9ull;
  const vid_t span = 1 + static_cast<vid_t>(h % 64) * (kBlock / 64);
  return {static_cast<vid_t>((h >> 32) % kBlock) % span,
          static_cast<dist_t>(h % 100000), static_cast<vid_t>(i)};
}

/// Runs `job` kReps times on `session`; `job` returns its rank's seconds
/// per op. Returns the median of rank 0's values.
template <typename Job>
double median_per_op(MachineSession& session, Job job) {
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    std::atomic<double> rank0{0};
    session.run([&](RankCtx& ctx) {
      const double v = job(ctx);
      if (ctx.rank() == 0) rank0.store(v);
    });
    per_op.push_back(rank0.load());
  }
  return median(std::move(per_op));
}

/// Seconds per iteration of `body` over `n` iterations.
template <typename Body>
double time_loop(int n, Body body) {
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) body();
  return seconds_between(t0, Clock::now()) / n;
}

}  // namespace

void runtime_probe(Metrics& m) {
  const MachineConfig config{.num_ranks = kRanks, .lanes_per_rank = kLanes};
  MachineSession session(config);
  session.run([](RankCtx& ctx) { ctx.barrier(); });  // threads warm

  m.set("runtime.barrier_us",
        median_per_op(session,
                      [](RankCtx& ctx) {
                        return time_loop(kFenceOps, [&] { ctx.barrier(); });
                      }) *
            1e6,
        "us");
  m.set("runtime.allreduce_us",
        median_per_op(session,
                      [](RankCtx& ctx) {
                        return time_loop(kFenceOps, [&] {
                          ctx.allreduce<std::uint64_t>(1, SumOp{});
                        });
                      }) *
            1e6,
        "us");
  m.set("runtime.exchange_empty_us",
        median_per_op(session,
                      [](RankCtx& ctx) {
                        SendBufferPool<RelaxMsg> pool;
                        pool.configure(kLanes, ctx.num_ranks());
                        return time_loop(kFenceOps / 2, [&] {
                          pool.begin_phase();
                          ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
                        });
                      }) *
            1e6,
        "us");

  // A round carrying a full RMAT-like payload: emission is untimed, the
  // exchange_pooled call (post, two fences, take) is timed, per message
  // that crosses the board.
  m.set("runtime.exchange_ns_per_msg",
        median_per_op(session,
                      [](RankCtx& ctx) {
                        SendBufferPool<RelaxMsg> pool;
                        pool.configure(kLanes, ctx.num_ranks());
                        double total = 0;
                        for (int round = 0; round < kRounds; ++round) {
                          pool.begin_phase();
                          for (rank_t d = 0; d < ctx.num_ranks(); ++d) {
                            auto& shard = pool.shard(0, d);
                            for (std::uint32_t i = 0; i < kMsgsPerDest; ++i) {
                              shard.push_back(skewed_message(ctx.rank(), i));
                            }
                          }
                          const auto t0 = Clock::now();
                          ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
                          total += seconds_between(t0, Clock::now());
                        }
                        const double msgs = static_cast<double>(kRounds) *
                                            (ctx.num_ranks() - 1) *
                                            kMsgsPerDest;
                        return total / msgs;
                      }) *
            1e9,
        "ns");

  m.set("runtime.sender_reduce_ns_per_msg",
        median_per_op(session,
                      [](RankCtx& ctx) {
                        std::vector<RelaxMsg> stream;
                        for (std::uint32_t i = 0; i < 4 * kMsgsPerDest; ++i) {
                          stream.push_back(skewed_message(ctx.rank(), i));
                        }
                        SenderReducer<dist_t> reducer;
                        reducer.ensure(kBlock);
                        std::vector<RelaxMsg> scratch;
                        double total = 0;
                        for (int round = 0; round < kRounds; ++round) {
                          scratch = stream;
                          const auto t0 = Clock::now();
                          reducer.begin_dest();
                          reducer.reduce(
                              scratch, [](const RelaxMsg& msg) { return msg.v; },
                              [](const RelaxMsg& msg) { return msg.nd; });
                          total += seconds_between(t0, Clock::now());
                        }
                        return total / (static_cast<double>(kRounds) *
                                        static_cast<double>(stream.size()));
                      }) *
            1e9,
        "ns");

  // Dispatch cost of an empty job: a fresh thread team per call versus
  // the session's parked rank threads.
  Machine machine(config);
  std::vector<double> machine_s, session_s;
  for (int i = 0; i < 25 * kReps; ++i) {
    auto t0 = Clock::now();
    machine.run([](RankCtx&) {});
    machine_s.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    session.run([](RankCtx&) {});
    session_s.push_back(seconds_between(t0, Clock::now()));
  }
  m.set("runtime.machine_run_us", median(machine_s) * 1e6, "us");
  m.set("runtime.session_run_us", median(session_s) * 1e6, "us");
}

}  // namespace parsssp::ledger
