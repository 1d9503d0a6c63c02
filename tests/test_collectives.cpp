#include "runtime/collectives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace parsssp {
namespace {

// Runs `body(rank)` on `ranks` threads sharing one CollectiveContext.
template <typename Body>
void run_ranks(rank_t ranks, CollectiveContext& ctx, Body body) {
  std::vector<std::thread> threads;
  for (rank_t r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] { body(r); });
  }
  for (auto& t : threads) t.join();
  (void)ctx;
}

TEST(Collectives, AllreduceSum) {
  constexpr rank_t R = 4;
  CollectiveContext ctx(R);
  std::vector<std::uint64_t> results(R);
  run_ranks(R, ctx, [&](rank_t r) {
    results[r] = ctx.allreduce<std::uint64_t>(r, r + 1, SumOp{});
  });
  for (const auto v : results) EXPECT_EQ(v, 1u + 2 + 3 + 4);
}

TEST(Collectives, AllreduceMinMax) {
  constexpr rank_t R = 5;
  CollectiveContext ctx(R);
  std::vector<std::uint64_t> mins(R), maxs(R);
  run_ranks(R, ctx, [&](rank_t r) {
    mins[r] = ctx.allreduce<std::uint64_t>(r, 100 - r, MinOp{});
    maxs[r] = ctx.allreduce<std::uint64_t>(r, 100 - r, MaxOp{});
  });
  for (const auto v : mins) EXPECT_EQ(v, 96u);
  for (const auto v : maxs) EXPECT_EQ(v, 100u);
}

TEST(Collectives, AllreduceOr) {
  constexpr rank_t R = 3;
  CollectiveContext ctx(R);
  std::vector<std::uint64_t> results(R);
  run_ranks(R, ctx, [&](rank_t r) {
    results[r] = ctx.allreduce<std::uint64_t>(r, r == 2 ? 1 : 0, OrOp{});
  });
  for (const auto v : results) EXPECT_EQ(v, 1u);
}

TEST(Collectives, AllreduceStruct) {
  struct Pair {
    std::uint64_t sum;
    std::uint64_t max;
  };
  struct PairOp {
    Pair operator()(const Pair& a, const Pair& b) const {
      return {a.sum + b.sum, std::max(a.max, b.max)};
    }
  };
  constexpr rank_t R = 4;
  CollectiveContext ctx(R);
  std::vector<Pair> results(R);
  run_ranks(R, ctx, [&](rank_t r) {
    results[r] = ctx.allreduce(r, Pair{r, r}, PairOp{});
  });
  for (const auto& p : results) {
    EXPECT_EQ(p.sum, 0u + 1 + 2 + 3);
    EXPECT_EQ(p.max, 3u);
  }
}

TEST(Collectives, Broadcast) {
  constexpr rank_t R = 4;
  CollectiveContext ctx(R);
  std::vector<int> results(R);
  run_ranks(R, ctx, [&](rank_t r) {
    results[r] = ctx.broadcast(r, r == 2 ? 77 : -1, /*root=*/2);
  });
  for (const auto v : results) EXPECT_EQ(v, 77);
}

TEST(Collectives, Allgather) {
  constexpr rank_t R = 3;
  CollectiveContext ctx(R);
  std::vector<std::vector<int>> results(R);
  run_ranks(R, ctx, [&](rank_t r) {
    results[r] = ctx.allgather(r, static_cast<int>(r * 10));
  });
  for (const auto& v : results) {
    EXPECT_EQ(v, (std::vector<int>{0, 10, 20}));
  }
}

TEST(Collectives, RepeatedRoundsStayConsistent) {
  constexpr rank_t R = 4;
  CollectiveContext ctx(R);
  std::vector<std::uint64_t> sums(R, 0);
  run_ranks(R, ctx, [&](rank_t r) {
    for (int round = 0; round < 50; ++round) {
      sums[r] += ctx.allreduce<std::uint64_t>(r, round, SumOp{});
    }
  });
  // Each round reduces to 4*round; total = 4 * (0+..+49).
  for (const auto s : sums) EXPECT_EQ(s, 4u * (49 * 50 / 2));
}

// One fence per collective: back-to-back allreduce, broadcast and
// allgather with payloads of different sizes and no barrier in between, so
// each parity's scratch slots are rewritten two collectives after they
// were read. A rank that raced ahead into a slot its peers still read
// would corrupt one of the checked values.
TEST(Collectives, BackToBackMixedPayloadsWithoutBarriers) {
  struct Wide {
    std::uint64_t words[8];
  };
  for (rank_t R = 2; R <= 8; ++R) {
    CollectiveContext ctx(R);
    std::vector<int> failures(R, 0);
    run_ranks(R, ctx, [&](rank_t r) {
      for (std::uint64_t round = 0; round < 300; ++round) {
        const auto sum = ctx.allreduce<std::uint64_t>(r, round + r, SumOp{});
        if (sum != R * round + R * (R - 1) / 2) ++failures[r];

        const rank_t root = static_cast<rank_t>(round % R);
        Wide w{};
        for (std::uint64_t i = 0; i < 8; ++i) w.words[i] = round * 8 + i;
        const Wide got = ctx.broadcast(r, r == root ? w : Wide{}, root);
        for (std::uint64_t i = 0; i < 8; ++i) {
          if (got.words[i] != round * 8 + i) ++failures[r];
        }

        const auto all = ctx.allgather(r, static_cast<std::uint16_t>(
                                              round * 16 + r));
        for (rank_t s = 0; s < R; ++s) {
          if (all[s] != static_cast<std::uint16_t>(round * 16 + s)) {
            ++failures[r];
          }
        }

        const auto mx = ctx.allreduce<std::uint8_t>(
            r, static_cast<std::uint8_t>((round + r) % 251), MaxOp{});
        std::uint8_t want = 0;
        for (rank_t s = 0; s < R; ++s) {
          want = std::max(want, static_cast<std::uint8_t>((round + s) % 251));
        }
        if (mx != want) ++failures[r];
      }
    });
    for (rank_t r = 0; r < R; ++r) {
      EXPECT_EQ(failures[r], 0) << "ranks=" << R << " rank=" << r;
    }
  }
}

TEST(Collectives, SingleRank) {
  CollectiveContext ctx(1);
  EXPECT_EQ(ctx.allreduce<std::uint64_t>(0, 42, SumOp{}), 42u);
  EXPECT_EQ(ctx.broadcast(0, 7, 0), 7);
}

// The park path on every release: each round, one rank (rotating) sleeps
// well past the waiters' pause-spin and yield budget (~90 us) before it
// arrives, so its peers are parked on the generation word and only the
// late rank's release can wake them. A lost wake-up hangs the suite until
// ctest's TIMEOUT fails it; a waiter released early reads a stale stamp
// (and TSan sees the plain write race the read).
TEST(FenceBarrier, ParkedWaitersWakeOnEveryRelease) {
  constexpr rank_t R = 4;
  constexpr std::uint32_t kRounds = 2000;
  FenceBarrier fence(R);
  std::uint32_t stamp = 0;  // written by the late rank, read by all
  std::vector<std::uint32_t> failures(R, 0);
  std::vector<std::thread> threads;
  for (rank_t r = 0; r < R; ++r) {
    threads.emplace_back([&, r] {
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        if (round % R == r) {
          std::this_thread::sleep_for(std::chrono::microseconds(400));
          stamp = round + 1;
        }
        fence.arrive_and_wait();
        if (stamp != round + 1) ++failures[r];
        // Nobody writes the next stamp until every rank has read this one.
        fence.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (rank_t r = 0; r < R; ++r) EXPECT_EQ(failures[r], 0u) << "rank " << r;
}

}  // namespace
}  // namespace parsssp
