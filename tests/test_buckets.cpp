#include "core/buckets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace parsssp {
namespace {

TEST(BucketOf, BasicMapping) {
  EXPECT_EQ(bucket_of(0, 10), 0u);
  EXPECT_EQ(bucket_of(9, 10), 0u);
  EXPECT_EQ(bucket_of(10, 10), 1u);
  EXPECT_EQ(bucket_of(25, 10), 2u);
  EXPECT_EQ(bucket_of(kInfDist, 10), kInfBucket);
}

TEST(BucketOf, DeltaOne) {
  EXPECT_EQ(bucket_of(7, 1), 7u);
}

ReachedSet build_set(const std::vector<dist_t>& dist,
                     const std::vector<char>& settled) {
  ReachedSet set;
  set.build(dist, settled, [](vid_t) { return std::uint64_t{1}; });
  return set;
}

TEST(ReachedSet, CollectFiltersBySettledAndBucket) {
  const std::vector<dist_t> dist{0, 5, 10, 15, kInfDist, 7};
  const std::vector<char> settled{0, 1, 0, 0, 0, 0};
  // Bucket 0 with delta 10: dist < 10 -> locals {0, 1, 5}; 1 is settled.
  EXPECT_EQ(build_set(dist, settled).collect(dist, 0, 10),
            (std::vector<vid_t>{0, 5}));
}

TEST(ReachedSet, InfNeverMember) {
  const std::vector<dist_t> dist{kInfDist, kInfDist};
  const std::vector<char> settled{0, 0};
  const ReachedSet set = build_set(dist, settled);
  EXPECT_TRUE(set.collect_all().empty());
  EXPECT_EQ(set.unreached_pull(), 2u);
}

TEST(ReachedSet, MinBucketAboveFindsStrictlyGreater) {
  const std::vector<dist_t> dist{0, 25, 57, kInfDist};
  const std::vector<char> settled{0, 0, 0, 0};
  const ReachedSet set = build_set(dist, settled);
  EXPECT_EQ(set.min_bucket_above(dist, kBeforeFirst, 10), 0u);
  EXPECT_EQ(set.min_bucket_above(dist, 0, 10), 2u);
  EXPECT_EQ(set.min_bucket_above(dist, 2, 10), 5u);
  EXPECT_EQ(set.min_bucket_above(dist, 5, 10), kInfBucket);
}

TEST(ReachedSet, MinBucketAboveIgnoresSettled) {
  const std::vector<dist_t> dist{0, 25};
  const std::vector<char> settled{1, 0};
  EXPECT_EQ(build_set(dist, settled).min_bucket_above(dist, kBeforeFirst, 10),
            2u);
}

TEST(ReachedSet, EmptySlice) {
  const std::vector<dist_t> dist;
  const std::vector<char> settled;
  const ReachedSet set = build_set(dist, settled);
  EXPECT_EQ(set.min_bucket_above(dist, kBeforeFirst, 10), kInfBucket);
  EXPECT_EQ(set.unreached_pull(), 0u);
}

TEST(ReachedSet, CollectAllIsGroupedBucketContents) {
  const std::vector<dist_t> dist{3, kInfDist, 99, 4};
  const std::vector<char> settled{1, 0, 0, 0};
  EXPECT_EQ(build_set(dist, settled).collect_all(),
            (std::vector<vid_t>{2, 3}));
}

// Brute-force reference: the full passes over the owned slice the set
// replaces, plus the random transitions an engine drives it through.
class SliceModel {
 public:
  SliceModel(vid_t n, std::uint32_t seed) : rng_(seed) {
    dist_.resize(n);
    settled_.resize(n);
    weight_.resize(n);
    for (vid_t v = 0; v < n; ++v) {
      weight_[v] = pick(0, 9);
      const bool reached = pick(0, 2) != 0;
      dist_[v] = reached ? pick(0, kMaxDist) : kInfDist;
      // Preset-settled vertices of a seeded run, some of them unreachable.
      settled_[v] = pick(0, 4) == 0;
    }
    set_.build(dist_, settled_, [this](vid_t v) { return weight_[v]; });
  }

  /// One random transition, mirrored onto the set the way the engines do.
  void step() {
    const vid_t v = static_cast<vid_t>(pick(0, dist_.size() - 1));
    const bool unreached = dist_[v] == kInfDist;
    switch (pick(0, 3)) {
      case 0:  // reach: an unsettled vertex gets its first finite distance
        if (settled_[v] || !unreached) return;
        dist_[v] = pick(0, kMaxDist);
        set_.insert(v);
        set_.retire_unreached(weight_[v]);
        return;
      case 1:  // improve a reached unsettled vertex
        if (settled_[v] || unreached || dist_[v] == 0) return;
        dist_[v] = pick(0, dist_[v] - 1);
        return;
      case 2:  // settle a reached unsettled vertex
        if (settled_[v] || unreached) return;
        settled_[v] = 1;
        set_.erase(v);
        return;
      default:  // unsettle-on-improve of a preset vertex, maybe unreached
        if (!settled_[v] || dist_[v] == 0) return;
        dist_[v] = pick(0, unreached ? kMaxDist : dist_[v] - 1);
        settled_[v] = 0;
        set_.insert(v);
        return;
    }
  }

  /// Compares every query against its full pass.
  void check() const {
    const std::vector<std::int64_t> afters{kBeforeFirst, 0, 3, 17,
                                           static_cast<std::int64_t>(pick(
                                               0, kMaxDist / kDelta + 1))};
    for (const std::int64_t after : afters) {
      std::uint64_t best = kInfBucket;
      for (vid_t v = 0; v < dist_.size(); ++v) {
        if (settled_[v] || dist_[v] == kInfDist) continue;
        const std::uint64_t b = bucket_of(dist_[v], kDelta);
        if (static_cast<std::int64_t>(b) > after && b < best) best = b;
      }
      ASSERT_EQ(set_.min_bucket_above(dist_, after, kDelta), best)
          << "after " << after;
      if (best == kInfBucket) continue;
      std::vector<vid_t> members;
      for (vid_t v = 0; v < dist_.size(); ++v) {
        if (!settled_[v] && bucket_of(dist_[v], kDelta) == best) {
          members.push_back(v);
        }
      }
      ASSERT_EQ(set_.collect(dist_, best, kDelta), members)
          << "bucket " << best;
    }
    std::vector<vid_t> reached;
    std::uint64_t unreached_pull = 0;
    for (vid_t v = 0; v < dist_.size(); ++v) {
      if (settled_[v]) continue;
      if (dist_[v] == kInfDist) {
        unreached_pull += weight_[v];
      } else {
        reached.push_back(v);
      }
    }
    ASSERT_EQ(set_.collect_all(), reached);
    ASSERT_EQ(set_.unreached_pull(), unreached_pull);
    ReachedSet rebuilt;
    rebuilt.build(dist_, settled_, [this](vid_t v) { return weight_[v]; });
    ASSERT_TRUE(rebuilt == set_);
  }

 private:
  static constexpr dist_t kMaxDist = 400;
  static constexpr std::uint32_t kDelta = 10;

  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) const {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }

  mutable std::mt19937_64 rng_;
  std::vector<dist_t> dist_;
  std::vector<char> settled_;
  std::vector<std::uint64_t> weight_;
  ReachedSet set_;
};

TEST(ReachedSet, MatchesFullPassUnderRandomTransitions) {
  // Sizes straddle the 64-bit word boundaries of the bitmap.
  for (const vid_t n : {1u, 63u, 64u, 65u, 1366u}) {
    for (std::uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      SliceModel model(n, seed);
      model.check();
      for (vid_t i = 0; i < std::max<vid_t>(600, n + 200); ++i) {
        model.step();
        model.check();
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace parsssp
