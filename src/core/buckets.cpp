#include "core/buckets.hpp"

namespace parsssp {

std::uint64_t ReachedSet::min_bucket_above(std::span<const dist_t> dist,
                                           std::int64_t after,
                                           std::uint32_t delta) const {
  std::uint64_t best = kInfBucket;
  for_each([&](vid_t local) {
    const std::uint64_t b = bucket_of(dist[local], delta);
    if (static_cast<std::int64_t>(b) > after && b < best) best = b;
  });
  return best;
}

std::vector<vid_t> ReachedSet::collect(std::span<const dist_t> dist,
                                       std::uint64_t k,
                                       std::uint32_t delta) const {
  std::vector<vid_t> members;
  for_each([&](vid_t local) {
    if (bucket_of(dist[local], delta) == k) members.push_back(local);
  });
  return members;
}

std::vector<vid_t> ReachedSet::collect_all() const {
  std::vector<vid_t> out;
  for_each([&](vid_t local) { out.push_back(local); });
  return out;
}

}  // namespace parsssp
