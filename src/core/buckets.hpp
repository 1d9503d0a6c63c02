// Bucket bookkeeping over a rank's owned distance slice.
//
// The paper's implementation re-derives bucket membership by scanning the
// owned tentative distances; that scan is the "BktTime" overhead it measures
// in Fig. 10/11(b). The cost model still charges the paper's scan at every
// site that used to run it, so the modeled BktTime is unchanged. The code
// keeps a ReachedSet instead: the reached-but-unsettled vertices, updated
// where distances and settled flags change, so bucket advance, bucket
// collection and the pull estimate visit only those vertices.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace parsssp {

/// Pass as `after` to ReachedSet::min_bucket_above to search from bucket 0.
inline constexpr std::int64_t kBeforeFirst = -1;

/// A rank's reached-but-unsettled owned vertices (finite tentative distance,
/// not settled), one bit per local offset, plus the pull-request weight of
/// its unsettled unreached vertices. Members are visited in ascending local
/// order, the order a pass over the owned slice gives.
class ReachedSet {
 public:
  /// Rebuilds the set from the owned slice in one pass. `pull_weight(local)`
  /// is the number of pull requests an unreached vertex sends whatever the
  /// bucket; it is summed over the unsettled unreached vertices.
  template <class PullWeight>
  void build(std::span<const dist_t> dist, std::span<const char> settled,
             PullWeight&& pull_weight) {
    reset(dist.size());
    for (vid_t v = 0; v < dist.size(); ++v) {
      if (settled[v]) continue;
      if (dist[v] == kInfDist) {
        unreached_pull_ += pull_weight(v);
      } else {
        insert(v);
      }
    }
  }

  /// Empties the set for an owned slice of `n` vertices, unreached weight 0.
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    unreached_pull_ = 0;
  }

  /// Adds `local`: it was just reached or unsettled. Writes only the 64-bit
  /// word holding `local`, so lanes owning whole words may insert at once.
  void insert(vid_t local) { words_[local / 64] |= bit(local); }
  /// Removes `local`: it was just settled.
  void erase(vid_t local) { words_[local / 64] &= ~bit(local); }
  bool contains(vid_t local) const {
    return (words_[local / 64] & bit(local)) != 0;
  }

  /// Pull requests the unsettled unreached vertices would send: the sum of
  /// `pull_weight` over them, kept current through retire_unreached().
  std::uint64_t unreached_pull() const { return unreached_pull_; }
  /// Subtracts the pull weight of vertices that just left the unsettled
  /// unreached state (were reached).
  void retire_unreached(std::uint64_t weight) { unreached_pull_ -= weight; }

  /// Calls f(local) for every member, in ascending order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<vid_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// Smallest bucket index > `after` holding a member; kInfBucket if none.
  std::uint64_t min_bucket_above(std::span<const dist_t> dist,
                                 std::int64_t after,
                                 std::uint32_t delta) const;

  /// The members in bucket k, ascending.
  std::vector<vid_t> collect(std::span<const dist_t> dist, std::uint64_t k,
                             std::uint32_t delta) const;

  /// Every member, ascending: the grouped bucket "B" the Bellman-Ford tail
  /// starts from after the hybrid switch.
  std::vector<vid_t> collect_all() const;

  bool operator==(const ReachedSet&) const = default;

 private:
  static std::uint64_t bit(vid_t local) {
    return std::uint64_t{1} << (local % 64);
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t unreached_pull_ = 0;
};

}  // namespace parsssp
