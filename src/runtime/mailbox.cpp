#include "runtime/mailbox.hpp"

#include <string>

namespace parsssp {
namespace {

std::string slot_name(rank_t source, rank_t dest, std::uint64_t round) {
  return "slot " + std::to_string(source) + " -> " + std::to_string(dest) +
         " (plane " + std::to_string(round & 1u) + ")";
}

/// The 1-based exchange round of the n-th use of `round`'s plane: plane 1
/// carries rounds 1, 3, 5, ..., plane 0 carries rounds 2, 4, 6, ...
std::uint64_t plane_round(std::uint64_t n, std::uint64_t round) {
  return 2 * n - (round & 1u);
}

}  // namespace

static_assert(std::is_trivially_copyable_v<std::byte>);

void ExchangeBoard::check_ranks(const char* op, rank_t source,
                                rank_t dest) const {
  if (source >= num_ranks_ || dest >= num_ranks_) {
    protocol_violation(std::string("exchange ") + op + " out of range: " +
                       "slot " + std::to_string(source) + " -> " +
                       std::to_string(dest) + " on a board of " +
                       std::to_string(num_ranks_) + " ranks");
  }
}

void ExchangeBoard::check_post(rank_t source, rank_t dest,
                               std::uint64_t round) {
  check_ranks("post", source, dest);
  SlotEpochs& e = epochs_[index(source, dest, round)];
  if (e.posted != e.taken) {
    protocol_violation("double post on " + slot_name(source, dest, round) +
                       ": payload of epoch " + std::to_string(e.posted) +
                       " was never taken (cross-round leakage, or a rank "
                       "two exchange rounds ahead of a peer)");
  }
  ++e.posted;
  if (round != kAnyRound && plane_round(e.posted, round) != round) {
    protocol_violation("cross-round post on " + slot_name(source, dest, round) +
                       ": rank " + std::to_string(source) +
                       " is in exchange round " + std::to_string(round) +
                       " but the slot is at round " +
                       std::to_string(plane_round(e.posted, round)) +
                       " (a rank skipped or repeated an exchange)");
  }
}

void ExchangeBoard::check_take(rank_t source, rank_t dest,
                               std::uint64_t round) {
  check_ranks("take", source, dest);
  SlotEpochs& e = epochs_[index(source, dest, round)];
  if (e.posted == e.taken) {
    protocol_violation("take of empty " + slot_name(source, dest, round) +
                       " at epoch " + std::to_string(e.taken) +
                       ": take before the exchange barrier, double take, or "
                       "a missing post");
  }
  ++e.taken;
  if (round != kAnyRound && plane_round(e.taken, round) != round) {
    protocol_violation("stale-epoch take on " + slot_name(source, dest, round) +
                       ": rank " + std::to_string(dest) +
                       " is in exchange round " + std::to_string(round) +
                       " but took the payload of round " +
                       std::to_string(plane_round(e.taken, round)));
  }
}

}  // namespace parsssp
