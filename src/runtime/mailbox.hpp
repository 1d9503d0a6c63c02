// The message substrate of the simulated machine: an R x R board of typed
// buffer segments, our stand-in for Blue Gene/Q's per-thread SPI injection
// and reception queues. Each (source, destination) slot is written by
// exactly one rank and read by exactly one rank, with a barrier separating
// the two sides — so the board needs no locks, mirroring the paper's
// lock-free SPI usage.
//
// One fence per exchange round: the board keeps two planes of slots and
// round k uses plane k % 2. A round runs post -> barrier -> take with no
// second barrier, so a fast rank may post round k+1 while a peer is still
// taking round k — into the other plane. The plane round k used is posted
// again only in round k+2, and before that post every rank has passed round
// k+1's barrier, which it reaches only after its takes of round k.
//
// Payloads move through the board zero-copy: a slot holds a list of
// ErasedBuffer segments, each a moved-in std::vector<T> (the sender's lane
// shards, posted without merging), and take_segments() moves them back out.
// No pack/unpack memcpy happens on this path. The byte-oriented post()/
// take() + pack()/unpack() API is kept for payloads that genuinely need
// serialization framing and for existing callers; it rides on the same
// slots as a single byte segment.
//
// That safety argument is a *protocol*, not a property of the data
// structure, so in checked mode (see runtime/protocol_check.hpp) the board
// validates it with an epoch state machine per (source, dest, plane):
//
//   posted == taken   : slot empty, the only state in which post() is legal
//   posted == taken+1 : slot holds one round's payload, take() is legal
//
// post() advances `posted`, take() advances `taken`. Any other transition
// is a protocol violation: a second post before the payload was consumed
// (a rank two rounds ahead of a peer, or cross-round leakage), a take of an
// empty slot (take before the exchange barrier, or of a stale epoch), or
// out-of-range ranks. The caller may additionally pass its own 1-based
// round number, which selects the plane; a mismatch against the plane's
// epoch catches ranks whose exchange() calls have diverged (a rank
// skipping or repeating a collective round). Taking a segment as the wrong
// element type is always fatal, checked mode or not: it is type confusion,
// not a timing bug. Epoch fields are themselves unsynchronized — under the
// correct protocol they inherit the payload's barrier separation, and a
// round-k+1 post never touches the state a round-k take touches (they are
// on different planes); a violating program may race on them, but checked
// mode exists precisely to abort such programs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "runtime/protocol_check.hpp"

namespace parsssp {

/// Move-only type-erased holder of one std::vector<T> payload segment. The
/// element type is recorded and re-checked on extraction, so a receiver
/// that disagrees with the sender about the wire type fails loudly instead
/// of reinterpreting memory.
class ErasedBuffer {
 public:
  ErasedBuffer() = default;

  template <typename T>
  explicit ErasedBuffer(std::vector<T> items)
      : self_(std::make_unique<Model<T>>(std::move(items))) {}

  ErasedBuffer(ErasedBuffer&&) noexcept = default;
  ErasedBuffer& operator=(ErasedBuffer&&) noexcept = default;
  ErasedBuffer(const ErasedBuffer&) = delete;
  ErasedBuffer& operator=(const ErasedBuffer&) = delete;

  bool holds_value() const { return self_ != nullptr; }

  /// Element type of the held vector; null when empty.
  const std::type_info* type() const {
    return self_ ? &self_->type() : nullptr;
  }

  std::size_t size() const { return self_ ? self_->size() : 0; }

  /// Moves the payload out, asserting the element type the sender put in.
  /// A mismatch is type confusion on the wire: always a protocol violation.
  template <typename T>
  std::vector<T> take_as() {
    if (self_ == nullptr) return {};
    if (self_->type() != typeid(T)) {
      protocol_violation(std::string("ErasedBuffer type confusion: held ") +
                         self_->type().name() + ", taken as " +
                         typeid(T).name());
    }
    auto* model = static_cast<Model<T>*>(self_.get());
    std::vector<T> out = std::move(model->items);
    self_.reset();
    return out;
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual const std::type_info& type() const = 0;
    virtual std::size_t size() const = 0;
  };
  template <typename T>
  struct Model final : Concept {
    explicit Model(std::vector<T> v) : items(std::move(v)) {}
    const std::type_info& type() const override { return typeid(T); }
    std::size_t size() const override { return items.size(); }
    std::vector<T> items;
  };

  std::unique_ptr<Concept> self_;
};

class ExchangeBoard {
 public:
  /// Round value meaning "caller does not track rounds" (direct board use).
  /// It is odd, so such posts and takes share round 1's plane and see one
  /// slot per (source, dest) pair.
  static constexpr std::uint64_t kAnyRound = ~std::uint64_t{0};

  explicit ExchangeBoard(rank_t num_ranks,
                         bool checked = checked_runtime_default())
      : num_ranks_(num_ranks),
        checked_(checked),
        slots_(2 * static_cast<std::size_t>(num_ranks) * num_ranks),
        epochs_(checked ? slots_.size() : 0) {}

  rank_t num_ranks() const { return num_ranks_; }
  bool checked() const { return checked_; }

  /// Deposits `source`'s outgoing segments for `dest` — the zero-copy path:
  /// the vectors inside the segments move through the board untouched. Must
  /// be called before the barrier of an exchange round, once per
  /// destination at most; an empty segment list is a valid round payload
  /// (it still advances the slot epoch). `round` is the caller's 1-based
  /// exchange round: it selects the slot plane, and in checked mode it is
  /// matched against the plane's epoch (kAnyRound skips that match).
  void post_segments(rank_t source, rank_t dest,
                     std::vector<ErasedBuffer> segments,
                     std::uint64_t round = kAnyRound) {
    if (checked_) check_post(source, dest, round);
    slots_[index(source, dest, round)] = std::move(segments);
  }

  /// Takes (moves out) the segments `source` sent to `dest` in `round`,
  /// leaving that slot empty for round + 2.
  std::vector<ErasedBuffer> take_segments(rank_t source, rank_t dest,
                                          std::uint64_t round = kAnyRound) {
    if (checked_) check_take(source, dest, round);
    return std::exchange(slots_[index(source, dest, round)], {});
  }

  /// Byte-oriented compatibility API: one byte segment per round.
  void post(rank_t source, rank_t dest, std::vector<std::byte> data,
            std::uint64_t round = kAnyRound) {
    std::vector<ErasedBuffer> segments;
    segments.push_back(ErasedBuffer(std::move(data)));
    post_segments(source, dest, std::move(segments), round);
  }

  /// Takes the bytes `source` sent to `dest` via post(). On an unchecked
  /// board an un-posted slot yields an empty vector (as before).
  std::vector<std::byte> take(rank_t source, rank_t dest,
                              std::uint64_t round = kAnyRound) {
    std::vector<ErasedBuffer> segments = take_segments(source, dest, round);
    if (segments.empty()) return {};
    return segments.front().take_as<std::byte>();
  }

  /// Serialization helpers for trivially copyable message types.
  template <typename T>
  static std::vector<std::byte> pack(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(items.size_bytes());
    if (!items.empty()) {
      std::memcpy(bytes.data(), items.data(), items.size_bytes());
    }
    return bytes;
  }

  template <typename T>
  static std::vector<T> unpack(const std::vector<std::byte>& bytes) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = bytes.size() / sizeof(T);
    std::vector<T> items;
    if (n != 0) {
      // Pointer-range insert so libstdc++/libc++ lower the copy to one
      // memmove — no value-initialization pass over the destination first
      // (the old `vector<T> items(n)` zeroed every element before memcpy).
      items.reserve(n);
      const T* first = reinterpret_cast<const T*>(bytes.data());
      items.insert(items.end(), first, first + n);
    }
    return items;
  }

 private:
  /// Per-(slot, plane) protocol state; see the file comment for the state
  /// machine. Both fields count rounds on this plane only.
  struct SlotEpochs {
    std::uint64_t posted = 0;
    std::uint64_t taken = 0;
  };

  void check_post(rank_t source, rank_t dest, std::uint64_t round);
  void check_take(rank_t source, rank_t dest, std::uint64_t round);
  void check_ranks(const char* op, rank_t source, rank_t dest) const;

  /// Slot of (source, dest) on the plane of `round` (round % 2).
  std::size_t index(rank_t source, rank_t dest, std::uint64_t round) const {
    return ((round & 1u) * num_ranks_ + source) * num_ranks_ + dest;
  }

  rank_t num_ranks_;
  bool checked_;
  std::vector<std::vector<ErasedBuffer>> slots_;  ///< two planes of R x R
  /// Parallel to slots_; empty unless checked_.
  std::vector<SlotEpochs> epochs_;
};

}  // namespace parsssp
