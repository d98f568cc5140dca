// Bounded, per-prefix-coalescing churn queue.
//
// A BGP burst can announce and withdraw the same prefix many times in
// one flap storm; the plan pipeline only ever cares about the newest
// state per prefix. CoalescingQueue sits between the ingest thread
// (framing/decoding the feed) and the pipeline thread (applying deltas
// and re-ranking): offers fold newest-wins into an existing queued entry
// for the same prefix — announce→withdraw→announce collapses to the
// final announce, in the prefix's original FIFO position, keeping the
// oldest enqueue time so end-to-end latency is never under-reported.
//
// Capacity is bounded. When full, the configured OverflowPolicy either
// blocks the producer (lossless backpressure — the feed socket's TCP
// window then throttles the collector) or drops the newest offer
// (bounded-latency at the cost of fidelity); both paths are counted so
// reactor stats expose exactly what burst handling cost.
//
// Storage is flat. Entries sit in a ring of at most `capacity` actions
// (it doubles up to that bound as depth demands, so an idle queue stays
// small). An open-addressing index maps each prefix to its entry's
// absolute position: the count of entries pushed before it. A drain
// moves the oldest entries out (at most two contiguous runs of the
// ring) and only advances the head cursor; it erases nothing per entry.
// An index slot whose position lies behind the head names a drained
// entry: a push may take it over as empty, and a lookup steps past it.
// When used slots reach half the index, it is rebuilt from the live
// entries at four times their count, so probes stay short and a push
// costs amortised O(1). Offers fold by move and consume the action only
// when they accept it: a try_offer that finds the queue full leaves the
// caller's action, origins included, whole for the retry.
//
// Threading: one producer, one consumer (the reactor's ingest and
// pipeline threads), but all operations are mutex-guarded so tests may
// drive it from any thread.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <vector>

#include "net/prefix.hpp"

namespace tass::stream {

/// One folded routing change: announce with origins, or withdraw when
/// `origins` is nullopt. `enqueued_at` is the reactor-clock time of the
/// oldest offer folded into this entry.
struct PrefixAction {
  net::Prefix prefix;
  std::optional<std::vector<std::uint32_t>> origins;  // nullopt = withdraw
  double enqueued_at = 0.0;

  bool is_withdraw() const noexcept { return !origins.has_value(); }
};

enum class OverflowPolicy {
  kBlock,       // offer() waits for space (lossless backpressure)
  kDropNewest,  // offer() discards the incoming action and counts it
};

/// Cumulative queue accounting.
struct QueueStats {
  std::uint64_t offered = 0;    // actions presented to the queue
  std::uint64_t coalesced = 0;  // offers folded into an existing entry
  std::uint64_t dropped = 0;    // offers discarded by kDropNewest
  std::uint64_t blocked = 0;    // offers that had to wait for space
  std::uint64_t drained = 0;    // entries handed to the consumer
  std::uint64_t high_water = 0; // maximum depth observed
};

class CoalescingQueue {
 public:
  explicit CoalescingQueue(std::size_t capacity,
                           OverflowPolicy policy = OverflowPolicy::kBlock)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  /// Offers an action, folding into a queued entry for the same prefix
  /// when one exists (never blocks in that case). Returns false only
  /// when the action was discarded: queue full under kDropNewest, or
  /// closed. Under kBlock a full queue waits until the consumer drains
  /// or the queue closes. `action` is moved from only when accepted.
  bool offer(PrefixAction&& action) {
    std::unique_lock lock(mutex_);
    if (closed_) return false;
    ++stats_.offered;
    Probe probe = probe_locked(action.prefix);
    if (probe.found) {
      fold_locked(probe.slot, action);
      return true;
    }
    if (size_ >= capacity_) {
      if (policy_ == OverflowPolicy::kDropNewest) {
        ++stats_.dropped;
        return false;
      }
      ++stats_.blocked;
      space_.wait(lock, [&] { return closed_ || size_ < capacity_; });
      if (closed_) return false;
      // Space appeared, but the consumer may have drained this prefix's
      // entry and a racing producer re-queued it — look again first.
      probe = probe_locked(action.prefix);
      if (probe.found) {
        fold_locked(probe.slot, action);
        return true;
      }
    }
    push_locked(probe.slot, action);
    return true;
  }

  /// Non-blocking offer: folds or pushes, returns false when the queue
  /// is full (caller should drain or treat as backpressure) or closed.
  /// `action` is moved from only when accepted, so the caller retries
  /// the same object.
  bool try_offer(PrefixAction&& action) {
    std::lock_guard lock(mutex_);
    if (closed_) return false;
    const Probe probe = probe_locked(action.prefix);
    if (!probe.found && size_ >= capacity_) return false;
    ++stats_.offered;
    if (probe.found) {
      fold_locked(probe.slot, action);
    } else {
      push_locked(probe.slot, action);
    }
    return true;
  }

  /// Replaces `out`'s contents with up to `max` entries (0 = all) in
  /// FIFO order, reusing its capacity. Never blocks.
  void drain(std::vector<PrefixAction>& out, std::size_t max = 0) {
    out.clear();
    {
      std::lock_guard lock(mutex_);
      const std::size_t take = max == 0 ? size_ : std::min(size_, max);
      // At most two runs: the ring's tail end, then its start.
      const std::size_t first = std::min(take, ring_.size() - head_slot_);
      const auto run = [&](std::size_t from, std::size_t count) {
        const auto begin = ring_.begin() + static_cast<std::ptrdiff_t>(from);
        out.insert(out.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(
                       begin + static_cast<std::ptrdiff_t>(count)));
      };
      run(head_slot_, first);
      run(0, take - first);
      head_slot_ = wrap(head_slot_ + take);
      head_ += take;
      size_ -= take;
      stats_.drained += take;
    }
    if (!out.empty()) space_.notify_all();
  }

  /// Pops up to `max` entries in FIFO order (0 = all). Never blocks.
  std::vector<PrefixAction> drain(std::size_t max = 0) {
    std::vector<PrefixAction> out;
    drain(out, max);
    return out;
  }

  /// Blocks until the queue is non-empty, closed, or `timeout_seconds`
  /// elapses; returns whether entries are available.
  bool wait_nonempty(double timeout_seconds) {
    std::unique_lock lock(mutex_);
    data_.wait_for(lock,
                   std::chrono::duration<double>(timeout_seconds),
                   [&] { return closed_ || size_ != 0; });
    return size_ != 0;
  }

  /// Closes the queue: blocked producers wake and fail, future offers
  /// are rejected; already-queued entries remain drainable.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    space_.notify_all();
    data_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

  QueueStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  /// One index slot. `tag` is the entry's absolute position + 1; 0 marks
  /// a slot never used since the last rebuild, and tag <= head_ a slot
  /// whose entry has been drained.
  struct IndexSlot {
    std::uint64_t key = 0;
    std::uint64_t tag = 0;
  };

  /// The index slot of the prefix's queued entry (found), or else the
  /// slot a push for it takes: the first drained or unused one on its
  /// probe chain.
  struct Probe {
    std::size_t slot = 0;
    bool found = false;
  };

  static constexpr std::size_t kMinIndexSlots = 64;

  static std::uint64_t key_of(const net::Prefix& prefix) noexcept {
    return (static_cast<std::uint64_t>(prefix.network().value()) << 8) |
           static_cast<std::uint64_t>(prefix.length());
  }

  std::size_t home_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }

  std::size_t wrap(std::size_t slot) const noexcept {
    return slot >= ring_.size() ? slot - ring_.size() : slot;
  }

  Probe probe_locked(const net::Prefix& prefix) {
    // A push may claim an unused slot, and a probe must always end at
    // one: keep the used slots at most half the index.
    if ((used_ + 1) * 2 > index_.size()) rebuild_index_locked();
    const std::uint64_t key = key_of(prefix);
    const std::size_t mask = index_.size() - 1;
    std::optional<std::size_t> reusable;
    for (std::size_t i = home_of(key);; i = (i + 1) & mask) {
      const IndexSlot& slot = index_[i];
      if (slot.tag == 0) return {reusable.value_or(i), false};
      if (slot.tag > head_) {
        if (slot.key == key) return {i, true};
      } else if (!reusable) {
        reusable = i;
      }
    }
  }

  /// Folds `action` into the queued entry `slot` names. Newest wins; the
  /// entry keeps its FIFO position and oldest enqueued_at.
  void fold_locked(std::size_t slot, PrefixAction& action) {
    const std::uint64_t position = index_[slot].tag - 1;
    ring_[wrap(head_slot_ + (position - head_))].origins =
        std::move(action.origins);
    ++stats_.coalesced;
  }

  void push_locked(std::size_t slot, PrefixAction& action) {
    if (size_ == ring_.size()) grow_ring_locked();
    const std::uint64_t position = head_ + size_;
    if (index_[slot].tag == 0) ++used_;
    index_[slot] = IndexSlot{key_of(action.prefix), position + 1};
    ring_[wrap(head_slot_ + size_)] = std::move(action);
    ++size_;
    stats_.high_water = std::max<std::uint64_t>(stats_.high_water, size_);
    // The consumer waits only for non-empty: a fold, or a push onto a
    // non-empty queue, changes nothing it waits for.
    if (size_ == 1) data_.notify_all();
  }

  /// Doubles the ring (up to capacity_), laying the entries out from
  /// slot 0 in FIFO order. Absolute positions, and so the index, are
  /// unchanged.
  void grow_ring_locked() {
    std::vector<PrefixAction> grown(
        std::min(capacity_, std::max<std::size_t>(16, ring_.size() * 2)));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[wrap(head_slot_ + i)]);
    }
    ring_.swap(grown);
    head_slot_ = 0;
  }

  /// Rebuilds the index from the live entries alone, at four times
  /// their count (a power of two, at least kMinIndexSlots).
  void rebuild_index_locked() {
    std::size_t slots = kMinIndexSlots;
    while (slots < 4 * size_) slots *= 2;
    index_.assign(slots, IndexSlot{});
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    const std::size_t mask = slots - 1;
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint64_t key = key_of(ring_[wrap(head_slot_ + i)].prefix);
      std::size_t at = home_of(key);
      while (index_[at].tag != 0) at = (at + 1) & mask;
      index_[at] = IndexSlot{key, head_ + i + 1};
    }
    used_ = size_;
  }

  mutable std::mutex mutex_;
  std::condition_variable space_;
  std::condition_variable data_;
  std::vector<PrefixAction> ring_;
  std::size_t head_slot_ = 0;  // ring slot of the oldest entry
  std::size_t size_ = 0;       // queued entries
  std::uint64_t head_ = 0;     // absolute position of the oldest entry
  std::vector<IndexSlot> index_;
  unsigned index_shift_ = 64;  // 64 - log2(index_.size())
  std::size_t used_ = 0;       // index slots with a nonzero tag
  std::size_t capacity_;
  OverflowPolicy policy_;
  bool closed_ = false;
  QueueStats stats_;
};

}  // namespace tass::stream
