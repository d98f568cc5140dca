// BasicPrefixPartition: a set of pairwise-disjoint prefixes with
// flat-index address attribution, parameterized over the address family.
//
// Both prefix granularities the paper studies — the l-prefix view and the
// deaggregated m-prefix view (Figure 2) — are partitions of the advertised
// space. The census model places hosts into partition cells and the TASS
// core attributes scan responses to cells, so this type is the common
// currency between bgp, census, and core. Attribution rides on the
// trie::BasicLpmIndex substrate: locate() is a handful of dependent loads
// and locate_many() resolves a whole shard's addresses in one call. The
// IPv6 instantiation (bgp::PrefixPartition6, aliased below) runs the
// same code over 128-bit keys; space accounting is in the family's scan
// units (addresses for v4, /64 subnets for v6) and saturates rather than
// wraps where v6 totals exceed 64 bits.
//
// Churn: apply_delta() patches the partition in place as the BGP table
// evolves. Cell indices are *stable* — surviving cells keep their index
// across any number of deltas, so per-cell state (host counts, rankings)
// carried between scan cycles stays valid without re-attribution. Removed
// cells become free slots that later additions reuse; until reused, a
// dead slot stays in size() with live(i) == false and can never be
// returned by locate()/locate_many().
//
// Storage: like trie::BasicLpmIndex, the per-cell arrays are addressed
// through spans, so a partition either owns them (the build/churn paths)
// or borrows them from caller-owned memory — the zero-copy mode the TSIM
// state image (state/image.hpp) uses to attach N worker processes to one
// mmap'ed topology. A borrowed partition serves every const query through
// the unchanged API but rejects apply_delta().
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/tally_kernels.hpp"
#include "net/family.hpp"
#include "net/interval.hpp"
#include "net/prefix.hpp"
#include "trie/lpm_index.hpp"
#include "trie/lpm_index6.hpp"
#include "util/error.hpp"

namespace tass::bgp {

/// A batch of prefix-level changes to a partition: `remove` lists cells to
/// withdraw (must be present), `add` lists prefixes to announce (must stay
/// disjoint from the surviving cells and from each other). Typically
/// derived from a bgp::RibDelta via partition_delta().
template <class Family>
struct PartitionDeltaT {
  std::vector<typename Family::Prefix> remove;
  std::vector<typename Family::Prefix> add;

  bool empty() const noexcept { return remove.empty() && add.empty(); }
  std::size_t change_count() const noexcept {
    return remove.size() + add.size();
  }
};

/// One row of the sorted live-cell view: the cell's prefix and its slot.
/// A plain standard-layout struct (rather than std::pair) so the state
/// image can serialise the array with an assertable byte layout.
template <class Family>
struct SortedCellT {
  typename Family::Prefix prefix;
  std::uint32_t slot = 0;

  friend constexpr bool operator<(SortedCellT a, SortedCellT b) noexcept {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return a.slot < b.slot;
  }
};

/// Cell bookkeeping produced by apply_delta — exactly the invalidation
/// set an incremental consumer (core::rerank_cells, core::churn_step)
/// needs to re-score only what the delta touched.
template <class Family>
struct PartitionApplyResultT {
  /// Cells withdrawn by the delta, ascending. Their per-cell state is
  /// stale; the slots were freed (and possibly reused by `added_cells`).
  std::vector<std::uint32_t> removed_cells;
  /// Cells created for added prefixes, ascending: reused free slots first,
  /// then slots appended at the end of the partition.
  std::vector<std::uint32_t> added_cells;
  std::uint32_t old_cell_count = 0;  // size() before the delta
  std::uint32_t new_cell_count = 0;  // size() after the delta

  /// How the LpmIndex absorbed the change (patched vs rebuilt); benches
  /// and tests use this to see which path the cost model chose.
  typename trie::BasicLpmIndex<Family>::UpdateStats index_stats;

  /// Grows a per-cell vector to the post-delta size() and resets the slots
  /// whose cell was removed or re-assigned, leaving untouched cells'
  /// values in place (index stability makes this a pure patch).
  template <typename T>
  void reindex(std::vector<T>& per_cell) const {
    per_cell.resize(new_cell_count);
    for (const std::uint32_t cell : removed_cells) per_cell[cell] = T{};
    for (const std::uint32_t cell : added_cells) per_cell[cell] = T{};
  }
};

template <class Family>
class BasicPrefixPartition {
 public:
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  using AddressWord = typename Family::AddressWord;
  using Index = trie::BasicLpmIndex<Family>;
  using SortedCell = SortedCellT<Family>;
  using Delta = PartitionDeltaT<Family>;
  using ApplyResult = PartitionApplyResultT<Family>;

  BasicPrefixPartition() = default;

  /// Builds from disjoint prefixes. Throws tass::Error if any two overlap;
  /// the input order is preserved and becomes the cell index order.
  explicit BasicPrefixPartition(std::vector<Prefix> prefixes);

  /// The flat per-cell arrays, as spans. raw() exposes them for
  /// serialisation; from_raw() builds a borrowed partition over them.
  /// `address_count` is in the family's scan units (addresses for v4,
  /// /64 subnets for v6; saturating).
  struct Raw {
    std::span<const Prefix> prefixes;          // one per slot (live + free)
    std::span<const SortedCell> sorted;        // live cells, prefix order
    std::span<const std::uint8_t> live;        // empty == every slot live
    std::span<const std::uint32_t> free_slots; // dead slots, ascending
    std::uint64_t address_count = 0;           // live unit total
    std::uint64_t live_count = 0;              // live slot total
  };

  /// Borrowed-storage partition over caller-owned arrays plus the match
  /// index that resolves into them (typically itself borrowed via
  /// BasicLpmIndex::from_raw). The storage must stay valid and
  /// unmodified for the partition's lifetime, and the arrays must satisfy
  /// the structural invariants of a built partition — from_raw trusts its
  /// input; the state image loader validates before calling. A borrowed
  /// partition rejects apply_delta(); all const queries are unchanged.
  static BasicPrefixPartition from_raw(const Raw& raw, Index index);

  /// The flat arrays of this partition (borrowed or owned). Spans are
  /// invalidated by apply_delta() and by destruction/assignment.
  Raw raw() const noexcept {
    return {prefixes_view_, sorted_view_,     live_view_,
            free_view_,     address_count_,   live_count_};
  }

  /// True if this partition borrows caller-owned storage (from_raw).
  bool borrowed() const noexcept { return borrowed_; }

  // Spans into own storage must be re-anchored on copy (and cleared on
  // move-from), so the special members are user-defined.
  BasicPrefixPartition(const BasicPrefixPartition& other);
  BasicPrefixPartition& operator=(const BasicPrefixPartition& other);
  BasicPrefixPartition(BasicPrefixPartition&& other) noexcept;
  BasicPrefixPartition& operator=(BasicPrefixPartition&& other) noexcept;
  ~BasicPrefixPartition() = default;

  /// Number of cell slots (live + free). Per-cell vectors are sized by
  /// this; free slots simply never receive attributions.
  std::size_t size() const noexcept { return prefixes_view_.size(); }
  bool empty() const noexcept { return prefixes_view_.empty(); }

  /// Live cells (size() minus free slots left by apply_delta).
  std::size_t live_cells() const noexcept { return live_count_; }
  std::size_t free_cells() const noexcept {
    return prefixes_view_.size() - live_count_;
  }

  /// True if the slot currently holds a cell (always true for a freshly
  /// constructed partition; apply_delta may free slots).
  bool live(std::size_t index) const noexcept {
    TASS_EXPECTS(index < prefixes_view_.size());
    return live_view_.empty() || live_view_[index] != 0;
  }

  /// Prefix of the cell at `index`. For a freed slot this returns the
  /// last prefix the slot held — callers walking all slots should gate on
  /// live(i) (attribution never produces counts for freed slots, so
  /// count-driven consumers like core::rank_by_density need no gate).
  Prefix prefix(std::size_t index) const noexcept {
    TASS_EXPECTS(index < prefixes_view_.size());
    return prefixes_view_[index];
  }
  std::span<const Prefix> prefixes() const noexcept {
    return prefixes_view_;
  }

  /// The live prefixes in slot order (== prefixes() for a partition that
  /// never absorbed a delta). This is the prefix set a from-scratch
  /// rebuild of this partition would be built from.
  std::vector<Prefix> live_prefixes() const;

  /// Applies a prefix-level delta in place, patching the LpmIndex rather
  /// than rebuilding it (see trie::BasicLpmIndex::update for the cost
  /// model).
  ///
  /// Index stability contract: cells not named by the delta keep their
  /// index, prefix, and locate() behaviour bit-identically; only the
  /// removed/added cells change. After the call, locate()/locate_many()
  /// and index_of() are bit-identical to a partition freshly built from
  /// the post-delta live prefix set — the delta differential suite
  /// enforces this.
  ///
  /// Validation happens before any mutation (strong guarantee): throws
  /// tass::Error if a removed prefix is not a live cell, is listed twice,
  /// if an added prefix overlaps a surviving cell (overlapping_cell with
  /// the removed cells skipped) or another addition, or if this partition
  /// is a borrowed view (from_raw) and so cannot mutate.
  /// A prefix listed in both remove and add is allowed (the cell is
  /// withdrawn and re-announced, landing on a possibly different slot).
  ///
  /// Thread safety: like LpmIndex::update — never concurrent with locate
  /// queries or another apply_delta; deltas apply between scan cycles.
  ApplyResult apply_delta(const Delta& delta);

  /// Sentinel cell index reported by locate_many for unrouted addresses.
  static constexpr std::uint32_t kNoCell = Index::kNoMatch;

  /// Index of the cell containing the address, if any.
  std::optional<std::uint32_t> locate(Address addr) const;

  /// Batched locate: cells[i] = cell index of addresses[i], or kNoCell.
  /// This is the per-shard API of the parallel attribution path.
  /// Precondition: cells.size() >= addresses.size().
  void locate_many(std::span<const AddressWord> addresses,
                   std::span<std::uint32_t> cells) const noexcept;

  /// The shared per-shard attribution kernel: resolves `addresses` in
  /// cache-sized blocks through locate_many and tallies them into
  /// counts[cell] through the util::cpu-dispatched tally kernel
  /// (bgp/tally_kernels.hpp); addresses outside the partition increment
  /// `unattributed` instead. Precondition: counts.size() == size().
  void tally_cells(std::span<const AddressWord> addresses,
                   std::vector<std::uint32_t>& counts,
                   std::uint64_t& attributed,
                   std::uint64_t& unattributed) const {
    TASS_EXPECTS(counts.size() == prefixes_view_.size());
    static_assert(detail::kTallyNoCell == kNoCell);
    const detail::TallyKernels& kernels = detail::active_tally_kernels();
    constexpr std::size_t kBlock = 4096;
    std::array<std::uint32_t, kBlock> cells;
    for (std::size_t offset = 0; offset < addresses.size();
         offset += kBlock) {
      const std::size_t n = std::min(kBlock, addresses.size() - offset);
      locate_many(addresses.subspan(offset, n), std::span(cells).first(n));
      kernels.tally(cells.data(), n, counts.data(), attributed, unattributed);
    }
  }

  /// Index of the cell equal to `prefix`, if present.
  std::optional<std::uint32_t> index_of(Prefix prefix) const;

  /// The first live cell overlapping `prefix` for which `skip(slot)` is
  /// false, if any. Two CIDR blocks overlap only by nesting, so the
  /// candidates are the cell covering prefix's network address (locate)
  /// and the cells whose network lies inside `prefix`, walked in prefix
  /// order through the sorted view. This is the one overlap rule of the
  /// partition: apply_delta rejects an addition it finds (skipping the
  /// removed cells), and a caller classifying churn against the live
  /// partition asks the same question before building a delta.
  template <class Skip>
  std::optional<std::uint32_t> overlapping_cell(Prefix prefix,
                                                Skip&& skip) const {
    if (const auto covering = locate(prefix.network())) {
      if (!skip(*covering)) return covering;
    }
    auto it = std::lower_bound(
        sorted_view_.begin(), sorted_view_.end(), prefix,
        [](const SortedCell& cell, Prefix p) { return cell.prefix < p; });
    for (; it != sorted_view_.end() &&
           Family::first_key(it->prefix) <= Family::last_key(prefix);
         ++it) {
      if (!skip(it->slot)) return it->slot;
    }
    return std::nullopt;
  }

  /// The underlying match substrate (shared with benches and tests).
  const Index& index() const noexcept { return index_; }

  /// Total scan-space units covered by the (live) partition cells:
  /// addresses for IPv4 (exact), /64 subnets for IPv6 (saturating — a
  /// ::/0 cell alone overflows 64 bits).
  std::uint64_t address_count() const noexcept { return address_count_; }

  /// The covered space as an interval set (live cells only). IPv4 only:
  /// interval enumeration is the v4 scan engine's walk; v6 scopes
  /// enumerate candidate sets instead (scan::ScanScope6).
  net::IntervalSet to_interval_set() const
      requires std::same_as<Family, net::Ipv4Family>;

 private:
  // Re-anchors the read-side spans on the owned vectors (no-op for a
  // borrowed partition, whose spans point at caller storage).
  void sync_views() noexcept;

  std::vector<Prefix> prefixes_;
  // Live cells sorted by (network, length): the sorted view.
  std::vector<SortedCell> sorted_;
  Index index_;
  std::uint64_t address_count_ = 0;
  // Tombstone bookkeeping for apply_delta. live_ stays empty until the
  // first delta frees a slot (the common fresh-build case pays nothing);
  // free_slots_ is kept ascending so reuse is deterministic.
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_slots_;
  // What the const queries actually read: the owned vectors above (synced
  // after every mutation) or borrowed caller storage (from_raw).
  std::span<const Prefix> prefixes_view_;
  std::span<const SortedCell> sorted_view_;
  std::span<const std::uint8_t> live_view_;
  std::span<const std::uint32_t> free_view_;
  bool borrowed_ = false;
  std::size_t live_count_ = 0;
};

/// Prefix-level diff between a partition's live cells and a target prefix
/// set: apply_delta(partition_delta(p, target)) makes p cover exactly
/// `target`. Throws tass::Error if `target` contains duplicates (overlap
/// among the survivors is caught by apply_delta itself).
template <class Family>
PartitionDeltaT<Family> partition_delta(
    const BasicPrefixPartition<Family>& current,
    std::span<const typename Family::Prefix> target);

/// Structural fingerprint: FNV-1a over the live cell count and the live
/// prefixes in slot order. The single digest definition behind the TSIM
/// state image binding and the serve wire's response fingerprints. The
/// IPv4 digest is byte-for-byte the pre-generic one; IPv6 prefixes hash
/// their hi/lo halves, so the two families can never collide by
/// construction (different update widths).
template <class Family>
std::uint64_t partition_fingerprint(
    const BasicPrefixPartition<Family>& partition);

/// The IPv4 instantiations under their historical names — every existing
/// call site compiles unchanged.
using PartitionDelta = PartitionDeltaT<net::Ipv4Family>;
using SortedCell = SortedCellT<net::Ipv4Family>;
using PartitionApplyResult = PartitionApplyResultT<net::Ipv4Family>;
using PrefixPartition = BasicPrefixPartition<net::Ipv4Family>;

extern template class BasicPrefixPartition<net::Ipv4Family>;

/// The IPv6 instantiations: identical semantics on 128-bit keys, space
/// accounting in /64 subnets (the v6 allocation unit), saturating
/// instead of wrapping.
using PartitionDelta6 = PartitionDeltaT<net::Ipv6Family>;
using SortedCell6 = SortedCellT<net::Ipv6Family>;
using PartitionApplyResult6 = PartitionApplyResultT<net::Ipv6Family>;
using PrefixPartition6 = BasicPrefixPartition<net::Ipv6Family>;

extern template class BasicPrefixPartition<net::Ipv6Family>;

}  // namespace tass::bgp
