#include "bgp/partition.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace tass::bgp {

template <class Family>
void BasicPrefixPartition<Family>::sync_views() noexcept {
  if (borrowed_) return;
  prefixes_view_ = prefixes_;
  sorted_view_ = sorted_;
  live_view_ = live_;
  free_view_ = free_slots_;
}

template <class Family>
BasicPrefixPartition<Family> BasicPrefixPartition<Family>::from_raw(
    const Raw& raw, Index index) {
  BasicPrefixPartition partition;
  partition.borrowed_ = true;
  partition.prefixes_view_ = raw.prefixes;
  partition.sorted_view_ = raw.sorted;
  partition.live_view_ = raw.live;
  partition.free_view_ = raw.free_slots;
  partition.address_count_ = raw.address_count;
  partition.live_count_ = static_cast<std::size_t>(raw.live_count);
  partition.index_ = std::move(index);
  return partition;
}

template <class Family>
BasicPrefixPartition<Family>::BasicPrefixPartition(
    const BasicPrefixPartition& other)
    : prefixes_(other.prefixes_),
      sorted_(other.sorted_),
      index_(other.index_),
      address_count_(other.address_count_),
      live_(other.live_),
      free_slots_(other.free_slots_),
      borrowed_(other.borrowed_),
      live_count_(other.live_count_) {
  if (borrowed_) {
    // Borrowed views share the caller's storage; the copy does too.
    prefixes_view_ = other.prefixes_view_;
    sorted_view_ = other.sorted_view_;
    live_view_ = other.live_view_;
    free_view_ = other.free_view_;
  } else {
    sync_views();
  }
}

template <class Family>
BasicPrefixPartition<Family>& BasicPrefixPartition<Family>::operator=(
    const BasicPrefixPartition& other) {
  if (this != &other) *this = BasicPrefixPartition(other);
  return *this;
}

template <class Family>
BasicPrefixPartition<Family>::BasicPrefixPartition(
    BasicPrefixPartition&& other) noexcept
    : prefixes_(std::move(other.prefixes_)),
      sorted_(std::move(other.sorted_)),
      index_(std::move(other.index_)),
      address_count_(other.address_count_),
      live_(std::move(other.live_)),
      free_slots_(std::move(other.free_slots_)),
      // Owned vector buffers survive the move at the same addresses, so
      // the source's views stay valid for the new owner; borrowed views
      // point at caller storage and transfer as-is.
      prefixes_view_(other.prefixes_view_),
      sorted_view_(other.sorted_view_),
      live_view_(other.live_view_),
      free_view_(other.free_view_),
      borrowed_(other.borrowed_),
      live_count_(other.live_count_) {
  other.prefixes_view_ = {};
  other.sorted_view_ = {};
  other.live_view_ = {};
  other.free_view_ = {};
  other.address_count_ = 0;
  other.live_count_ = 0;
  other.borrowed_ = false;
}

template <class Family>
BasicPrefixPartition<Family>& BasicPrefixPartition<Family>::operator=(
    BasicPrefixPartition&& other) noexcept {
  if (this != &other) {
    prefixes_ = std::move(other.prefixes_);
    sorted_ = std::move(other.sorted_);
    index_ = std::move(other.index_);
    address_count_ = other.address_count_;
    live_ = std::move(other.live_);
    free_slots_ = std::move(other.free_slots_);
    prefixes_view_ = other.prefixes_view_;
    sorted_view_ = other.sorted_view_;
    live_view_ = other.live_view_;
    free_view_ = other.free_view_;
    borrowed_ = other.borrowed_;
    live_count_ = other.live_count_;
    other.prefixes_view_ = {};
    other.sorted_view_ = {};
    other.live_view_ = {};
    other.free_view_ = {};
    other.address_count_ = 0;
    other.live_count_ = 0;
    other.borrowed_ = false;
  }
  return *this;
}

template <class Family>
BasicPrefixPartition<Family>::BasicPrefixPartition(
    std::vector<Prefix> prefixes)
    : prefixes_(std::move(prefixes)) {
  if (prefixes_.size() >= Index::kNoMatch) {
    throw Error("partition too large");
  }
  sorted_.reserve(prefixes_.size());
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    sorted_.push_back({prefixes_[i], static_cast<std::uint32_t>(i)});
  }
  // m_partition() emits its cells ascending; sort only other input.
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  // Disjointness: with cells sorted by network address, an overlap exists
  // exactly when a cell starts at or before the furthest end seen so far
  // (CIDR blocks overlap only by containment, which this detects too).
  bool have_previous = false;
  net::AddressKey max_last{};
  std::vector<typename Index::Entry> table;
  table.reserve(sorted_.size());
  for (const SortedCell& cell : sorted_) {
    if (have_previous && Family::first_key(cell.prefix) <= max_last) {
      throw Error("partition prefixes overlap at " + cell.prefix.to_string());
    }
    max_last = Family::last_key(cell.prefix);
    have_previous = true;
    table.push_back({cell.prefix, cell.slot});
    address_count_ = net::saturating_add(address_count_,
                                         Family::prefix_units(cell.prefix));
  }
  index_ = Index(table);
  live_count_ = prefixes_.size();
  sync_views();
}

template <class Family>
auto BasicPrefixPartition<Family>::apply_delta(const Delta& delta)
    -> ApplyResult {
  if (borrowed_) {
    throw Error(
        "PrefixPartition::apply_delta on a borrowed view (from_raw): "
        "read-only storage cannot absorb deltas; rebuild an owned "
        "partition instead");
  }
  ApplyResult result;
  result.old_cell_count = static_cast<std::uint32_t>(prefixes_.size());

  // ---- validation (all of it before any mutation) --------------------
  result.removed_cells.reserve(delta.remove.size());
  for (const Prefix prefix : delta.remove) {
    const auto slot = index_of(prefix);
    if (!slot) {
      throw Error("apply_delta: removed prefix " + prefix.to_string() +
                  " is not a live cell");
    }
    result.removed_cells.push_back(*slot);
  }
  std::sort(result.removed_cells.begin(), result.removed_cells.end());
  if (std::adjacent_find(result.removed_cells.begin(),
                         result.removed_cells.end()) !=
      result.removed_cells.end()) {
    throw Error("apply_delta: prefix removed twice");
  }
  // O(1) removal test: the overlap query and the sorted-view merge below
  // ask it once per cell.
  std::vector<std::uint8_t> removed_flag(prefixes_.size(), 0);
  for (const std::uint32_t slot : result.removed_cells) {
    removed_flag[slot] = 1;
  }
  const auto being_removed = [&](std::uint32_t slot) {
    return removed_flag[slot] != 0;
  };

  {
    // Additions must be pairwise disjoint: with CIDR blocks sorted by
    // (network, length), any overlap is visible as a prefix starting at
    // or before the furthest end seen so far (same sweep as the ctor).
    std::vector<Prefix> adds(delta.add.begin(), delta.add.end());
    std::sort(adds.begin(), adds.end());
    bool have_previous = false;
    net::AddressKey max_last{};
    for (const Prefix prefix : adds) {
      if (have_previous && Family::first_key(prefix) <= max_last) {
        throw Error("apply_delta: added prefixes overlap at " +
                    prefix.to_string());
      }
      max_last = Family::last_key(prefix);
      have_previous = true;
    }
  }
  for (const Prefix prefix : delta.add) {
    if (const auto cell = overlapping_cell(prefix, being_removed)) {
      throw Error("apply_delta: added prefix " + prefix.to_string() +
                  " overlaps live cell " + prefixes_[*cell].to_string());
    }
  }
  const std::size_t pool_capacity =
      free_slots_.size() + result.removed_cells.size();
  const std::size_t appended =
      delta.add.size() > pool_capacity ? delta.add.size() - pool_capacity : 0;
  if (prefixes_.size() + appended >= Index::kNoMatch) {
    throw Error("partition too large");
  }

  // ---- mutation ------------------------------------------------------
  if (live_.empty()) live_.assign(prefixes_.size(), 1);

  std::vector<typename Index::Entry> upserts;
  upserts.reserve(delta.add.size());
  std::vector<Prefix> erases;
  erases.reserve(result.removed_cells.size());
  for (const std::uint32_t slot : result.removed_cells) {
    live_[slot] = 0;
    address_count_ = net::saturating_sub(
        address_count_, Family::prefix_units(prefixes_[slot]));
    erases.push_back(prefixes_[slot]);
  }
  live_count_ -= result.removed_cells.size();

  // Free pool: pre-existing free slots plus the ones this delta freed,
  // consumed in ascending order so slot assignment is deterministic.
  std::vector<std::uint32_t> pool;
  pool.reserve(pool_capacity);
  std::merge(free_slots_.begin(), free_slots_.end(),
             result.removed_cells.begin(), result.removed_cells.end(),
             std::back_inserter(pool));
  std::size_t pooled = 0;
  result.added_cells.reserve(delta.add.size());
  for (const Prefix prefix : delta.add) {
    std::uint32_t slot;
    if (pooled < pool.size()) {
      slot = pool[pooled++];
      prefixes_[slot] = prefix;
    } else {
      slot = static_cast<std::uint32_t>(prefixes_.size());
      prefixes_.push_back(prefix);
      live_.push_back(0);
    }
    live_[slot] = 1;
    address_count_ =
        net::saturating_add(address_count_, Family::prefix_units(prefix));
    result.added_cells.push_back(slot);
    upserts.push_back({prefix, slot});
  }
  live_count_ += delta.add.size();
  free_slots_.assign(pool.begin() + static_cast<std::ptrdiff_t>(pooled),
                     pool.end());
  result.new_cell_count = static_cast<std::uint32_t>(prefixes_.size());

  // Patch the sorted live-cell view: drop removed entries, merge in the
  // added ones (one linear pass; both sequences are prefix-sorted).
  std::vector<SortedCell> added_sorted;
  added_sorted.reserve(delta.add.size());
  for (std::size_t i = 0; i < delta.add.size(); ++i) {
    added_sorted.push_back({delta.add[i], result.added_cells[i]});
  }
  std::sort(added_sorted.begin(), added_sorted.end());
  std::vector<SortedCell> next;
  next.reserve(sorted_.size() - result.removed_cells.size() +
               added_sorted.size());
  auto add_it = added_sorted.cbegin();
  for (const SortedCell& cell : sorted_) {
    if (being_removed(cell.slot)) continue;
    while (add_it != added_sorted.cend() && add_it->prefix < cell.prefix) {
      next.push_back(*add_it++);
    }
    next.push_back(cell);
  }
  next.insert(next.end(), add_it, added_sorted.cend());
  sorted_ = std::move(next);

  // Patch the LpmIndex with the *net* change per prefix: a prefix that is
  // both withdrawn and re-announced is a plain value upsert.
  std::vector<Prefix> upserted;
  upserted.reserve(upserts.size());
  for (const auto& entry : upserts) upserted.push_back(entry.prefix);
  std::sort(upserted.begin(), upserted.end());
  std::erase_if(erases, [&](Prefix p) {
    return std::binary_search(upserted.begin(), upserted.end(), p);
  });
  result.index_stats = index_.update(upserts, erases);
  sync_views();
  return result;
}

template <class Family>
std::optional<std::uint32_t> BasicPrefixPartition<Family>::locate(
    Address addr) const {
  const std::uint32_t cell = index_.lookup(addr);
  if (cell == kNoCell) return std::nullopt;
  return cell;
}

template <class Family>
void BasicPrefixPartition<Family>::locate_many(
    std::span<const AddressWord> addresses,
    std::span<std::uint32_t> cells) const noexcept {
  index_.lookup_many(addresses, cells);
}

template <class Family>
std::optional<std::uint32_t> BasicPrefixPartition<Family>::index_of(
    Prefix prefix) const {
  // The cells are disjoint, so a cell equal to `prefix` is the one cell
  // covering its network address: one LPM lookup, not a binary search.
  const auto cell = locate(prefix.network());
  if (!cell || prefixes_view_[*cell] != prefix) return std::nullopt;
  return cell;
}

template <class Family>
auto BasicPrefixPartition<Family>::live_prefixes() const
    -> std::vector<Prefix> {
  if (live_view_.empty()) {
    return std::vector<Prefix>(prefixes_view_.begin(), prefixes_view_.end());
  }
  std::vector<Prefix> live;
  live.reserve(live_count_);
  for (std::size_t i = 0; i < prefixes_view_.size(); ++i) {
    if (live_view_[i] != 0) live.push_back(prefixes_view_[i]);
  }
  return live;
}

template <class Family>
net::IntervalSet BasicPrefixPartition<Family>::to_interval_set() const
    requires std::same_as<Family, net::Ipv4Family>
{
  if (live_view_.empty()) {
    return net::IntervalSet::of_prefixes(prefixes_view_);
  }
  return net::IntervalSet::of_prefixes(live_prefixes());
}

template <class Family>
PartitionDeltaT<Family> partition_delta(
    const BasicPrefixPartition<Family>& current,
    std::span<const typename Family::Prefix> target) {
  using Prefix = typename Family::Prefix;
  std::vector<Prefix> want(target.begin(), target.end());
  std::sort(want.begin(), want.end());
  if (std::adjacent_find(want.begin(), want.end()) != want.end()) {
    throw Error("partition_delta: duplicate prefix in target");
  }
  std::vector<Prefix> have = current.live_prefixes();
  std::sort(have.begin(), have.end());

  PartitionDeltaT<Family> delta;
  std::set_difference(have.begin(), have.end(), want.begin(), want.end(),
                      std::back_inserter(delta.remove));
  std::set_difference(want.begin(), want.end(), have.begin(), have.end(),
                      std::back_inserter(delta.add));
  return delta;
}

template <class Family>
std::uint64_t partition_fingerprint(
    const BasicPrefixPartition<Family>& partition) {
  util::Fnv1a64 hasher;
  hasher.update_u64(partition.live_cells());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (!partition.live(i)) continue;
    const typename Family::Prefix prefix = partition.prefix(i);
    if constexpr (Family::kBits == 32) {
      // The historical v4 digest, byte for byte, so existing TSIM
      // bindings stay valid.
      hasher.update_u32(prefix.network().value());
    } else {
      hasher.update_u64(prefix.network().hi());
      hasher.update_u64(prefix.network().lo());
    }
    hasher.update(static_cast<std::uint8_t>(prefix.length()));
  }
  return hasher.digest();
}

template class BasicPrefixPartition<net::Ipv4Family>;
template class BasicPrefixPartition<net::Ipv6Family>;

template PartitionDeltaT<net::Ipv4Family> partition_delta(
    const BasicPrefixPartition<net::Ipv4Family>&,
    std::span<const net::Ipv4Family::Prefix>);
template PartitionDeltaT<net::Ipv6Family> partition_delta(
    const BasicPrefixPartition<net::Ipv6Family>&,
    std::span<const net::Ipv6Family::Prefix>);
template std::uint64_t partition_fingerprint(
    const BasicPrefixPartition<net::Ipv4Family>&);
template std::uint64_t partition_fingerprint(
    const BasicPrefixPartition<net::Ipv6Family>&);

}  // namespace tass::bgp
