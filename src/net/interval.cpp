#include "net/interval.hpp"

#include "util/error.hpp"

namespace tass::net {

namespace {

// The neighbours of an address; the v6 pair carries between the two
// 64-bit words. Callers never step past either end of the space.
constexpr Ipv4Address next(Ipv4Address address) noexcept {
  return Ipv4Address(address.value() + 1);
}
constexpr Ipv4Address prev(Ipv4Address address) noexcept {
  return Ipv4Address(address.value() - 1);
}
constexpr Ipv6Address next(Ipv6Address address) noexcept {
  return Ipv6Address(address.hi() + (address.lo() == ~0ULL), address.lo() + 1);
}
constexpr Ipv6Address prev(Ipv6Address address) noexcept {
  return Ipv6Address(address.hi() - (address.lo() == 0), address.lo() - 1);
}

// True if a ends immediately before b starts or they overlap, i.e. the two
// can be coalesced into one interval. An interval ending at the all-ones
// address has no next address, and reaches anything after it.
template <class Family>
bool mergeable(const BasicInterval<Family>& a,
               const BasicInterval<Family>& b) noexcept {
  return a.last == BasicInterval<Family>::full_space().last ||
         next(a.last) >= b.first;
}

}  // namespace

template <class Family>
BasicIntervalSet<Family>::BasicIntervalSet(
    std::span<const Interval> intervals) {
  std::vector<Interval> sorted(intervals.begin(), intervals.end());
  std::sort(sorted.begin(), sorted.end());
  for (const Interval& interval : sorted) {
    TASS_EXPECTS(interval.first <= interval.last);
    if (!intervals_.empty() && mergeable(intervals_.back(), interval)) {
      intervals_.back().last = std::max(intervals_.back().last, interval.last);
    } else {
      intervals_.push_back(interval);
    }
  }
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::of_prefixes(
    std::span<const Prefix> prefixes) {
  std::vector<Interval> intervals;
  intervals.reserve(prefixes.size());
  for (const Prefix& prefix : prefixes) {
    intervals.push_back(Interval::of(prefix));
  }
  return BasicIntervalSet(intervals);
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::full_space() {
  BasicIntervalSet set;
  set.intervals_.push_back(Interval::full_space());
  return set;
}

template <class Family>
void BasicIntervalSet<Family>::insert(Interval interval) {
  TASS_EXPECTS(interval.first <= interval.last);
  // Find the insertion window: all intervals overlapping or adjacent to
  // `interval` get merged into it.
  auto begin = std::ranges::lower_bound(intervals_, interval.first, {},
                                        &Interval::first);
  // Step back if the previous interval touches the new one.
  if (begin != intervals_.begin() && mergeable(*(begin - 1), interval)) {
    --begin;
  }
  auto end = begin;
  while (end != intervals_.end() && mergeable(interval, *end)) {
    interval.first = std::min(interval.first, end->first);
    interval.last = std::max(interval.last, end->last);
    ++end;
  }
  const auto pos = intervals_.erase(begin, end);
  intervals_.insert(pos, interval);
}

template <class Family>
void BasicIntervalSet<Family>::remove(Interval interval) {
  TASS_EXPECTS(interval.first <= interval.last);
  BasicIntervalSet hole;
  hole.intervals_.push_back(interval);
  *this = subtract(hole);
}

template <class Family>
std::uint64_t BasicIntervalSet<Family>::address_count() const noexcept
  requires std::same_as<Family, Ipv4Family>
{
  std::uint64_t total = 0;
  for (const Interval& interval : intervals_) total += interval.size();
  return total;
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::union_with(
    const BasicIntervalSet& other) const {
  std::vector<Interval> merged;
  merged.reserve(intervals_.size() + other.intervals_.size());
  merged.insert(merged.end(), intervals_.begin(), intervals_.end());
  merged.insert(merged.end(), other.intervals_.begin(),
                other.intervals_.end());
  return BasicIntervalSet(merged);
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::intersect(
    const BasicIntervalSet& other) const {
  BasicIntervalSet result;
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    const Address lo = std::max(a->first, b->first);
    const Address hi = std::min(a->last, b->last);
    if (lo <= hi) result.intervals_.push_back({lo, hi});
    if (a->last < b->last) {
      ++a;
    } else {
      ++b;
    }
  }
  return result;
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::subtract(
    const BasicIntervalSet& other) const {
  // One merge walk of this set's intervals against the holes. Both
  // ascend; a hole that runs past an interval stays current, as it may
  // reach into the next one.
  BasicIntervalSet result;
  auto hole = other.intervals_.begin();
  const auto holes_end = other.intervals_.end();
  for (Interval interval : intervals_) {
    while (hole != holes_end && hole->last < interval.first) ++hole;
    bool open = true;  // interval.first..interval.last is left to emit
    for (; hole != holes_end && hole->first <= interval.last; ++hole) {
      if (interval.first < hole->first) {
        result.intervals_.push_back({interval.first, prev(hole->first)});
      }
      if (hole->last >= interval.last) {
        open = false;
        break;
      }
      interval.first = next(hole->last);
    }
    if (open) result.intervals_.push_back(interval);
  }
  return result;
}

template <class Family>
BasicIntervalSet<Family> BasicIntervalSet<Family>::complement() const {
  return full_space().subtract(*this);
}

template <class Family>
std::vector<typename Family::Prefix> BasicIntervalSet<Family>::to_prefixes()
    const
  requires std::same_as<Family, Ipv4Family>
{
  std::vector<Prefix> prefixes;
  for (const Interval& interval : intervals_) {
    const auto cover = cover_range(interval.first, interval.last);
    prefixes.insert(prefixes.end(), cover.begin(), cover.end());
  }
  return prefixes;
}

template class BasicIntervalSet<Ipv4Family>;
template class BasicIntervalSet<Ipv6Family>;

AddressIndexer::AddressIndexer(const IntervalSet& set)
    : intervals_(set.intervals().begin(), set.intervals().end()) {
  cumulative_.reserve(intervals_.size());
  std::uint64_t running = 0;
  for (const Interval& interval : intervals_) {
    running += interval.size();
    cumulative_.push_back(running);
  }
}

Ipv4Address AddressIndexer::at(std::uint64_t index) const {
  TASS_EXPECTS(index < size());
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), index);
  const auto slot = static_cast<std::size_t>(it - cumulative_.begin());
  const std::uint64_t before = slot == 0 ? 0 : cumulative_[slot - 1];
  return Ipv4Address(intervals_[slot].first.value() +
                     static_cast<std::uint32_t>(index - before));
}

}  // namespace tass::net
