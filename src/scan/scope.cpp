#include "scan/scope.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

namespace tass::scan {

namespace {

using net::Ipv6Address;

template <class Family>
const net::BasicIntervalSet<Family>& blocked_space(
    const Blocklist& blocklist) noexcept {
  if constexpr (std::same_as<Family, net::Ipv4Family>) {
    return blocklist.blocked();
  } else {
    return blocklist.blocked6();
  }
}

// Sorts `in` into `out` (same size). A v6 target list sits under one
// short common prefix, so a counting scatter keys the bits just below it
// (about one bucket per two addresses, at most 2^max_bits). A bucket that
// is still large (hosts cluster in a few subnets) is copied to `scratch`
// and sorted the same way below its own, longer common prefix, on at most
// 8 bits so the bucket cursors alive down a deep recursion stay small; a
// small bucket goes to std::sort. `in` is read in full before any bucket
// reuses `scratch`.
void radix_sort(std::span<const Ipv6Address> in, std::span<Ipv6Address> out,
                int max_bits, std::vector<Ipv6Address>& scratch) {
  std::uint64_t hi_diff = 0;
  std::uint64_t lo_diff = 0;
  for (const Ipv6Address address : in) {
    hi_diff |= address.hi() ^ in.front().hi();
    lo_diff |= address.lo() ^ in.front().lo();
  }
  if ((hi_diff | lo_diff) == 0) {  // all equal
    std::ranges::copy(in, out.begin());
    return;
  }
  const int common = hi_diff != 0 ? std::countl_zero(hi_diff)
                                  : 64 + std::countl_zero(lo_diff);
  const int bits =
      std::min(max_bits, static_cast<int>(std::bit_width(in.size())) - 1);
  const auto bucket_of = [common, bits](Ipv6Address address) {
    std::uint64_t below = address.hi();  // the 64 bits after the prefix
    if (common >= 64) {
      below = address.lo() << (common - 64);
    } else if (common > 0) {
      below = (address.hi() << common) | (address.lo() >> (64 - common));
    }
    return static_cast<std::size_t>(below >> (64 - bits));
  };
  std::vector<std::size_t> cursor(std::size_t{1} << bits, 0);
  for (const Ipv6Address address : in) ++cursor[bucket_of(address)];
  std::exclusive_scan(cursor.begin(), cursor.end(), cursor.begin(),
                      std::size_t{0});
  for (const Ipv6Address address : in) {
    out[cursor[bucket_of(address)]++] = address;
  }
  std::size_t begin = 0;
  for (const std::size_t end : cursor) {  // cursor[b] is now bucket b's end
    const auto bucket = out.subspan(begin, end - begin);
    if (bucket.size() > 32) {
      scratch.assign(bucket.begin(), bucket.end());
      radix_sort(scratch, bucket, 8, scratch);
    } else if (bucket.size() > 1) {
      std::sort(bucket.begin(), bucket.end());
    }
    begin = end;
  }
}

// An ascending copy of `addresses`.
std::vector<Ipv6Address> sorted_copy(std::span<const Ipv6Address> addresses) {
  if (std::is_sorted(addresses.begin(), addresses.end())) {
    return {addresses.begin(), addresses.end()};
  }
  std::vector<Ipv6Address> sorted(addresses.size());
  std::vector<Ipv6Address> scratch;
  radix_sort(addresses, sorted, 16, scratch);
  return sorted;
}

}  // namespace

template <class Family>
BasicScanScope<Family>::BasicScanScope(std::span<const Prefix> prefixes,
                                       const Blocklist& blocklist)
    : targets_(IntervalSet::of_prefixes(prefixes).subtract(
          blocked_space<Family>(blocklist))) {}

template <class Family>
BasicScanScope<Family> BasicScanScope<Family>::of_reduced(
    std::span<const Prefix> prefixes, const Blocklist& blocklist,
    const bgp::ReduceParams& params,
    bgp::BasicReduceResult<Family>* reduced_out) {
  auto reduced = bgp::reduce<Family>(prefixes, params);
  BasicScanScope scope(reduced.prefixes, blocklist);
  if (reduced_out != nullptr) *reduced_out = std::move(reduced);
  return scope;
}

template <class Family>
std::size_t BasicScanScope<Family>::add_candidates(
    std::span<const Address> addresses)
  requires std::same_as<Family, net::Ipv6Family>
{
  std::vector<Ipv6Address> batch = sorted_copy(addresses);
  // Both sides ascend, so one forward pass over the ranges admits the
  // batch, compacting it in place.
  const auto ranges = targets_.intervals();
  std::size_t admitted = 0;
  auto range = ranges.begin();
  for (const Ipv6Address address : batch) {
    while (range != ranges.end() && range->last < address) ++range;
    if (range == ranges.end()) break;
    if (range->first <= address) batch[admitted++] = address;
  }
  batch.resize(admitted);
  if (candidates_.empty()) {
    candidates_ = std::move(batch);
  } else {
    const auto middle =
        candidates_.insert(candidates_.end(), batch.begin(), batch.end());
    std::inplace_merge(candidates_.begin(), middle, candidates_.end());
  }
  return admitted;
}

template class BasicScanScope<net::Ipv4Family>;
template class BasicScanScope<net::Ipv6Family>;

}  // namespace tass::scan
