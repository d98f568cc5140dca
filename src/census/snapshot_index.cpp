#include "census/snapshot_index.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "census/snapshot.hpp"
#include "util/error.hpp"

namespace tass::census {

namespace {

// Directory granularity: one entry per /16.
constexpr std::uint32_t kBucketBits = 16;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

}  // namespace

SnapshotIndex::SnapshotIndex(const Snapshot& snapshot)
    : SnapshotIndex(snapshot.addresses()) {}

SnapshotIndex::SnapshotIndex(std::vector<std::uint32_t> addresses)
    : hosts_(std::move(addresses)) {
  // Slots are stored as 32-bit offsets, so the end slot must fit too.
  TASS_EXPECTS(hosts_.size() <= std::numeric_limits<std::uint32_t>::max());
  directory_.assign(kBuckets + 1, 0);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    TASS_EXPECTS(i == 0 || hosts_[i - 1] < hosts_[i]);
    ++directory_[(hosts_[i] >> kBucketBits) + 1];
  }
  std::partial_sum(directory_.begin(), directory_.end(), directory_.begin());
}

std::size_t SnapshotIndex::lower(std::uint32_t addr) const noexcept {
  if (directory_.empty()) return 0;
  const std::uint32_t bucket = addr >> kBucketBits;
  const auto begin = hosts_.begin() + directory_[bucket];
  const auto end = hosts_.begin() + directory_[bucket + 1];
  return static_cast<std::size_t>(std::lower_bound(begin, end, addr) -
                                  hosts_.begin());
}

bool SnapshotIndex::contains(net::Ipv4Address addr) const noexcept {
  const std::size_t slot = lower(addr.value());
  return slot < hosts_.size() && hosts_[slot] == addr.value();
}

std::uint64_t SnapshotIndex::count_responsive(
    net::Interval interval) const noexcept {
  // Slots [lower(first), lower(last + 1)); empty if first > last.
  const std::uint32_t last = interval.last.value();
  const std::size_t lo = lower(interval.first.value());
  const std::size_t hi = last == std::numeric_limits<std::uint32_t>::max()
                             ? hosts_.size()
                             : lower(last + 1);
  return std::max(lo, hi) - lo;
}

}  // namespace tass::census
