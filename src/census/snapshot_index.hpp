// SnapshotIndex: a rank directory over a snapshot's responsive addresses.
//
// Snapshot::contains() answers one membership query with a partition
// locate plus two binary searches — fine for spot checks, ruinous when a
// simulated scan asks it once per in-scope address (billions of probes
// per cycle). The index keeps the responsive addresses as one ascending
// array plus a 65 537-entry directory holding the first array slot of
// every /16, so the rank of any address (the number of hosts below it)
// is a binary search inside one /16's slice. An interval count is two
// ranks and a subtraction, whatever the width of the interval.
//
// Memory: 4 B per host plus a fixed 256 KiB directory. A /32 bitmap
// costs 8 KiB per occupied /16 instead, so the array is the smaller
// store below ~3% density inside occupied /16s — well above the <2% hit
// rates Internet-wide scans see.
//
// This is the batched oracle behind the scan engine's walk and
// the same reduce-then-count idiom ipset-style prefix accounting uses.
#pragma once

#include <cstdint>
#include <vector>

#include "net/interval.hpp"
#include "net/ipv4.hpp"

namespace tass::census {

class Snapshot;

class SnapshotIndex {
 public:
  SnapshotIndex() = default;

  /// Indexes every responsive address of the snapshot.
  explicit SnapshotIndex(const Snapshot& snapshot);

  /// Indexes an ascending, duplicate-free address list.
  explicit SnapshotIndex(std::vector<std::uint32_t> addresses);

  /// True if the address is responsive.
  bool contains(net::Ipv4Address addr) const noexcept;

  /// Number of responsive addresses inside the inclusive interval.
  std::uint64_t count_responsive(net::Interval interval) const noexcept;

  /// Total responsive addresses.
  std::uint64_t total_responsive() const noexcept { return hosts_.size(); }

 private:
  // Slot of the first host >= addr (hosts_.size() if none).
  std::size_t lower(std::uint32_t addr) const noexcept;

  std::vector<std::uint32_t> hosts_;      // ascending, duplicate-free
  std::vector<std::uint32_t> directory_;  // first slot of each /16, + end
};

}  // namespace tass::census
