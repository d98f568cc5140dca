#include "scan/engine.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace tass::scan {

namespace {

// Calls `visit` on the sub-intervals covering the dense scope ranks
// [lo, hi), in address order. `cumulative` holds, at entry i, the scope
// addresses before interval i.
template <class Visit>
void for_each_rank_piece(std::span<const net::Interval> intervals,
                         std::span<const std::uint64_t> cumulative,
                         std::uint64_t lo, std::uint64_t hi, Visit visit) {
  std::size_t index = static_cast<std::size_t>(
      std::upper_bound(cumulative.begin(), cumulative.end(), lo) -
      cumulative.begin() - 1);
  for (std::uint64_t pos = lo; pos < hi; ++index) {
    const net::Interval& interval = intervals[index];
    const std::uint64_t first =
        interval.first.value() + (pos - cumulative[index]);
    const std::uint64_t last =
        std::min<std::uint64_t>(interval.last.value(),
                                interval.first.value() +
                                    (hi - 1 - cumulative[index]));
    visit(net::Interval{net::Ipv4Address(static_cast<std::uint32_t>(first)),
                        net::Ipv4Address(static_cast<std::uint32_t>(last))});
    pos += last - first + 1;
  }
}

}  // namespace

ScanResult ScanEngine::run(const ScanScope& scope,
                           const ProbeOracle& oracle) const {
  ScanResult result;
  const std::uint64_t total = scope.address_count();
  result.stats.probes_sent = total;
  const std::span<const net::Interval> intervals = scope.targets().intervals();
  const std::size_t shards = util::shard_count_for(
      total, std::max<std::uint64_t>(1, config_.min_addresses_per_shard));

  // Each list is counted first and reserved exactly, so the hits are
  // copied once rather than through repeated regrowth.
  if (config_.threads == 1 || shards == 1) {
    std::uint64_t found = 0;
    for (const net::Interval& interval : intervals) {
      found += oracle.count_responsive(interval);
    }
    result.responsive.reserve(found);
    for (const net::Interval& interval : intervals) {
      oracle.collect_responsive(interval, result.responsive);
    }
  } else {
    std::vector<std::uint64_t> cumulative(intervals.size() + 1, 0);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      cumulative[i + 1] = cumulative[i] + intervals[i].size();
    }
    std::vector<std::vector<std::uint32_t>> slots(shards);
    util::run_chunks(
        config_.threads, 0, total, shards,
        [&](std::size_t shard, std::uint64_t lo, std::uint64_t hi) {
          std::uint64_t found = 0;
          for_each_rank_piece(intervals, cumulative, lo, hi,
                              [&](net::Interval piece) {
                                found += oracle.count_responsive(piece);
                              });
          std::vector<std::uint32_t>& slot = slots[shard];
          slot.reserve(found);
          for_each_rank_piece(intervals, cumulative, lo, hi,
                              [&](net::Interval piece) {
                                oracle.collect_responsive(piece, slot);
                              });
        });
    std::size_t found = 0;
    for (const auto& slot : slots) found += slot.size();
    result.responsive.reserve(found);
    for (const auto& slot : slots) {
      result.responsive.insert(result.responsive.end(), slot.begin(),
                               slot.end());
    }
  }
  result.stats.responses = result.responsive.size();
  // Both branches emit in address order (disjoint ascending intervals /
  // rank-ordered shard slots), so normalising to the documented
  // "ascending addresses" contract is an O(n) check in practice; the sort
  // only runs if an oracle's collect_responsive violates its ordering
  // contract.
  if (!std::is_sorted(result.responsive.begin(), result.responsive.end())) {
    std::sort(result.responsive.begin(), result.responsive.end());
  }
  return result;
}

AttributedScanResult ScanEngine::run_attributed(
    const ScanScope& scope, const ProbeOracle& oracle,
    const bgp::PrefixPartition& partition) const {
  AttributedScanResult out;
  out.result.stats.probes_sent = scope.address_count();
  out.cell_counts.assign(partition.size(), 0);
  // Live cells in address order (disjoint prefixes sort by network).
  const auto cells = partition.raw().sorted;
  auto next = cells.begin();
  for (const net::Interval& interval : scope.targets().intervals()) {
    out.result.stats.responses += oracle.count_responsive(interval);
    // Intervals ascend, so the first cell reaching this one lies at or
    // after the previous interval's first overlapping cell.
    next = std::partition_point(next, cells.end(), [&](const auto& cell) {
      return cell.prefix.last() < interval.first;
    });
    for (auto cell = next;
         cell != cells.end() && cell->prefix.first() <= interval.last;
         ++cell) {
      const net::Interval piece{std::max(cell->prefix.first(), interval.first),
                                std::min(cell->prefix.last(), interval.last)};
      const std::uint64_t hits = oracle.count_responsive(piece);
      out.cell_counts[cell->slot] += static_cast<std::uint32_t>(hits);
      out.attributed += hits;
    }
  }
  out.unattributed = out.result.stats.responses - out.attributed;
  return out;
}

}  // namespace tass::scan
