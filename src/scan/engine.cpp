#include "scan/engine.hpp"

#include <algorithm>

namespace tass::scan {

ScanResult ScanEngine::run(const ScanScope& scope,
                           const ProbeOracle& oracle) const {
  ScanResult result;
  result.stats.probes_sent = scope.address_count();
  for (const net::Interval& interval : scope.targets().intervals()) {
    result.stats.responses += oracle.count_responsive(interval);
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
