#include "scan/engine.hpp"

#include <algorithm>

#include "core/attribution.hpp"
#include "util/thread_pool.hpp"

namespace tass::scan {

namespace {

// Collects the responsive addresses of the dense scope ranks [lo, hi):
// the sub-intervals covering those ranks, in address order. `cumulative`
// holds, at entry i, the scope addresses before interval i.
void collect_ranks(std::span<const net::Interval> intervals,
                   std::span<const std::uint64_t> cumulative, std::uint64_t lo,
                   std::uint64_t hi, const ProbeOracle& oracle,
                   std::vector<std::uint32_t>& out) {
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
    const net::Ipv4Address from(static_cast<std::uint32_t>(first));
    const net::Ipv4Address to(static_cast<std::uint32_t>(last));
    oracle.collect_responsive(net::Interval{from, to}, out);
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

  if (config_.threads == 1 || shards == 1) {
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
          collect_ranks(intervals, cumulative, lo, hi, oracle, slots[shard]);
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
  out.result = run(scope, oracle);
  core::Attribution attribution =
      core::attribute(out.result.responsive, partition,
                      {config_.threads, config_.min_addresses_per_shard});
  out.cell_counts = std::move(attribution.counts);
  out.attributed = attribution.attributed;
  out.unattributed = attribution.unattributed;
  return out;
}

}  // namespace tass::scan
