#include "core/reseed.hpp"

#include <algorithm>
#include <memory>

#include "scan/scope.hpp"
#include "util/error.hpp"

namespace tass::core {

double ReseedOutcome::mean_hitrate() const noexcept {
  if (cycles.empty()) return 0.0;
  double sum = 0.0;
  for (const CycleResult& cycle : cycles) sum += cycle.hitrate();
  return sum / static_cast<double>(cycles.size());
}

double ReseedOutcome::traffic_vs_monthly_full(
    std::uint64_t advertised) const noexcept {
  if (cycles.empty() || advertised == 0) return 0.0;
  return static_cast<double>(total_probes) /
         (static_cast<double>(advertised) *
          static_cast<double>(cycles.size()));
}

ReseedOutcome evaluate_with_reseed(const census::CensusSeries& series,
                                   PrefixMode mode, SelectionParams params,
                                   ReseedPolicy policy) {
  TASS_EXPECTS(policy.interval_months >= 0);
  const std::uint64_t advertised =
      series.topology().advertised_addresses;
  const scan::CostModel cost =
      scan::CostModel::for_protocol(series.protocol());

  ReseedOutcome outcome;
  std::unique_ptr<TassStrategy> strategy;
  for (int month = 0; month < series.month_count(); ++month) {
    const census::Snapshot& truth = series.month(month);
    const bool reseed =
        strategy == nullptr ||
        (policy.interval_months > 0 &&
         month % policy.interval_months == 0);

    CycleResult cycle;
    cycle.month_index = month;
    cycle.month = census::month_label(month);
    cycle.total_hosts = truth.total_hosts();
    if (reseed) {
      // The seeding cycle IS a full scan: it observes everything and
      // produces the selection used by subsequent cycles.
      strategy = std::make_unique<TassStrategy>(truth, mode, params);
      cycle.found_hosts = truth.total_hosts();
      cycle.scanned_addresses = advertised;
      ++outcome.reseed_count;
    } else {
      cycle.found_hosts = strategy->found_hosts(truth);
      cycle.scanned_addresses = strategy->scanned_addresses();
    }
    cycle.packets = cost.packets(cycle.scanned_addresses, cycle.found_hosts);
    outcome.total_probes += cycle.scanned_addresses;
    outcome.cycles.push_back(std::move(cycle));
  }
  return outcome;
}

ChurnStepStats churn_step(DensityRanking& ranking,
                          std::vector<std::uint32_t>& counts,
                          const bgp::PrefixPartition& partition,
                          const bgp::PartitionApplyResult& delta,
                          const scan::ProbeOracle& oracle,
                          const scan::ScanEngine& engine,
                          std::span<const std::uint32_t> dirty_cells) {
  TASS_EXPECTS(counts.size() == delta.old_cell_count);
  delta.reindex(counts);

  // Rescan scope: the cells the delta created plus the host-churn-dirty
  // ones. The two sets are disjoint by contract; unique() is insurance.
  std::vector<std::uint32_t> rescan(delta.added_cells.begin(),
                                    delta.added_cells.end());
  rescan.insert(rescan.end(), dirty_cells.begin(), dirty_cells.end());
  std::sort(rescan.begin(), rescan.end());
  rescan.erase(std::unique(rescan.begin(), rescan.end()), rescan.end());

  ChurnStepStats stats;
  stats.rescanned_cells = rescan.size();
  if (!rescan.empty()) {
    const scan::ScanScope scope = scan::ScanScope::of_cells(partition, rescan);
    const scan::AttributedScanResult attributed =
        engine.run_attributed(scope, oracle, partition);
    stats.rescanned_addresses = attributed.result.stats.probes_sent;
    stats.rescan_hits = attributed.result.stats.responses;
    // The whole cell was in scope, so its count is exact and final.
    for (const std::uint32_t cell : rescan) {
      counts[cell] = attributed.cell_counts[cell];
    }
  }
  rerank_cells(ranking, counts, partition, delta, dirty_cells);
  return stats;
}

}  // namespace tass::core
