// Reseeding policy — step 5 of the TASS algorithm made explicit.
//
// "Scan prefixes 1..k repeatedly until t0 + Delta-t, then start over at
// step 1." The reseed interval Delta-t trades residual accuracy against
// the cost of the periodic full seeding scan. This module evaluates a
// reseeding TASS deployment over a census series: every reseed month runs
// a full scan (full accuracy, full cost) and refreshes the selection; the
// months in between scan only the current selection.
#pragma once

#include <span>
#include <vector>

#include "bgp/partition.hpp"
#include "census/series.hpp"
#include "core/evaluate.hpp"
#include "core/ranking.hpp"

namespace tass::core {

struct ReseedPolicy {
  /// Months between seeding full scans; 0 = seed once at month 0, never
  /// again (the configuration Figure 6 measures over its 7 snapshots).
  int interval_months = 0;
};

struct ReseedOutcome {
  std::vector<CycleResult> cycles;
  int reseed_count = 0;               // full-scan cycles (incl. month 0)
  std::uint64_t total_probes = 0;     // across all cycles

  double mean_hitrate() const noexcept;
  /// Probe traffic relative to running a full scan every month.
  double traffic_vs_monthly_full(std::uint64_t advertised) const noexcept;
};

/// Replays a reseeding TASS deployment over the series.
ReseedOutcome evaluate_with_reseed(const census::CensusSeries& series,
                                   PrefixMode mode, SelectionParams params,
                                   ReseedPolicy policy);

/// Accounting for one incremental churn step (probes saved is the whole
/// point: rescanned_addresses versus the partition's full address_count).
struct ChurnStepStats {
  std::uint64_t rescanned_cells = 0;      // cells re-scored by this step
  std::uint64_t rescanned_addresses = 0;  // probe cost of the rescan
  std::uint64_t rescan_hits = 0;          // responsive addresses found
};

/// Runs one churn step of the incremental pipeline, between reseeds:
/// the caller has already patched `partition` with apply_delta; this
/// re-probes ONLY the invalidated cells (the delta's added cells plus
/// any `dirty_cells` whose host population is known to have changed),
/// patches `counts` in place, and rerank_cells()s the ranking — the
/// untouched world is never re-attributed.
///
/// Each rescanned cell is counted whole: one oracle->count_responsive
/// over its prefix, with no blocklist (partition cells were carved from
/// filtered space by the caller's pipeline), so its count is exact and
/// final. The stats are the sums over those cells.
///
/// `held_cells` (ascending, a subset of the delta's added cells) are
/// cells whose rescan is postponed, e.g. by a per-AS probe budget: they
/// keep count 0, rank at zero, and stay out of the stats. With a null
/// `oracle` nothing is probed: added cells score zero and dirty cells
/// keep their counts.
///
/// `counts` arrives in pre-delta indexing and leaves in post-delta
/// indexing (PartitionApplyResult::reindex is applied internally).
///
/// Equivalence contract: afterwards, (counts, ranking) are bit-identical
/// to re-scanning the entire partition against the same oracle and
/// ranking from scratch, provided the oracle's population only changed
/// inside dirty_cells and the delta's cells and no cell is held — the
/// churn-replay differential suite enforces this at every step.
ChurnStepStats churn_step(DensityRanking& ranking,
                          std::vector<std::uint32_t>& counts,
                          const bgp::PrefixPartition& partition,
                          const bgp::PartitionApplyResult& delta,
                          const scan::ProbeOracle* oracle,
                          std::span<const std::uint32_t> dirty_cells = {},
                          std::span<const std::uint32_t> held_cells = {});

/// The step above against `oracle`; `engine` has no effect (removed by
/// the benchmark-declared cleanup, ROADMAP item 6).
ChurnStepStats churn_step(DensityRanking& ranking,
                          std::vector<std::uint32_t>& counts,
                          const bgp::PrefixPartition& partition,
                          const bgp::PartitionApplyResult& delta,
                          const scan::ProbeOracle& oracle,
                          const scan::ScanEngine& engine,
                          std::span<const std::uint32_t> dirty_cells = {});

}  // namespace tass::core
