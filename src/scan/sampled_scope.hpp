// SampledScope: the statistical scan mode — probe a low-discrepancy
// sample of the selected cells and estimate the population instead of
// sweeping exhaustively (the footprint-reduction thesis taken to its
// logical extreme; sobscan's approach on the TASS substrate).
//
// The flow is family-generic and mirrors the exhaustive planning API:
//
//   ranking --plan_sample(params)--> SampleDesignT   (budget allocation)
//   design  --SampledScopeT-------> concrete targets (stratified draws)
//   scope   --probe()/ScanEngine--> SampleResult     (per-cell hits)
//   result  --core::estimate_from_sample--> population estimate + CIs
//
// plan_sample allocates the probe budget across the ranked cells
// density-weighted: every selected cell gets a configurable floor (so
// sparse cells stay observable and no uniformity hypothesis is needed —
// the MarkingBias::kSparseBiased lesson from core/estimator.hpp), and
// the remainder is split proportionally to seed hosts, capped at each
// cell's frame with deterministic largest-remainder rounding.
//
// The IPv4 scope materialises its drawn addresses into a regular
// ScanScope, so ScanEngine::run_attributed and every other ScanScope
// consumer work on a sampled scan unchanged; the IPv6 scope subsamples
// the per-cell candidate lists (ScanScope6 semantics — there is no
// enumerable v6 frame).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/partition.hpp"
#include "core/ranking.hpp"
#include "net/family.hpp"
#include "scan/scope.hpp"
#include "scan/sobol.hpp"
#include "util/error.hpp"

namespace tass::scan {

/// How to allocate a sampled scan's probe budget over a ranking.
struct SampleParams {
  /// Total probes per cycle across all sampled cells.
  std::uint64_t budget = 100'000;
  /// Minimum draws per selected cell (clamped to >= 1): keeps sparse
  /// cells observable so the estimator never extrapolates from silence.
  /// When the budget cannot fund the floor for every selected cell, the
  /// densest cells are kept and the tail is dropped from the frame.
  std::uint32_t floor = 16;
  /// Master seed for the stratified draws (per-cell streams derive from
  /// it; same seed -> bit-identical target lists).
  std::uint64_t seed = 1;
  /// Which cells participate: the TASS selection at this coverage
  /// target / density cutoff (phi = 1 samples every responsive cell).
  double phi = 1.0;
  double min_density = 0.0;
};

/// One cell's slice of the budget.
template <class Family>
struct SampleCellT {
  std::uint32_t cell = 0;  // partition cell index
  typename Family::Prefix prefix;
  /// Sampling-frame size: addresses for IPv4; for IPv6 the seed-host
  /// (hitlist candidate) count — re-capped to the actual candidate list
  /// by the scope, since 2^64 addresses per /64 are not enumerable.
  std::uint64_t universe = 0;
  std::uint64_t draws = 0;       // probes allocated to this cell
  std::uint64_t seed_hosts = 0;  // c_i from the ranking (the weight)
};

/// The budget allocation over a ranking — what tass_serve returns for a
/// kSample request, and what a SampledScopeT turns into targets.
template <class Family>
struct SampleDesignT {
  std::vector<SampleCellT<Family>> cells;  // ranking (density) order
  std::uint64_t total_draws = 0;           // sum of draws (<= budget)
  std::uint64_t frame_units = 0;           // sum of universes
  std::uint64_t seed = 1;

  /// Probes an exhaustive sweep of the same frame would need, per probe
  /// actually sent.
  double probe_reduction() const noexcept {
    return total_draws == 0 ? 0.0
                            : static_cast<double>(frame_units) /
                                  static_cast<double>(total_draws);
  }
};

using SampleCell = SampleCellT<net::Ipv4Family>;
using SampleCell6 = SampleCellT<net::Ipv6Family>;
using SampleDesign = SampleDesignT<net::Ipv4Family>;
using SampleDesign6 = SampleDesignT<net::Ipv6Family>;

/// Allocates params.budget across the ranking: selection by
/// (phi, min_density), then floor + density-weighted largest-remainder
/// split, capped at each cell's universe with deterministic
/// redistribution of the overflow. Pure function of (ranking, params).
template <class Family>
SampleDesignT<Family> plan_sample(
    const core::DensityRankingViewT<Family>& ranking,
    const SampleParams& params);

/// As above over an owned ranking.
template <class Family>
SampleDesignT<Family> plan_sample(const core::DensityRankingT<Family>& ranking,
                                  const SampleParams& params);

/// Per-cell outcome of probing a sampled scope. Family-free: only counts
/// survive the probes, and core::estimate_from_sample consumes them
/// identically for both families.
struct SampleCellResult {
  std::uint32_t cell = 0;
  std::uint64_t universe = 0;     // frame the draws were taken from
  std::uint64_t draws = 0;        // probes sent into this cell
  std::uint64_t hits = 0;         // responsive among the draws
  std::uint64_t marked_hits = 0;  // marked (e.g. vulnerable) among hits
  std::uint64_t seed_hosts = 0;   // the design's weight, for diagnostics
};

struct SampleResult {
  std::vector<SampleCellResult> cells;
  std::uint64_t probes_sent = 0;
  std::uint64_t hits = 0;
  std::uint64_t marked_hits = 0;
  std::uint64_t frame_units = 0;  // exhaustive cost of the same frame
};

/// The drawn targets of one design, grouped by design cell.
///
/// IPv4 draws stratified offsets inside each design cell's prefix and
/// materialises them into a ScanScope, so the sampled scan runs through
/// the exact same engine entry points as an exhaustive one. IPv6
/// subsamples the candidate set (hitlist) per design cell: the
/// candidates are attributed to cells through the partition, each
/// cell's universe is re-capped to its actual candidate count, and the
/// draws pick candidate indices via the same stratified machinery.
template <class Family>
class SampledScopeT {
 public:
  using Address = typename Family::Address;

  SampledScopeT() = default;
  explicit SampledScopeT(SampleDesignT<Family> design)
      requires std::same_as<Family, net::Ipv4Family>;
  SampledScopeT(SampleDesignT<Family> design,
                std::span<const Address> candidates,
                const bgp::BasicPrefixPartition<Family>& partition)
      requires std::same_as<Family, net::Ipv6Family>;

  const SampleDesignT<Family>& design() const noexcept { return design_; }

  /// The drawn targets as a regular ScanScope — feed it to
  /// ScanEngine::run/run_attributed unchanged.
  const ScanScope& scope() const noexcept
      requires std::same_as<Family, net::Ipv4Family>
  {
    return scope_;
  }

  /// The drawn targets, grouped by design cell (ascending inside a
  /// group for IPv4, candidate order for IPv6).
  std::span<const Address> targets() const noexcept { return targets_; }
  std::size_t target_count() const noexcept { return targets_.size(); }
  Address target(std::size_t index) const noexcept {
    TASS_EXPECTS(index < targets_.size());
    return targets_[index];
  }
  /// Targets of design cell `i` (an index into design().cells).
  std::span<const Address> cell_targets(std::size_t i) const {
    TASS_EXPECTS(i + 1 < cell_offsets_.size());
    return std::span(targets_).subspan(cell_offsets_[i],
                                       cell_offsets_[i + 1] -
                                           cell_offsets_[i]);
  }

  /// Probes every drawn target through `responds` (bool(Address));
  /// `marked` flags the interesting subpopulation among the hits.
  template <class RespondFn, class MarkedFn>
  SampleResult probe(RespondFn&& responds, MarkedFn&& marked) const {
    SampleResult out = result_skeleton();
    for (std::size_t i = 0; i < design_.cells.size(); ++i) {
      SampleCellResult& row = out.cells[i];
      for (const Address addr : cell_targets(i)) {
        if (!responds(addr)) continue;
        ++row.hits;
        if (marked(addr)) ++row.marked_hits;
      }
      out.hits += row.hits;
      out.marked_hits += row.marked_hits;
    }
    return out;
  }
  template <class RespondFn>
  SampleResult probe(RespondFn&& responds) const {
    return probe(std::forward<RespondFn>(responds),
                 [](Address) { return false; });
  }

  /// Folds an engine run over scope() back into per-cell sample rows:
  /// `cell_counts` is AttributedScanResult.cell_counts for the same
  /// partition the design's ranking was built over.
  SampleResult attribute(std::span<const std::uint32_t> cell_counts) const
      requires std::same_as<Family, net::Ipv4Family>;

 private:
  SampleResult result_skeleton() const;

  SampleDesignT<Family> design_;
  std::vector<Address> targets_;           // grouped by design cell
  std::vector<std::size_t> cell_offsets_;  // cells.size() + 1 fenceposts
  ScanScope scope_;  // IPv4 only; stays empty for IPv6
};

extern template class SampledScopeT<net::Ipv4Family>;
extern template class SampledScopeT<net::Ipv6Family>;

using SampledScope = SampledScopeT<net::Ipv4Family>;
using SampledScope6 = SampledScopeT<net::Ipv6Family>;

}  // namespace tass::scan
