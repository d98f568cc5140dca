#include "scan/sampled_scope.hpp"

#include <algorithm>
#include <numeric>

#include "core/selection.hpp"
#include "net/interval.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::scan {

namespace {

// Deterministic largest-remainder split of `amount` across rows
// proportional to `weights` (uniform when all weights are zero); the
// result never exceeds a row's weight share rounded up, and sums to
// exactly `amount` when total weight > 0. Ties break towards the
// earlier (denser) row.
std::vector<std::uint64_t> distribute(std::uint64_t amount,
                                      std::span<const std::uint64_t> weights) {
  std::vector<std::uint64_t> shares(weights.size(), 0);
  if (amount == 0 || weights.empty()) return shares;
  __uint128_t total = 0;
  for (const std::uint64_t weight : weights) total += weight;
  std::vector<std::uint64_t> effective;
  if (total == 0) {
    effective.assign(weights.size(), 1);
    weights = effective;
    total = weights.size();
  }
  std::uint64_t assigned = 0;
  std::vector<std::pair<__uint128_t, std::size_t>> fractions;
  fractions.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const __uint128_t product =
        static_cast<__uint128_t>(amount) * weights[i];
    shares[i] = static_cast<std::uint64_t>(product / total);
    assigned += shares[i];
    fractions.emplace_back(product % total, i);
  }
  std::uint64_t leftover = amount - assigned;
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; i < fractions.size() && leftover > 0; ++i) {
    ++shares[fractions[i].second];
    --leftover;
  }
  return shares;
}

// Allocates `budget` over `rows` (already truncated to the fundable
// set): floor each, remainder proportional to seed hosts, capped at the
// universe with overflow redistributed into remaining capacity.
template <class Family>
void allocate(std::vector<SampleCellT<Family>>& rows, std::uint64_t budget,
              std::uint64_t floor) {
  const std::size_t k = rows.size();
  if (k == 0 || budget == 0) return;
  std::vector<std::uint64_t> draws(k, 0);
  if (budget <= floor * k) {
    // The floor consumed the whole budget: equal split over the kept
    // rows (the caller already truncated to budget/floor rows).
    std::vector<std::uint64_t> ones(k, 1);
    draws = distribute(budget, ones);
  } else {
    std::vector<std::uint64_t> weights(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      draws[i] = floor;
      weights[i] = rows[i].seed_hosts;
    }
    const auto extra = distribute(budget - floor * k, weights);
    for (std::size_t i = 0; i < k; ++i) draws[i] += extra[i];
  }
  // Cap at each cell's frame; push the overflow into cells that still
  // have capacity, proportional to that capacity. Converges: every pass
  // either clears the overflow or caps at least one more row.
  for (;;) {
    std::uint64_t overflow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (draws[i] > rows[i].universe) {
        overflow += draws[i] - rows[i].universe;
        draws[i] = rows[i].universe;
      }
    }
    if (overflow == 0) break;
    std::vector<std::uint64_t> capacity(k, 0);
    std::uint64_t total_capacity = 0;
    for (std::size_t i = 0; i < k; ++i) {
      capacity[i] = rows[i].universe - draws[i];
      total_capacity += capacity[i];
    }
    if (total_capacity == 0) break;  // budget exceeds the whole frame
    const auto refill = distribute(std::min(overflow, total_capacity),
                                   capacity);
    for (std::size_t i = 0; i < k; ++i) draws[i] += refill[i];
  }
  for (std::size_t i = 0; i < k; ++i) rows[i].draws = draws[i];
}

}  // namespace

template <class Family>
SampleDesignT<Family> plan_sample(
    const core::DensityRankingViewT<Family>& ranking,
    const SampleParams& params) {
  core::SelectionParams selection_params;
  selection_params.phi = params.phi;
  selection_params.min_density = params.min_density;
  const auto selection = core::select_by_density(ranking, selection_params);

  SampleDesignT<Family> design;
  design.seed = params.seed;
  // The selection's indices are in ranking order; walk both in lockstep
  // to recover size/hosts for each selected cell.
  design.cells.reserve(selection.indices.size());
  std::size_t cursor = 0;
  for (const auto& entry : ranking.ranked) {
    if (cursor >= selection.indices.size()) break;
    if (entry.index != selection.indices[cursor]) continue;
    ++cursor;
    SampleCellT<Family> row;
    row.cell = entry.index;
    row.prefix = entry.prefix;
    // IPv4 samples the prefix's address frame; IPv6 has no enumerable
    // frame, so the seed-host (candidate) count stands in and the scope
    // re-caps it against the actual candidate list.
    if constexpr (Family::kBits == 32) {
      row.universe = entry.size;
    } else {
      row.universe = entry.hosts;
    }
    row.seed_hosts = entry.hosts;
    if (row.universe == 0) continue;
    design.cells.push_back(row);
  }

  const std::uint64_t floor = std::max<std::uint32_t>(1, params.floor);
  if (params.budget < floor * design.cells.size()) {
    // Budget cannot fund the floor everywhere: keep the densest cells
    // (the ranking order) and drop the tail from the frame.
    const std::size_t keep = std::max<std::uint64_t>(
        1, params.budget / floor);
    if (keep < design.cells.size()) design.cells.resize(keep);
  }
  allocate(design.cells, params.budget, floor);

  for (const auto& row : design.cells) {
    design.total_draws += row.draws;
    design.frame_units += row.universe;
  }
  return design;
}

template <class Family>
SampleDesignT<Family> plan_sample(const core::DensityRankingT<Family>& ranking,
                                  const SampleParams& params) {
  core::DensityRankingViewT<Family> view;
  view.mode = ranking.mode;
  view.ranked = ranking.ranked;
  view.total_hosts = ranking.total_hosts;
  view.advertised_addresses = ranking.advertised_addresses;
  return plan_sample(view, params);
}

template SampleDesignT<net::Ipv4Family> plan_sample(
    const core::DensityRankingViewT<net::Ipv4Family>&, const SampleParams&);
template SampleDesignT<net::Ipv6Family> plan_sample(
    const core::DensityRankingViewT<net::Ipv6Family>&, const SampleParams&);
template SampleDesignT<net::Ipv4Family> plan_sample(
    const core::DensityRankingT<net::Ipv4Family>&, const SampleParams&);
template SampleDesignT<net::Ipv6Family> plan_sample(
    const core::DensityRankingT<net::Ipv6Family>&, const SampleParams&);

template <class Family>
SampledScopeT<Family>::SampledScopeT(SampleDesignT<Family> design)
    requires std::same_as<Family, net::Ipv4Family>
    : design_(std::move(design)) {
  targets_.reserve(static_cast<std::size_t>(design_.total_draws));
  cell_offsets_.reserve(design_.cells.size() + 1);
  cell_offsets_.push_back(0);
  std::vector<net::Interval> singletons;
  singletons.reserve(static_cast<std::size_t>(design_.total_draws));
  for (const auto& row : design_.cells) {
    if (row.draws > 0) {
      auto offsets = stratified_offsets(row.universe, row.draws,
                                        util::mix64(design_.seed, row.cell));
      std::sort(offsets.begin(), offsets.end());
      const std::uint32_t base = row.prefix.first().value();
      for (const std::uint64_t offset : offsets) {
        const net::Ipv4Address addr(
            base + static_cast<std::uint32_t>(offset));
        targets_.push_back(addr);
        singletons.push_back(net::Interval{addr, addr});
      }
    }
    cell_offsets_.push_back(targets_.size());
  }
  scope_ = ScanScope(net::IntervalSet(singletons));
}

template <class Family>
SampledScopeT<Family>::SampledScopeT(
    SampleDesignT<Family> design, std::span<const Address> candidates,
    const bgp::BasicPrefixPartition<Family>& partition)
    requires std::same_as<Family, net::Ipv6Family>
    : design_(std::move(design)) {
  // Attribute every candidate to its partition cell, then bucket the
  // candidate indices per design cell (in candidate order, so hitlist
  // ordering conventions survive).
  std::vector<std::uint32_t> located(candidates.size());
  if (!candidates.empty()) partition.locate_many(candidates, located);
  std::vector<std::size_t> row_of_cell(partition.size(),
                                       design_.cells.size());
  for (std::size_t i = 0; i < design_.cells.size(); ++i) {
    TASS_EXPECTS(design_.cells[i].cell < partition.size());
    row_of_cell[design_.cells[i].cell] = i;
  }
  std::vector<std::vector<std::uint32_t>> buckets(design_.cells.size());
  for (std::size_t i = 0; i < located.size(); ++i) {
    if (located[i] >= row_of_cell.size()) continue;  // unrouted
    const std::size_t row = row_of_cell[located[i]];
    if (row == design_.cells.size()) continue;  // cell not in the design
    buckets[row].push_back(static_cast<std::uint32_t>(i));
  }

  // Re-cap each cell against its real candidate list and draw.
  design_.total_draws = 0;
  design_.frame_units = 0;
  cell_offsets_.reserve(design_.cells.size() + 1);
  cell_offsets_.push_back(0);
  for (std::size_t i = 0; i < design_.cells.size(); ++i) {
    auto& row = design_.cells[i];
    row.universe = buckets[i].size();
    row.draws = std::min(row.draws, row.universe);
    if (row.draws > 0) {
      auto offsets = stratified_offsets(row.universe, row.draws,
                                        util::mix64(design_.seed, row.cell));
      std::sort(offsets.begin(), offsets.end());
      for (const std::uint64_t offset : offsets) {
        targets_.push_back(
            candidates[buckets[i][static_cast<std::size_t>(offset)]]);
      }
    }
    design_.total_draws += row.draws;
    design_.frame_units += row.universe;
    cell_offsets_.push_back(targets_.size());
  }
}

template <class Family>
SampleResult SampledScopeT<Family>::result_skeleton() const {
  SampleResult out;
  out.cells.reserve(design_.cells.size());
  for (const auto& row : design_.cells) {
    SampleCellResult cell;
    cell.cell = row.cell;
    cell.universe = row.universe;
    cell.draws = row.draws;
    cell.seed_hosts = row.seed_hosts;
    out.cells.push_back(cell);
  }
  out.probes_sent = design_.total_draws;
  out.frame_units = design_.frame_units;
  return out;
}

template <class Family>
SampleResult SampledScopeT<Family>::attribute(
    std::span<const std::uint32_t> cell_counts) const
    requires std::same_as<Family, net::Ipv4Family>
{
  SampleResult out = result_skeleton();
  for (auto& row : out.cells) {
    TASS_EXPECTS(row.cell < cell_counts.size());
    row.hits = cell_counts[row.cell];
    out.hits += row.hits;
  }
  return out;
}

template class SampledScopeT<net::Ipv4Family>;
template class SampledScopeT<net::Ipv6Family>;

}  // namespace tass::scan
