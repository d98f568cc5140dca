// The plan phase: the paper's loop from raw table bytes to a sealed,
// loaded and verified plan plus its scan against the next month, run
// back to back in a closed loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/ranking.hpp"
#include "world.hpp"

namespace perfbench {

struct PlanPhaseResult {
  std::vector<double> cycle_ms;  // one per cycle
  double probe_reduction = 0.0;  // advertised space / plan probes
  double host_coverage = 0.0;    // next-month hosts found / next-month hosts
  std::vector<std::byte> image;  // the sealed plan (identical every cycle)
};

/// Runs v4 (or v6) plan cycles for at least `seconds` and `min_cycles`.
/// The first cycle is refereed in depth; every later one must reproduce
/// its image bytes and scan counts exactly.
PlanPhaseResult run_plan_phase(const World& world, bool v6, const Sizes& sizes,
                               double seconds, std::size_t min_cycles,
                               Tracer* tracer, Referee& referee);

/// The paper's two figures for a plan: the advertised space over the
/// addresses the plan probes, and the share of the next month's hosts
/// the plan's scan finds.
struct PlanFigures {
  double probe_reduction = 0.0;
  double host_coverage = 0.0;
};

/// One unrefereed, untraced cycle: the sealed plan image and its
/// figures (set-up uses it to seal the images the serve phase loads,
/// and as the plan warm-up).
struct SealedPlan {
  std::vector<std::byte> image;
  PlanFigures figures;
};
SealedPlan seal_plan(const World& world, bool v6, const Sizes& sizes);

/// The figures of the v4 plan a ranking yields, selected, reduced and
/// scanned against the next month as a plan cycle does it.
PlanFigures plan_figures(const core::DensityRanking& ranking, const WorldV4& world,
                         const Sizes& sizes);

}  // namespace perfbench
