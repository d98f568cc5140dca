// The stream phase: a StreamReactor bootstrapped from the v4 plan table,
// with a rescanner and a GenerationStore publisher, replaying the churn
// trace at full speed (throughput) and paced in an open loop (latency
// from each update's due time to the publication of a plan holding it).
// Every replay is checked against a batch shadow of the same trace.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/partition.hpp"
#include "common.hpp"
#include "core/ranking.hpp"
#include "world.hpp"

namespace perfbench {

struct StreamPhaseResult {
  std::vector<double> updates_per_s;    // one per full-speed replay
  std::vector<double> plan_latency_ms;  // paced, one per update, in order
  std::vector<double> install_us;       // publisher install + retire
  std::vector<double> batches, plans_published, coalesce_ratio;  // per replay
  std::uint64_t decode_errors = 0;      // all replays; the referee wants 0
  std::uint64_t rejected_overlaps = 0;  // all replays; the referee wants 0
};

/// The batch path over a churn trace — apply_delta, then churn_step,
/// per step — which every streamed replay of that trace must match. With
/// a tracer, each step's layers carry spans (and the step's plan is
/// encoded, as the reactor does per publish).
struct StreamShadow {
  bgp::PrefixPartition partition;
  std::vector<std::uint32_t> counts;
  core::DensityRanking ranking;
  std::vector<net::Prefix> live_sorted;
};
StreamShadow batch_shadow(const ChurnTrace& trace, const scan::ProbeOracle& oracle,
                          Tracer* tracer);

/// Full-speed replays of the burst trace for half of `seconds`, then one
/// paced replay of the paced trace (one step per pace interval), each
/// refereed against its trace's shadow.
StreamPhaseResult run_stream_phase(const World& world, const StreamShadow& burst_shadow,
                                   const StreamShadow& paced_shadow, const Sizes& sizes,
                                   double seconds, Referee& referee);

/// The synchronous API on the calling thread, one feed + flush per step,
/// so framing and batch work carry their own spans.
void traced_sync_replay(const ChurnTrace& trace, const scan::ProbeOracle& oracle,
                        Tracer* tracer);

}  // namespace perfbench
