// The serve phase: an in-process serve::Server on loopback serving the
// sealed v4 plan (A), its next generation (B) and the v6 plan, driven by
// a closed loop (throughput) and an open loop at a fixed offered rate
// (latency from each request's due time), with A/B reloads and plan and
// reduce requests at a fixed cadence beside the reads. Every reply is
// checked bit for bit against a direct library call on the image whose
// fingerprint it names, after the load has stopped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "world.hpp"

namespace perfbench {

struct ServeImages {
  std::string path_a;  // v4 m-partition plan
  std::string path_b;  // v4 plan after the churn trace (another fingerprint)
  std::string path_6;  // v6 plan
};

struct ServePhaseResult {
  std::vector<double> window_qps;        // closed loop, per 100 ms window
  std::uint64_t closed_replies = 0;      // closed loop, all connections
  double closed_cpu_s = 0.0;             // process CPU time over the closed loop
  std::vector<double> open_latency_us;   // open loop, from due time, by k
  std::vector<double> generator_lag_us;  // open loop, send - due
  std::vector<double> locate_us, tally_us;  // open loop round trips
  std::vector<double> plan_us, reduce_us;   // control connection
  std::vector<double> swap_us, install_us, drain_us;
  std::uint64_t server_requests = 0;     // kStats, whole phase
  std::string page_backing;              // of the loaded plan image
  /// v4 locate batches as sent (for the direct kernel timings).
  std::vector<std::vector<std::uint32_t>> v4_batches;
};

ServePhaseResult run_serve_phase(const ServeImages& images,
                                 const Sizes& sizes, const Budget& budget,
                                 std::uint64_t seed, double seconds,
                                 Tracer* tracer, Referee& referee);

}  // namespace perfbench
