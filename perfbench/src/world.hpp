// The benchmark's inputs, all generated from the workload seed: the
// bench_common.hpp census world (v4 topology written out as pfx2as text,
// a seed month and the next month), a v6 RIB with seed and next-month
// hitlists, a churn trace over the v4 plan table, and the sealed images
// the serve phase loads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "bgp/rib_delta.hpp"
#include "census/series.hpp"
#include "census/topology.hpp"
#include "net/ipv6.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"

namespace perfbench {

using namespace tass;

/// Input sizes. The full sizes are what the benchmark measures; the tiny
/// sizes keep the smoke test to a few seconds. README.md gives the
/// source of each full size, or marks it as an assumption.
struct Sizes {
  std::size_t l_prefixes = 0;     // v4 census world l-prefixes
  double host_scale = 0.0;        // census host scale
  std::size_t v6_l_prefixes = 0;  // v6 RIB l-prefixes
  std::size_t churn_updates_per_step = 0;
  double pace_seconds = 0.0;      // paced replay: one churn step per pace
  std::size_t serve_batch = 0;    // addresses per v4 locate/tally request
  std::size_t serve_depth = 0;    // serve closed loop: requests in flight per connection
  std::size_t serve_ring = 0;     // distinct requests of each kind per connection
  double open_rate = 0.0;         // serve open loop: offered queries/s
  double phi = 0.0;               // selection host-coverage target
  double max_overshoot = 0.0;     // reduce budget
};
Sizes sizes_for(bool tiny);

struct WorldV4 {
  std::shared_ptr<const census::Topology> topology;
  std::unique_ptr<census::CensusSeries> series;  // month 0 = seed scan
  std::string pfx2as_text;                       // the raw table bytes
  std::unique_ptr<scan::SnapshotOracle> seed_oracle;
  std::unique_ptr<scan::SnapshotOracle> next_oracle;
  scan::Blocklist blocklist;
  std::vector<std::uint32_t> seed_hosts;  // ascending responsive addresses
  std::uint64_t next_hosts = 0;           // next month's responsive hosts
};

struct WorldV6 {
  std::string pfx2as6_text;
  std::string seed_hitlist_text;                // month 0 hitlist
  std::vector<net::Ipv6Address> next_candidates;  // month 1 target list
  std::vector<net::Ipv6Address> next_hosts;       // month 1, ascending
  std::vector<net::Ipv6Address> seed_hosts;       // month 0, as listed
  scan::Blocklist blocklist;
  /// Candidates the whole advertised space admits (the unplanned scan).
  std::uint64_t full_scope_candidates = 0;
};

/// One churn trace: reorigins and deaggregation splits, encoded as MRT
/// BGP4MP updates, one wire chunk per step. A prefix is touched at most
/// once per kCoolingSteps steps, so steps that fold into one reactor
/// batch never collapse an update of one step into another's. Traces of
/// one seed are prefixes of each other.
struct ChurnTrace {
  static constexpr std::size_t kCoolingSteps = 8;

  std::vector<bgp::Pfx2AsRecord> table;   // bootstrap table, ascending
  std::vector<std::uint32_t> counts;      // table-aligned seed counts
  std::vector<bgp::RibDelta> deltas;      // one per step
  std::vector<std::vector<std::byte>> wires;
  std::vector<std::uint64_t> step_updates;  // applied actions per step
  std::vector<bgp::Pfx2AsRecord> final_table;
  std::uint64_t updates_total = 0;
};

struct World {
  WorldV4 v4;
  WorldV6 v6;
  ChurnTrace burst;  // full-speed replays: a fixed kBurstSteps steps
  ChurnTrace paced;  // paced replay: as many steps as its time allows
};

/// Steps of the burst trace. Fixed, so the full-speed replay (and plan B,
/// sealed from its end state) do not depend on the run length.
inline constexpr std::size_t kBurstSteps = 200;

WorldV4 make_world_v4(std::uint64_t seed, const Sizes& sizes);
WorldV6 make_world_v6(std::uint64_t seed, const Sizes& sizes);
ChurnTrace make_churn_trace(const WorldV4& world, std::uint64_t seed,
                            std::size_t steps, std::size_t updates_per_step);

}  // namespace perfbench
