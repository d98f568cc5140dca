// Attribution of raw scan results to prefix partitions.
//
// A real deployment does not get per-cell counts for free: a scan returns
// a bag of responsive addresses, which must be attributed to the l- or
// m-partition before density ranking (paper §3.1 step 1:
// "Count the number of responsive addresses c_i in each responsive
// prefix i"). This module provides that bridge, so the pipeline
//   scan -> attribute -> rank -> select
// works from address lists exactly as it does from census snapshots.
//
// Attribution is embarrassingly parallel: the address list is cut into
// deterministic shards, each shard fills its own per-cell count vector,
// and the vectors are summed — integer sums are associative, so the
// result is identical for any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/partition.hpp"
#include "core/ranking.hpp"

namespace tass::core {

/// Result of attributing addresses onto a partition.
struct Attribution {
  std::vector<std::uint32_t> counts;   // per partition cell
  std::uint64_t attributed = 0;        // addresses inside the partition
  std::uint64_t unattributed = 0;      // addresses outside (unrouted)
};

/// Parallelism knobs for attribute(); the defaults use the process-wide
/// pool once the workload is big enough to pay for the fan-out.
struct AttributionConfig {
  /// 1 = calling thread only; 0 = process-wide pool; N = dedicated pool.
  unsigned threads = 0;
  /// Minimum addresses per shard (shard boundaries depend only on the
  /// input size, so results are thread-count invariant).
  std::uint64_t min_addresses_per_shard = 1ULL << 15;
};

/// Counts responsive addresses per partition cell. Addresses outside the
/// partition (e.g. responses from space that was withdrawn after the scan
/// started) are tallied as unattributed rather than dropped silently.
Attribution attribute(std::span<const std::uint32_t> addresses,
                      const bgp::PrefixPartition& partition,
                      const AttributionConfig& config = {});

}  // namespace tass::core
