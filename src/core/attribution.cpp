#include "core/attribution.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace tass::core {

namespace {

// Sequential kernel shared by the one-thread path and each shard: the
// partition's blocked locate_many + tally kernel.
void attribute_range(std::span<const std::uint32_t> addresses,
                     const bgp::PrefixPartition& partition,
                     Attribution& out) {
  partition.tally_cells(addresses, out.counts, out.attributed,
                        out.unattributed);
}

}  // namespace

Attribution attribute(std::span<const std::uint32_t> addresses,
                      const bgp::PrefixPartition& partition,
                      const AttributionConfig& config) {
  Attribution result;
  result.counts.assign(partition.size(), 0);

  // Each shard owns a dense per-cell count vector, and the merge costs
  // O(shards * cells); shard_count_for_slots caps the fan-out so the slot
  // arrays stay within a fixed memory budget however large the partition
  // is, keeping results thread-count invariant.
  const std::size_t shards = util::shard_count_for_slots(
      addresses.size(), config.min_addresses_per_shard, partition.size(),
      sizeof(std::uint32_t));
  if (config.threads == 1 || shards == 1) {
    attribute_range(addresses, partition, result);
    return result;
  }

  std::vector<Attribution> slots(shards);
  util::run_chunks(config.threads, 0, addresses.size(), shards,
                   [&](std::size_t shard, std::uint64_t lo,
                       std::uint64_t hi) {
                     // First-touch NUMA placement: allocate the shard's
                     // count vector on the worker that fills it.
                     slots[shard].counts.assign(partition.size(), 0);
                     attribute_range(
                         addresses.subspan(static_cast<std::size_t>(lo),
                                           static_cast<std::size_t>(hi - lo)),
                         partition, slots[shard]);
                   });

  for (const Attribution& slot : slots) {
    result.attributed += slot.attributed;
    result.unattributed += slot.unattributed;
    if (slot.counts.empty()) continue;  // shard never ran (empty chunk)
    for (std::size_t i = 0; i < result.counts.size(); ++i) {
      result.counts[i] += slot.counts[i];
    }
  }
  return result;
}

}  // namespace tass::core
