// Simulated scan engine.
//
// Plays the role of ZMap + application-layer follow-up (zgrab) in the
// paper's methodology: it walks a scan scope, asks a ProbeOracle (the
// ground-truth census snapshot) which targets respond, and accounts for
// probes and hits. Probe order never changes which hosts a cycle finds,
// so there is one walk: the scope's intervals in address order, handed
// to the oracle's batched interval query.
//
// The walk is sharded: the scope is cut into address chunks whose
// boundaries depend only on the scope (never on the thread count), each
// shard counts its hits, reserves that many slots and collects into its
// own slot, and the slots are concatenated in shard order — so the
// ScanResult is bit-identical for 1 thread and N threads. Oracles must
// be const-thread-safe when threads != 1.
//
// run_attributed() never builds the hit list: step 1 of the paper needs
// only c_i per cell, so it merge-walks the scope's intervals against the
// partition's live cells in address order and asks the oracle to count
// each cell-and-interval piece. That is O(intervals * log cells + pieces)
// count queries on the calling thread, whatever the number of hits.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/partition.hpp"
#include "census/protocol.hpp"
#include "census/snapshot.hpp"
#include "census/snapshot_index.hpp"
#include "net/interval.hpp"
#include "scan/scope.hpp"

namespace tass::scan {

/// Answers probe simulations one interval at a time. Implementations
/// must be cheap, and const-thread-safe if the engine runs
/// multi-threaded.
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;

  /// Appends the responsive addresses of the inclusive interval to `out`
  /// in ascending order.
  virtual void collect_responsive(net::Interval interval,
                                  std::vector<std::uint32_t>& out) const = 0;

  /// Number of responsive addresses in the inclusive interval: the size
  /// collect_responsive() would append.
  virtual std::uint64_t count_responsive(net::Interval interval) const = 0;
};

/// Oracle backed by a census ground-truth snapshot. Builds a
/// census::SnapshotIndex rank directory once, so each interval query is
/// two directory-bounded binary searches, plus one range copy to collect.
class SnapshotOracle final : public ProbeOracle {
 public:
  explicit SnapshotOracle(const census::Snapshot& snapshot)
      : index_(snapshot) {}

  void collect_responsive(net::Interval interval,
                          std::vector<std::uint32_t>& out) const override {
    index_.collect_responsive(interval, out);
  }

  std::uint64_t count_responsive(net::Interval interval) const override {
    return index_.count_responsive(interval);
  }

 private:
  census::SnapshotIndex index_;
};

/// Packet accounting for one scan cycle. Defaults model a SYN scan with
/// one retry budget amortised (ZMap sends 1 probe/target by default) and a
/// protocol-dependent handshake on success.
struct CostModel {
  double probe_packets_per_target = 1.0;
  double handshake_packets_per_hit = 6.0;

  double packets(std::uint64_t probes, std::uint64_t hits) const noexcept {
    return probe_packets_per_target * static_cast<double>(probes) +
           handshake_packets_per_hit * static_cast<double>(hits);
  }

  static CostModel for_protocol(census::Protocol protocol) noexcept {
    return CostModel{
        1.0, census::protocol_profile(protocol).handshake_packets};
  }
};

struct ScanStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t responses = 0;

  /// Fraction of probed addresses that answered (the paper's headline
  /// "hitrates are very often under two percent").
  double hitrate() const noexcept {
    return probes_sent == 0
               ? 0.0
               : static_cast<double>(responses) /
                     static_cast<double>(probes_sent);
  }
};

struct ScanResult {
  ScanStats stats;
  std::vector<std::uint32_t> responsive;  // ascending addresses
};

/// A scan cycle plus per-cell attribution of its hits (paper §3.1 step 1).
struct AttributedScanResult {
  ScanResult result;  // stats only: `responsive` is always empty
  std::vector<std::uint32_t> cell_counts;  // responsive per partition cell
  std::uint64_t attributed = 0;            // hits inside the partition
  std::uint64_t unattributed = 0;          // hits outside (unrouted space)
};

struct EngineConfig {
  /// The only probe order: the scope's intervals in address order.
  enum class Order { kEnumerate };
  Order order = Order::kEnumerate;

  /// 1 runs on the calling thread only; 0 uses the process-wide pool
  /// sized to the hardware; N > 1 runs on a dedicated pool of N threads.
  /// Results are identical for every value.
  unsigned threads = 1;

  /// Sharding grain. Shard boundaries depend only on the scope and this
  /// value — never on `threads` — which is what keeps parallel results
  /// bit-identical to sequential ones.
  std::uint64_t min_addresses_per_shard = 1ULL << 16;
};

class ScanEngine {
 public:
  explicit ScanEngine(EngineConfig config = {}) : config_(config) {}

  /// Simulates one scan cycle over the scope.
  ScanResult run(const ScanScope& scope, const ProbeOracle& oracle) const;

  /// Counts one scan cycle's hits per cell of `partition` without
  /// collecting them: the stats and attribution run() + core::attribute()
  /// would give, computed on the calling thread for every `threads`.
  AttributedScanResult run_attributed(const ScanScope& scope,
                                      const ProbeOracle& oracle,
                                      const bgp::PrefixPartition& partition)
      const;

  const EngineConfig& config() const noexcept { return config_; }

 private:
  EngineConfig config_;
};

}  // namespace tass::scan
