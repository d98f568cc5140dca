// Simulated scan engine.
//
// Plays the role of ZMap + application-layer follow-up (zgrab) in the
// paper's methodology: it walks a scan scope, asks a ProbeOracle (the
// ground-truth census snapshot) how many targets respond, and accounts
// for probes and hits. Probe order never changes which hosts a cycle
// finds, and step 1 of the paper and its whole evaluation need only
// counts, so no walk builds a hit list.
//
// run() counts one cycle: probes are the scope's size and hits are one
// oracle count per scope interval, on the calling thread.
//
// run_attributed() counts per cell: it merge-walks the scope's intervals
// against the partition's live cells in address order and asks the
// oracle to count each cell-and-interval piece. That is
// O(intervals * log cells + pieces) count queries on the calling thread,
// whatever the number of hits.
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
/// must be cheap.
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;

  /// Number of responsive addresses in the inclusive interval.
  virtual std::uint64_t count_responsive(net::Interval interval) const = 0;
};

/// Oracle backed by a census ground-truth snapshot. Builds a
/// census::SnapshotIndex rank directory once, so each interval query is
/// two directory-bounded binary searches.
class SnapshotOracle final : public ProbeOracle {
 public:
  explicit SnapshotOracle(const census::Snapshot& snapshot)
      : index_(snapshot) {}

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
};

/// A scan cycle plus per-cell attribution of its hits (paper §3.1 step 1).
struct AttributedScanResult {
  ScanResult result;
  std::vector<std::uint32_t> cell_counts;  // responsive per partition cell
  std::uint64_t attributed = 0;            // hits inside the partition
  std::uint64_t unattributed = 0;          // hits outside (unrouted space)
};

struct EngineConfig {
  /// No effect; removed by the benchmark-declared cleanup (ROADMAP
  /// item 6).
  enum class Order { kEnumerate };
  Order order = Order::kEnumerate;

  /// No effect; removed by the benchmark-declared cleanup (ROADMAP
  /// item 6).
  unsigned threads = 1;
};

class ScanEngine {
 public:
  explicit ScanEngine(EngineConfig /*config*/ = {}) {}

  /// Simulates one scan cycle over the scope: probes sent and hits.
  ScanResult run(const ScanScope& scope, const ProbeOracle& oracle) const;

  /// Counts one scan cycle's hits per cell of `partition`: run()'s
  /// stats plus the attribution core::attribute() would give for the
  /// scope's responsive addresses.
  AttributedScanResult run_attributed(const ScanScope& scope,
                                      const ProbeOracle& oracle,
                                      const bgp::PrefixPartition& partition)
      const;
};

}  // namespace tass::scan
