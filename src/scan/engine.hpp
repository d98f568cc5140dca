// Simulated scan engine.
//
// Plays the role of ZMap + application-layer follow-up (zgrab) in the
// paper's methodology: it walks a scan scope, asks a ProbeOracle (the
// ground-truth census snapshot) whether each target responds, and accounts
// for probes, hits and packets. Two target orders are provided:
//
//   * kPermutation — the ZMap multiplicative-group permutation sized to
//     the scope (faithful probe ordering: spreads load across networks);
//     one modular multiplication + indexer lookup per probe. Always
//     sequential, so the probe order stays exactly the ZMap cycle.
//   * kEnumerate — walks the scope's intervals in address order through
//     the oracle's *batched* interval API; same results, cheapest per
//     probe. The default above a scope-size threshold where probe order
//     does not matter for simulation.
//
// The enumerate path is sharded: the scope is cut into address chunks
// whose boundaries depend only on the scope (never on the thread count),
// each shard accumulates into its own ScanResult slot, and the slots are
// merged in shard order — so the ScanResult is bit-identical for 1 thread
// and N threads. Oracles must be const-thread-safe when threads != 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/partition.hpp"
#include "census/protocol.hpp"
#include "census/snapshot.hpp"
#include "census/snapshot_index.hpp"
#include "net/interval.hpp"
#include "net/ipv4.hpp"
#include "scan/scope.hpp"

namespace tass::scan {

/// Answers probe simulations. The engine prefers the batched interval
/// queries on its hot path; the per-address defaults below keep simple
/// oracles (one virtual call per probe) working unchanged. Implementations
/// must be cheap, and const-thread-safe if the engine runs multi-threaded.
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;
  virtual bool responds(net::Ipv4Address addr) const = 0;

  /// Number of responsive addresses in the inclusive interval. Default:
  /// one responds() call per address.
  virtual std::uint64_t count_responsive(net::Interval interval) const;

  /// Appends the responsive addresses of the inclusive interval to `out`
  /// in ascending order. Default: one responds() call per address.
  virtual void collect_responsive(net::Interval interval,
                                  std::vector<std::uint32_t>& out) const;
};

/// Oracle backed by a census ground-truth snapshot. Builds a
/// census::SnapshotIndex rank directory once so batched interval queries
/// are two directory-bounded binary searches (plus one range copy for
/// collect) instead of per-address membership probes.
class SnapshotOracle final : public ProbeOracle {
 public:
  explicit SnapshotOracle(const census::Snapshot& snapshot)
      : index_(snapshot) {}

  bool responds(net::Ipv4Address addr) const override {
    return index_.contains(addr);
  }
  std::uint64_t count_responsive(net::Interval interval) const override {
    return index_.count_responsive(interval);
  }
  void collect_responsive(net::Interval interval,
                          std::vector<std::uint32_t>& out) const override {
    index_.collect_responsive(interval, out);
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
  double packets = 0.0;

  /// Fraction of probed addresses that answered (the paper's headline
  /// "hitrates are very often under two percent").
  double hitrate() const noexcept {
    return probes_sent == 0
               ? 0.0
               : static_cast<double>(responses) /
                     static_cast<double>(probes_sent);
  }

  /// Estimated wall-clock seconds at a given probe rate.
  double duration_seconds(double probes_per_second) const noexcept {
    return probes_per_second <= 0.0
               ? 0.0
               : static_cast<double>(probes_sent) / probes_per_second;
  }
};

struct ScanResult {
  ScanStats stats;
  std::vector<std::uint32_t> responsive;  // ascending addresses
};

/// A scan cycle fused with per-cell attribution of the hits (paper §3.1
/// step 1 without a separate pass over the result list).
struct AttributedScanResult {
  ScanResult result;
  std::vector<std::uint64_t> cell_counts;  // responsive per partition cell
  std::uint64_t attributed = 0;            // hits inside the partition
  std::uint64_t unattributed = 0;          // hits outside (unrouted space)
};

struct EngineConfig {
  enum class Order { kAuto, kPermutation, kEnumerate };
  Order order = Order::kAuto;
  std::uint64_t seed = 1;
  /// kAuto switches to kEnumerate above this scope size (the permutation
  /// always pays one group step per address of the full space).
  std::uint64_t permutation_threshold = 1ULL << 22;
  CostModel cost;

  /// Enumerate-path parallelism: 1 runs on the calling thread only (safe
  /// for oracles with mutable per-probe state, e.g. probe counters);
  /// 0 uses the process-wide pool sized to the hardware; N > 1 runs on a
  /// dedicated pool of N threads. Results are identical for every value.
  unsigned threads = 1;

  /// Sharding grain for the enumerate path. Shard boundaries depend only
  /// on the scope and this value — never on `threads` — which is what
  /// keeps parallel results bit-identical to sequential ones.
  std::uint64_t min_addresses_per_shard = 1ULL << 16;
};

class ScanEngine {
 public:
  explicit ScanEngine(EngineConfig config = {}) : config_(config) {}

  /// Simulates one scan cycle over the scope.
  ScanResult run(const ScanScope& scope, const ProbeOracle& oracle) const;

  /// One enumerated scan cycle plus attribution: each shard resolves its
  /// freshly collected hits against `partition` through the batched
  /// LpmIndex path while the block is still cache-hot, so no second pass
  /// over the responsive list is needed. Identical responsive list and
  /// stats to run() on the enumerate path, and cell_counts identical to
  /// attributing the result afterwards — for any thread count.
  AttributedScanResult run_attributed(const ScanScope& scope,
                                      const ProbeOracle& oracle,
                                      const bgp::PrefixPartition& partition)
      const;

  /// Probe/hit/packet accounting for one cycle without materialising the
  /// responsive-address list: pure count_responsive() sums over the scope
  /// (sharded like the enumerate path). Same stats as run(), cheaper when
  /// only the totals matter (planning, capacity estimates).
  ScanStats estimate(const ScanScope& scope, const ProbeOracle& oracle) const;

  const EngineConfig& config() const noexcept { return config_; }

 private:
  ScanResult run_permutation(const ScanScope& scope,
                             const ProbeOracle& oracle) const;
  ScanResult run_enumerated(const ScanScope& scope,
                            const ProbeOracle& oracle) const;

  EngineConfig config_;
};

}  // namespace tass::scan
