// Micro-benchmarks for the substrate hot paths (google-benchmark):
// longest-prefix match (LpmIndex build, scalar and batched lookup),
// deaggregation, interval-set algebra, density ranking and selection, snapshot
// membership and the rank-directory index behind the batched oracle, v6
// candidate admission, and the text ingest (hitlist and pfx2as parsing) —
// the operations every TASS scan cycle is built from.
//
// For machine-readable output (BENCH tracking), run with
//   micro_substrates --benchmark_format=json
// or see bench/micro_lpm.cpp for the standalone full-RIB-scale LPM
// bench that always emits JSON.
#include <benchmark/benchmark.h>

#include <string>

#include "bgp/deaggregate.hpp"
#include "bgp/pfx2as.hpp"
#include "census/hitlist6.hpp"
#include "census/population.hpp"
#include "census/snapshot_index.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "net/interval.hpp"
#include "net/ipv6.hpp"
#include "net/prefix.hpp"
#include "scan/blocklist.hpp"
#include "scan/scope.hpp"
#include "trie/lpm_index.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tass;

std::shared_ptr<const census::Topology> shared_topology() {
  static const auto topology = [] {
    census::TopologyParams params;
    params.seed = 2016;
    params.l_prefix_count = 2000;
    return census::generate_topology(params);
  }();
  return topology;
}

const census::Snapshot& shared_snapshot() {
  static const census::Snapshot snapshot = [] {
    census::PopulationParams params;
    params.host_scale = 0.005;
    return census::generate_population(
        shared_topology(),
        census::protocol_profile(census::Protocol::kHttp), params);
  }();
  return snapshot;
}

void BM_LpmIndexBuild(benchmark::State& state) {
  const auto topology = shared_topology();
  const auto prefixes = topology->m_partition.prefixes();
  for (auto _ : state) {
    const trie::LpmIndex index = trie::LpmIndex::from_prefixes(prefixes);
    benchmark::DoNotOptimize(index.prefix_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(prefixes.size()));
}
BENCHMARK(BM_LpmIndexBuild);

const trie::LpmIndex& shared_lpm_index() {
  static const trie::LpmIndex index = trie::LpmIndex::from_prefixes(
      shared_topology()->m_partition.prefixes());
  return index;
}

void BM_LpmIndexLookup(benchmark::State& state) {
  const auto& index = shared_lpm_index();
  util::Rng rng(1);
  for (auto _ : state) {
    const net::Ipv4Address addr(
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
    benchmark::DoNotOptimize(index.lookup(addr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LpmIndexLookup);

void BM_LpmIndexLookupMany(benchmark::State& state) {
  // The per-shard batched path of the scan pipeline.
  const auto& index = shared_lpm_index();
  util::Rng rng(1);
  std::vector<std::uint32_t> addresses(4096);
  for (auto& a : addresses) {
    a = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
  }
  std::vector<std::uint32_t> out(addresses.size());
  for (auto _ : state) {
    index.lookup_many(addresses, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addresses.size()));
}
BENCHMARK(BM_LpmIndexLookupMany);

void BM_PartitionLocate(benchmark::State& state) {
  const auto topology = shared_topology();
  util::Rng rng(2);
  for (auto _ : state) {
    const net::Ipv4Address addr(
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
    benchmark::DoNotOptimize(topology->m_partition.locate(addr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionLocate);

void BM_Deaggregate(benchmark::State& state) {
  const net::Prefix covering = net::Prefix::parse_or_throw("10.0.0.0/8");
  util::Rng rng(3);
  std::vector<net::Prefix> inside;
  for (int i = 0; i < 32; ++i) {
    const int len = 10 + static_cast<int>(rng.bounded(12));
    const std::uint32_t offset = static_cast<std::uint32_t>(
        rng.bounded(1ULL << (len - 8)) << (32 - len));
    inside.emplace_back(
        net::Ipv4Address(covering.network().value() | offset), len);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::deaggregate(covering, inside));
  }
}
BENCHMARK(BM_Deaggregate);

void BM_IntervalSetInsert(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<net::Interval> intervals;
  for (int i = 0; i < 4096; ++i) {
    const auto lo =
        static_cast<std::uint32_t>(rng.bounded((1ULL << 32) - 4096));
    intervals.push_back({net::Ipv4Address(lo),
                         net::Ipv4Address(lo + static_cast<std::uint32_t>(
                                                   rng.bounded(4096)))});
  }
  for (auto _ : state) {
    net::IntervalSet set;
    for (const net::Interval& interval : intervals) set.insert(interval);
    benchmark::DoNotOptimize(set.address_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(intervals.size()));
}
BENCHMARK(BM_IntervalSetInsert);

void BM_RankByDensity(benchmark::State& state) {
  const auto& snapshot = shared_snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::rank_by_density(snapshot, core::PrefixMode::kMore));
  }
}
BENCHMARK(BM_RankByDensity);

void BM_SelectByDensity(benchmark::State& state) {
  const auto ranking =
      core::rank_by_density(shared_snapshot(), core::PrefixMode::kMore);
  core::SelectionParams params;
  params.phi = 0.95;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_by_density(ranking, params));
  }
}
BENCHMARK(BM_SelectByDensity);

void BM_SnapshotContains(benchmark::State& state) {
  const auto& snapshot = shared_snapshot();
  util::Rng rng(5);
  for (auto _ : state) {
    const net::Ipv4Address addr(
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
    benchmark::DoNotOptimize(snapshot.contains(addr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotContains);

const census::SnapshotIndex& shared_index() {
  static const census::SnapshotIndex index(shared_snapshot());
  return index;
}

void BM_SnapshotIndexContains(benchmark::State& state) {
  const auto& index = shared_index();
  util::Rng rng(6);
  for (auto _ : state) {
    const net::Ipv4Address addr(
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
    benchmark::DoNotOptimize(index.contains(addr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotIndexContains);

void BM_SnapshotIndexCountPerCell(benchmark::State& state) {
  // The batched oracle question the enumerate path asks: hosts per
  // m-cell, answered by two directory-bounded binary searches.
  const auto topology = shared_topology();
  const auto& index = shared_index();
  std::uint64_t addresses = 0;
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::uint32_t cell = 0; cell < topology->m_partition.size();
         ++cell) {
      const net::Interval interval =
          net::Interval::of(topology->m_partition.prefix(cell));
      total += index.count_responsive(interval);
      addresses += interval.size();
    }
    benchmark::DoNotOptimize(total);
  }
  // Throughput in addresses covered, comparable to per-address probing.
  state.SetItemsProcessed(static_cast<std::int64_t>(addresses));
}
BENCHMARK(BM_SnapshotIndexCountPerCell);

void BM_ThreadPoolForEachShard(benchmark::State& state) {
  // Dispatch overhead of one parallel region (empty shards).
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    pool.for_each_shard(64, [](std::size_t shard) {
      benchmark::DoNotOptimize(shard);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(BM_ThreadPoolForEachShard)->Arg(1)->Arg(4);

// v6 candidate admission: a shuffled target list over a scope of a few
// thousand selected prefixes, shaped like a v6 plan (/32-/40 allocations
// under one /16, hosts in random /64s, blocked /48 holes).
struct Scope6World {
  scan::ScanScope6 scope;
  std::vector<net::Ipv6Address> candidates;
};

const Scope6World& scope6_world() {
  static const Scope6World world = [] {
    constexpr std::uint64_t kSlots = 6000;
    util::Rng rng(66);
    std::vector<net::Ipv6Prefix> selected;
    scan::Blocklist blocklist;
    for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
      if (!rng.chance(0.5)) continue;
      const net::Ipv6Address network((0x2a00ULL << 48) | (slot << 32), 0);
      selected.emplace_back(network, 32 + 4 * static_cast<int>(rng.bounded(3)));
      if (rng.chance(0.05)) {
        blocklist.add(net::Ipv6Prefix(
            net::Ipv6Address(network.hi() | (rng() & 0xffff0000ULL), 0), 48));
      }
    }
    Scope6World out{scan::ScanScope6(selected, blocklist), {}};
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t hi = (0x2a00ULL << 48) | (rng.bounded(kSlots) << 32) |
                               (rng() & 0xffffffffULL);
      out.candidates.emplace_back(hi, rng.chance(0.5) ? 1 : rng() | 0x100);
    }
    return out;
  }();
  return world;
}

void BM_ScanScope6AddCandidates(benchmark::State& state) {
  const Scope6World& world = scope6_world();
  for (auto _ : state) {
    scan::ScanScope6 scope = world.scope;
    benchmark::DoNotOptimize(scope.add_candidates(world.candidates));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(world.candidates.size()));
}
BENCHMARK(BM_ScanScope6AddCandidates);

// Text ingest: fixed-size generated documents, so a regression in the
// line/field scans or the address parsers shows here on its own.
constexpr std::size_t kIngestLines = 50000;

const std::string& hitlist6_document() {
  static const std::string text = [] {
    util::Rng rng(6);
    std::string out = "# generated hitlist\n";
    for (std::size_t i = 0; i < kIngestLines; ++i) {
      // Hosts under a few hundred /32s with sparse interface ids, the
      // shape real hitlists have (and so "::" runs of mixed lengths).
      const std::uint64_t hi = (0x20010000ULL | rng.bounded(512)) << 32 |
                               rng.bounded(1ULL << 32);
      const std::uint64_t lo = rng.bounded(2) == 0 ? rng.bounded(0x10000)
                                                   : rng();
      out += net::Ipv6Address(hi, lo).to_string();
      out += '\n';
    }
    return out;
  }();
  return text;
}

const std::string& pfx2as_document() {
  static const std::string text = [] {
    util::Rng rng(4);
    std::string out = "# generated pfx2as\n";
    for (std::size_t i = 0; i < kIngestLines; ++i) {
      const int length = 8 + static_cast<int>(rng.bounded(17));
      const net::Prefix prefix(
          net::Ipv4Address(static_cast<std::uint32_t>(rng())), length);
      out += prefix.network().to_string();
      out += '\t';
      out += std::to_string(length);
      out += '\t';
      out += std::to_string(1 + rng.bounded(65000));
      // A few multi-origin and AS-set fields, as in CAIDA dumps.
      for (const char separator : {',', '_'}) {
        if (rng.bounded(20) != 0) continue;
        out += separator;
        out += std::to_string(rng.bounded(65000));
      }
      out += '\n';
    }
    return out;
  }();
  return text;
}

void BM_ParseHitlist6(benchmark::State& state) {
  const std::string& text = hitlist6_document();
  for (auto _ : state) {
    benchmark::DoNotOptimize(census::parse_hitlist6(text).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kIngestLines));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseHitlist6);

void BM_ParsePfx2As(benchmark::State& state) {
  const std::string& text = pfx2as_document();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::parse_pfx2as(text).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kIngestLines));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParsePfx2As);

}  // namespace
