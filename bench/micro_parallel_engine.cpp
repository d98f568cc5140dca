// Micro-benchmarks for the batched scan pipeline (google-benchmark): the
// counting scan walk over the census::SnapshotIndex oracle (one
// rank-directory count per scope interval: two /16-bounded binary
// searches), the index build, and the attribution and evaluation stages
// sharded over an N-thread util::ThreadPool. Throughput is reported in
// probes (addresses) per second.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "census/population.hpp"
#include "census/series.hpp"
#include "census/snapshot_index.hpp"
#include "census/topology.hpp"
#include "core/attribution.hpp"
#include "core/evaluate.hpp"
#include "core/strategies.hpp"
#include "scan/engine.hpp"

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

// A scope of every other m-cell. Cells are in address order, so no two
// picks are adjacent and each stays its own interval: the count walk pays
// its per-interval cost once per picked cell (~2.4k here). The first
// cells of this topology are /11s, so a cap of a few million addresses
// would leave only a handful of intervals to time.
const scan::ScanScope& shared_scope() {
  static const scan::ScanScope scope = [] {
    const auto topology = shared_topology();
    std::vector<net::Prefix> cells;
    for (std::uint32_t cell = 0; cell < topology->m_partition.size();
         cell += 2) {
      cells.push_back(topology->m_partition.prefix(cell));
    }
    return scan::ScanScope(cells, scan::Blocklist{});
  }();
  return scope;
}

void report_probes(benchmark::State& state, std::uint64_t probes_per_iter) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes_per_iter));
}

void BM_ScanCount(benchmark::State& state) {
  const auto& scope = shared_scope();
  const scan::SnapshotOracle oracle(shared_snapshot());
  const scan::ScanEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(scope, oracle));
  }
  report_probes(state, scope.address_count());
}
BENCHMARK(BM_ScanCount)->Unit(benchmark::kMicrosecond);

void BM_SnapshotIndexBuild(benchmark::State& state) {
  const auto& snapshot = shared_snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(census::SnapshotIndex(snapshot));
  }
  report_probes(state, snapshot.total_hosts());
}
BENCHMARK(BM_SnapshotIndexBuild)->Unit(benchmark::kMillisecond);

void BM_AttributeSharded(benchmark::State& state) {
  const auto topology = shared_topology();
  const auto addresses = shared_snapshot().addresses();
  core::AttributionConfig config;
  config.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::attribute(addresses, topology->m_partition, config));
  }
  report_probes(state, addresses.size());
}
BENCHMARK(BM_AttributeSharded)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EvaluateCycles(benchmark::State& state) {
  static const census::CensusSeries series = [] {
    census::SeriesParams params;
    params.months = 7;
    params.host_scale = 0.002;
    params.seed = 2017;
    return census::CensusSeries::generate(
        shared_topology(), census::Protocol::kHttp, params);
  }();
  core::SelectionParams selection;
  selection.phi = 0.95;
  const core::TassStrategy strategy(series.month(0),
                                    core::PrefixMode::kMore, selection);
  core::EvaluationConfig config;
  config.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(strategy, series, config));
  }
}
BENCHMARK(BM_EvaluateCycles)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
