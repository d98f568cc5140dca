#include "plan.hpp"

#include <algorithm>
#include <optional>

#include "bgp/partition.hpp"
#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "bgp/table6.hpp"
#include "census/hitlist6.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "net/interval.hpp"
#include "scan/scope.hpp"
#include "scan/scope6.hpp"
#include "state/image.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

scan::ScanEngine single_thread_engine() {
  scan::EngineConfig config;
  config.threads = 1;
  config.order = scan::EngineConfig::Order::kEnumerate;
  return scan::ScanEngine(config);
}

/// Everything one cycle produced, kept for the referee.
template <class Family>
struct Cycle {
  std::vector<std::byte> image;
  core::SelectionT<Family> selection;
  bgp::BasicReduceResult<Family> reduced;
  std::uint64_t seed_probes = 0;
  std::uint64_t seed_hits = 0;
  std::uint64_t plan_probes = 0;
  std::uint64_t plan_hits = 0;
  double probe_reduction = 0.0;
  double host_coverage = 0.0;
  double ms = 0.0;
};

struct CycleV4 : Cycle<net::Ipv4Family> {
  scan::ScanScope plan_scope;
};

struct CycleV6 : Cycle<net::Ipv6Family> {
  scan::ScanScope6 plan_scope;
};

void count_stage_sizes(Tracer* tracer, std::size_t routes, std::size_t cells) {
  trace_count(tracer, "bgp.routes", static_cast<double>(routes));
  trace_count(tracer, "bgp.cells", static_cast<double>(cells));
}

template <class Family>
void count_plan_outcome(Tracer* tracer, const Cycle<Family>& cycle) {
  trace_count(tracer, "scan.seed_probes", static_cast<double>(cycle.seed_probes));
  trace_count(tracer, "scan.seed_hit_ratio",
              cycle.seed_probes == 0 ? 0.0
                                     : static_cast<double>(cycle.seed_hits) /
                                           static_cast<double>(cycle.seed_probes));
  trace_count(tracer, "scan.plan_probes", static_cast<double>(cycle.plan_probes));
  trace_count(tracer, "scan.plan_hit_ratio",
              cycle.plan_probes == 0 ? 0.0
                                     : static_cast<double>(cycle.plan_hits) /
                                           static_cast<double>(cycle.plan_probes));
  trace_count(tracer, "bgp.reduce_ratio", cycle.reduced.reduction_ratio());
  trace_count(tracer, "state.image_bytes", static_cast<double>(cycle.image.size()));
}

CycleV4 cycle_v4(const WorldV4& world, const Sizes& sizes, Tracer* tracer) {
  const scan::ScanEngine engine = single_thread_engine();
  CycleV4 out;
  const auto start = Clock::now();
  Span cycle_span(tracer, "plan.cycle");

  std::vector<bgp::Pfx2AsRecord> records;
  {
    Span span(tracer, "bgp.parse");
    records = bgp::parse_pfx2as(world.pfx2as_text);
  }
  bgp::RoutingTable table;
  {
    Span span(tracer, "bgp.rib");
    table = bgp::RoutingTable::from_pfx2as(records);
  }
  bgp::PrefixPartition partition;
  {
    Span span(tracer, "bgp.partition");
    partition = table.m_partition();
  }
  count_stage_sizes(tracer, table.size(), partition.size());

  std::vector<std::uint32_t> counts(partition.size());
  {
    Span span(tracer, "scan.seed_scan");
    const scan::ScanScope scope(table.l_prefixes(), world.blocklist);
    const scan::AttributedScanResult seed =
        engine.run_attributed(scope, *world.seed_oracle, partition);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<std::uint32_t>(seed.cell_counts[i]);
    }
    out.seed_probes = seed.result.stats.probes_sent;
    out.seed_hits = seed.result.stats.responses;
  }
  core::DensityRanking ranking;
  {
    Span span(tracer, "core.rank");
    ranking = core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  }
  {
    Span span(tracer, "core.select");
    core::SelectionParams params;
    params.phi = sizes.phi;
    out.selection = core::select_by_density(ranking, params);
  }
  {
    // ScanScope::of_reduced is reduce + ScanScope; the two calls are
    // made separately so each layer gets its own span.
    Span span(tracer, "bgp.reduce");
    bgp::ReduceParams params;
    params.max_overshoot = sizes.max_overshoot;
    out.reduced = bgp::reduce(std::span<const net::Prefix>(out.selection.prefixes),
                              params);
  }
  {
    Span span(tracer, "scan.plan_scope");
    out.plan_scope = scan::ScanScope(out.reduced.prefixes, world.blocklist);
  }
  {
    Span span(tracer, "state.encode");
    out.image = state::encode_image(partition, ranking);
  }
  {
    std::optional<state::StateImage> image;
    {
      Span span(tracer, "state.load");
      image.emplace(state::StateImage::attach(out.image));
    }
    Span span(tracer, "state.verify");
    image->verify();
  }
  {
    Span span(tracer, "scan.plan_scan");
    const scan::ScanResult scanned = engine.run(out.plan_scope, *world.next_oracle);
    out.plan_probes = scanned.stats.probes_sent;
    out.plan_hits = scanned.stats.responses;
  }
  cycle_span.end();
  out.ms = ms_between(start, Clock::now());

  const std::uint64_t advertised = table.advertised_space().address_count();
  out.probe_reduction = out.plan_probes == 0
                            ? 0.0
                            : static_cast<double>(advertised) /
                                  static_cast<double>(out.plan_probes);
  out.host_coverage = world.next_hosts == 0
                          ? 0.0
                          : static_cast<double>(out.plan_hits) /
                                static_cast<double>(world.next_hosts);
  count_plan_outcome(tracer, out);
  return out;
}

CycleV6 cycle_v6(const WorldV6& world, const Sizes& sizes, Tracer* tracer) {
  CycleV6 out;
  const auto start = Clock::now();
  Span cycle_span(tracer, "plan.cycle");

  std::vector<net::Ipv6Address> hitlist;
  {
    Span span(tracer, "census.hitlist");
    hitlist = census::parse_hitlist6(world.seed_hitlist_text);
  }
  std::vector<bgp::Pfx2As6Record> records;
  {
    Span span(tracer, "bgp.parse");
    records = bgp::parse_pfx2as6(world.pfx2as6_text);
  }
  bgp::RoutingTable6 table;
  {
    Span span(tracer, "bgp.rib");
    table = bgp::RoutingTable6::from_pfx2as(records);
  }
  bgp::PrefixPartition6 partition;
  {
    Span span(tracer, "bgp.partition");
    partition = table.m_partition();
  }
  count_stage_sizes(tracer, table.size(), partition.size());

  std::vector<std::uint32_t> counts(partition.size(), 0);
  {
    // The v6 seed "scan" is the hitlist attribution (locate_many inside
    // tally_cells): there is no full v6 scan to seed from.
    Span span(tracer, "scan.seed_scan");
    std::uint64_t attributed = 0;
    std::uint64_t unattributed = 0;
    partition.tally_cells(std::span<const net::Ipv6Address>(hitlist), counts,
                          attributed, unattributed);
    out.seed_probes = hitlist.size();
    out.seed_hits = attributed;
  }
  core::DensityRanking6 ranking;
  {
    Span span(tracer, "core.rank");
    ranking = core::rank_by_density(std::span<const std::uint32_t>(counts),
                                    partition, core::PrefixMode::kMore);
  }
  {
    Span span(tracer, "core.select");
    core::SelectionParams params;
    params.phi = sizes.phi;
    out.selection = core::select_by_density(ranking, params);
  }
  {
    Span span(tracer, "bgp.reduce");
    bgp::ReduceParams params;
    params.max_overshoot = sizes.max_overshoot;
    out.reduced = bgp::reduce(
        std::span<const net::Ipv6Prefix>(out.selection.prefixes), params);
  }
  {
    Span span(tracer, "scan.plan_scope");
    out.plan_scope = scan::ScanScope6(out.reduced.prefixes, world.blocklist);
  }
  {
    Span span(tracer, "state.encode");
    out.image = state::encode_image(partition, ranking);
  }
  {
    std::optional<state::StateImage6> image;
    {
      Span span(tracer, "state.load");
      image.emplace(state::StateImage6::attach(out.image));
    }
    Span span(tracer, "state.verify");
    image->verify();
  }
  {
    Span span(tracer, "scan.plan_scan");
    out.plan_probes = out.plan_scope.add_candidates(world.next_candidates);
    for (const net::Ipv6Address& target : out.plan_scope.candidates()) {
      out.plan_hits += std::binary_search(world.next_hosts.begin(),
                                          world.next_hosts.end(), target);
    }
  }
  cycle_span.end();
  out.ms = ms_between(start, Clock::now());

  out.probe_reduction = out.plan_probes == 0
                            ? 0.0
                            : static_cast<double>(world.full_scope_candidates) /
                                  static_cast<double>(out.plan_probes);
  out.host_coverage = world.next_hosts.empty()
                          ? 0.0
                          : static_cast<double>(out.plan_hits) /
                                static_cast<double>(world.next_hosts.size());
  count_plan_outcome(tracer, out);
  return out;
}

/// Checks shared by both families: TSIM round trip, the loaded image
/// re-deriving the same selection, and the reduced list covering the
/// selection within its overshoot budget.
template <class Family, class Image>
void referee_common(const Cycle<Family>& cycle, const Sizes& sizes,
                    Referee& referee) {
  const Image image = Image::attach(cycle.image);
  const std::vector<std::byte> again =
      state::encode_image(image.partition(), image.ranking().materialize());
  referee.check(again == cycle.image, "plan: TSIM round trip is not bit-identical");
  referee.check(image.info().fingerprint ==
                    bgp::partition_fingerprint(image.partition()),
                "plan: image fingerprint does not name its partition");

  core::SelectionParams params;
  params.phi = sizes.phi;
  const auto reselected = core::select_by_density(image.ranking(), params);
  referee.check(reselected.prefixes == cycle.selection.prefixes &&
                    reselected.covered_hosts == cycle.selection.covered_hosts,
                "plan: loaded image selects a different plan");

  using Prefix = typename Family::Prefix;
  std::vector<Prefix> selection = cycle.selection.prefixes;
  if (referee.plant("plan")) {
    // The whole address space: never covered by a plan.
    selection.push_back(Prefix{});
  }
  std::vector<Prefix> both = cycle.reduced.prefixes;
  both.insert(both.end(), selection.begin(), selection.end());
  using Aggregate = bgp::BasicAggregate<Family>;
  referee.check(Aggregate::union_size(both) ==
                    Aggregate::union_size(cycle.reduced.prefixes),
                "plan: reduced list does not cover the selection");
  referee.check(cycle.reduced.overshoot_fraction() <= sizes.max_overshoot + 1e-9,
                "plan: reduction overshoot %.6f over budget",
                cycle.reduced.overshoot_fraction());
}

void referee_v4(const CycleV4& cycle, const WorldV4& world, const Sizes& sizes,
                Referee& referee) {
  referee_common<net::Ipv4Family, state::StateImage>(cycle, sizes, referee);
  // Sampled scope membership with the blocklist applied: every address
  // the unreduced selection would probe is still probed, and no blocked
  // address is.
  const scan::ScanScope unreduced(cycle.selection.prefixes, world.blocklist);
  const net::AddressIndexer indexer(unreduced.targets());
  util::Rng rng(0x5a);
  std::uint64_t lost = 0;
  for (int probe = 0; probe < 20000 && indexer.size() > 0; ++probe) {
    const net::Ipv4Address address = indexer.at(rng.bounded(indexer.size()));
    lost += !cycle.plan_scope.contains(address) || world.blocklist.blocks(address);
  }
  referee.check(lost == 0, "plan: %llu sampled scope addresses lost or blocked",
                static_cast<unsigned long long>(lost));
  referee.check(cycle.plan_scope.targets().intersect(world.blocklist.blocked()).empty(),
                "plan: blocked space inside the plan scope");
  referee.check(cycle.plan_probes == cycle.plan_scope.address_count(),
                "plan: scan probed %llu of %llu scope addresses",
                static_cast<unsigned long long>(cycle.plan_probes),
                static_cast<unsigned long long>(cycle.plan_scope.address_count()));
}

void referee_v6(const CycleV6& cycle, const WorldV6& world, const Sizes& sizes,
                Referee& referee) {
  referee_common<net::Ipv6Family, state::StateImage6>(cycle, sizes, referee);
  scan::ScanScope6 unreduced(cycle.selection.prefixes, world.blocklist);
  unreduced.add_candidates(world.next_candidates);
  std::uint64_t lost = 0;
  for (const net::Ipv6Address& target : unreduced.candidates()) {
    lost += !cycle.plan_scope.contains(target) || world.blocklist.blocks(target);
  }
  for (const net::Ipv6Address& target : cycle.plan_scope.candidates()) {
    lost += world.blocklist.blocks(target);
  }
  referee.check(lost == 0, "plan: %llu v6 candidates lost or blocked",
                static_cast<unsigned long long>(lost));
}

template <class C>
bool same_outcome(const C& a, const C& b) {
  return a.image == b.image && a.seed_probes == b.seed_probes &&
         a.seed_hits == b.seed_hits && a.plan_probes == b.plan_probes &&
         a.plan_hits == b.plan_hits && a.reduced.prefixes == b.reduced.prefixes;
}

template <class C, class RunCycle, class Deep>
PlanPhaseResult run_cycles(double seconds, std::size_t min_cycles,
                           Referee& referee, RunCycle run_cycle, Deep deep) {
  PlanPhaseResult result;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::optional<C> first;
  while (result.cycle_ms.size() < min_cycles || Clock::now() < deadline) {
    C cycle = run_cycle();
    referee.attempt();
    result.cycle_ms.push_back(cycle.ms);
    if (!first) {
      deep(cycle);
      first.emplace(std::move(cycle));
    } else {
      referee.check(same_outcome(cycle, *first),
                    "plan: cycle %zu diverged from cycle 0", result.cycle_ms.size() - 1);
    }
  }
  result.probe_reduction = first->probe_reduction;
  result.host_coverage = first->host_coverage;
  result.image = first->image;
  return result;
}

}  // namespace

SealedPlan seal_plan(const World& world, bool v6, const Sizes& sizes) {
  if (v6) {
    CycleV6 cycle = cycle_v6(world.v6, sizes, nullptr);
    return {std::move(cycle.image), {cycle.probe_reduction, cycle.host_coverage}};
  }
  CycleV4 cycle = cycle_v4(world.v4, sizes, nullptr);
  return {std::move(cycle.image), {cycle.probe_reduction, cycle.host_coverage}};
}

PlanFigures plan_figures(const core::DensityRanking& ranking, const WorldV4& world,
                         const Sizes& sizes) {
  core::SelectionParams params;
  params.phi = sizes.phi;
  const core::Selection selection = core::select_by_density(ranking, params);
  bgp::ReduceParams reduce_params;
  reduce_params.max_overshoot = sizes.max_overshoot;
  const bgp::ReduceResult reduced =
      bgp::reduce(std::span<const net::Prefix>(selection.prefixes), reduce_params);
  const scan::ScanResult scanned = single_thread_engine().run(
      scan::ScanScope(reduced.prefixes, world.blocklist), *world.next_oracle);
  PlanFigures figures;
  if (scanned.stats.probes_sent > 0) {
    figures.probe_reduction = static_cast<double>(ranking.advertised_addresses) /
                              static_cast<double>(scanned.stats.probes_sent);
  }
  if (world.next_hosts > 0) {
    figures.host_coverage = static_cast<double>(scanned.stats.responses) /
                            static_cast<double>(world.next_hosts);
  }
  return figures;
}

PlanPhaseResult run_plan_phase(const World& world, bool v6, const Sizes& sizes,
                               double seconds, std::size_t min_cycles,
                               Tracer* tracer, Referee& referee) {
  if (v6) {
    return run_cycles<CycleV6>(
        seconds, min_cycles, referee,
        [&] { return cycle_v6(world.v6, sizes, tracer); },
        [&](const CycleV6& cycle) { referee_v6(cycle, world.v6, sizes, referee); });
  }
  return run_cycles<CycleV4>(
      seconds, min_cycles, referee,
      [&] { return cycle_v4(world.v4, sizes, tracer); },
      [&](const CycleV4& cycle) {
        referee_v4(cycle, world.v4, sizes, referee);
      });
}

}  // namespace perfbench
