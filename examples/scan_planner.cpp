// scan_planner: turn a routing table + seed scan into a concrete periodic
// scan plan — the operational tool a scanning team would run.
//
// Usage:
//   ./scan_planner [pfx2as_file|state.tsim] [protocol] [phi] [less|more]
//
// With no input file, a synthetic table is generated and also written to
// ./demo.pfx2as so the file-driven path can be replayed. The seed scan is
// simulated from the census model; with real infrastructure it would be
// the result of one full ZMap sweep. The plan reports the selected
// prefixes, per-cycle probe volume, packet estimate and expected duration,
// and dry-runs one cycle against the seed snapshot. phi is in (0, 1]; a
// bad value, protocol name or prefix mode is an `error:` line and exit 1.
//
// Cold-start path: every run that builds the pipeline from a table also
// seals the derived partition + ranking into ./demo.tsim; pass that
// .tsim file as the first argument and the planner mmaps the prebuilt
// state (millisecond start, shared page cache across planner processes)
// instead of re-deriving it. The census dry-run steps need the full
// topology and are skipped in image mode.
#include <cstdio>
#include <exception>
#include <string>

#include "cli_args.hpp"
#include "core/tass.hpp"
#include "report/table.hpp"
#include "state/image.hpp"

namespace {

using namespace tass;

constexpr double kProbesPerSecond = 100'000;  // a polite ZMap rate

}  // namespace

int main(int argc, char** argv) try {
  const std::string input_path = argc > 1 ? argv[1] : "";
  const census::Protocol protocol =
      argc > 2 ? census::parse_protocol(argv[2]) : census::Protocol::kHttps;
  const double phi = argc > 3 ? args::parse_phi(argv[3]) : 0.95;
  const core::PrefixMode mode =
      argc > 4 ? args::parse_mode(argv[4]) : core::PrefixMode::kMore;

  // 0. Fast path: a sealed state image replaces steps 1-3's derivation.
  if (input_path.ends_with(".tsim")) {
    const auto image = state::StateImage::load(input_path);
    std::printf(
        "attached state image %s (%zu cells, %zu ranked prefixes, "
        "%zu bytes; topology fingerprint %016llx)\n",
        input_path.c_str(), image.info().cell_count,
        image.info().ranked_count, image.info().file_bytes,
        static_cast<unsigned long long>(image.info().fingerprint));

    const core::DensityRankingView ranking = image.ranking();
    core::SelectionParams params;
    params.phi = phi;
    const auto selection = core::select_by_density(ranking, params);
    const auto cost = scan::CostModel::for_protocol(protocol);
    const double packets = cost.packets(
        selection.selected_addresses,
        static_cast<std::uint64_t>(
            static_cast<double>(ranking.total_hosts) *
            selection.host_coverage()));
    report::Table table({"plan item", "value"});
    table.add_row({"pipeline state", "mmap'ed image (no rebuild)"});
    table.add_row({"selected prefixes",
                   report::Table::cell(
                       static_cast<std::uint64_t>(selection.k()))});
    table.add_row({"addresses per cycle",
                   report::Table::cell(selection.selected_addresses)});
    table.add_row({"share of announced space",
                   report::Table::cell(selection.space_coverage(), 3)});
    table.add_row({"expected host coverage at seed",
                   report::Table::cell(selection.host_coverage(), 3)});
    table.add_row({"estimated packets per cycle",
                   report::Table::cell(
                       static_cast<std::uint64_t>(packets))});
    std::printf("\n%s", table.to_text().c_str());
    std::printf(
        "\n(census dry-run steps need the full topology; run the "
        "pfx2as path for those)\n");
    return 0;
  }
  const std::string pfx2as_path = input_path;

  // 1. Routing table: from file, or synthetic (then saved for replay).
  std::shared_ptr<const census::Topology> topology;
  if (!pfx2as_path.empty()) {
    const auto records = bgp::load_pfx2as(pfx2as_path, /*strict=*/false);
    topology = census::topology_from_table(
        bgp::RoutingTable::from_pfx2as(records), /*seed=*/2016);
    std::printf("loaded %zu pfx2as records from %s\n", records.size(),
                pfx2as_path.c_str());
  } else {
    census::TopologyParams params;
    params.seed = 2016;
    params.l_prefix_count = 2000;
    topology = census::generate_topology(params);
    bgp::save_pfx2as("demo.pfx2as", topology->table.to_pfx2as());
    std::printf("generated synthetic table (saved to demo.pfx2as)\n");
  }

  // 2. Seed scan (simulated full sweep at t0).
  census::SeriesParams series_params;
  series_params.months = 1;
  series_params.host_scale = 0.01;
  const auto series =
      census::CensusSeries::generate(topology, protocol, series_params);
  const census::Snapshot& seed = series.month(0);

  // 3. TASS selection.
  const auto ranking = core::rank_by_density(seed, mode);
  // Seal the derived state so the next planner start can skip steps 1-3
  // by passing demo.tsim instead of the pfx2as file. Best-effort: an
  // unwritable working directory must not cost us the plan itself.
  try {
    state::save_image("demo.tsim",
                      mode == core::PrefixMode::kMore
                          ? topology->m_partition
                          : topology->l_partition,
                      ranking);
    std::printf("sealed pipeline state to demo.tsim (replay with "
                "./scan_planner demo.tsim)\n");
  } catch (const Error& error) {
    std::fprintf(stderr, "warning: could not seal demo.tsim: %s\n",
                 error.what());
  }
  core::SelectionParams params;
  params.phi = phi;
  const auto selection = core::select_by_density(ranking, params);

  // 4. The plan.
  const auto cost = scan::CostModel::for_protocol(protocol);
  const double packets = cost.packets(
      selection.selected_addresses,
      static_cast<std::uint64_t>(static_cast<double>(seed.total_hosts()) *
                                 selection.host_coverage()));
  report::Table table({"plan item", "value"});
  table.add_row({"protocol", std::string(census::protocol_name(protocol)) +
                                 "/" +
                                 std::to_string(
                                     census::protocol_port(protocol))});
  table.add_row({"prefix granularity",
                 std::string(core::prefix_mode_name(mode)) + " specific"});
  table.add_row({"host coverage target (phi)", report::Table::cell(phi, 2)});
  table.add_row({"selected prefixes",
                 report::Table::cell(static_cast<std::uint64_t>(
                     selection.k()))});
  table.add_row({"addresses per cycle",
                 report::Table::cell(selection.selected_addresses)});
  table.add_row({"share of announced space",
                 report::Table::cell(selection.space_coverage(), 3)});
  table.add_row({"expected host coverage at seed",
                 report::Table::cell(selection.host_coverage(), 3)});
  table.add_row({"estimated packets per cycle",
                 report::Table::cell(static_cast<std::uint64_t>(packets))});
  table.add_row(
      {"estimated duration at 100kpps",
       report::Table::cell(static_cast<double>(
                               selection.selected_addresses) /
                               kProbesPerSecond / 3600.0,
                           2) +
           " hours"});
  std::printf("\n%s", table.to_text().c_str());

  // 5. Dry-run the plan: replay one cycle over the plan scope (minus the
  //    default special-use blocklist) against the seed snapshot through
  //    the engine (one batched index count per scope interval).
  const scan::ScanScope scope(selection.prefixes,
                              scan::Blocklist::default_blocklist());
  const scan::SnapshotOracle oracle(seed);
  const scan::ScanStats dry_run = scan::ScanEngine().run(scope, oracle).stats;
  std::printf(
      "\ndry run vs seed snapshot: %llu probes, %llu hits, hitrate %.4f\n",
      static_cast<unsigned long long>(dry_run.probes_sent),
      static_cast<unsigned long long>(dry_run.responses),
      dry_run.hitrate());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
