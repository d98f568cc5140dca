// strategy_compare: the paper's section 4 experiment as a tool — compare
// full scans, address hitlists, Heidemann-style /24 sampling and TASS over
// a multi-month census series for one protocol.
//
// Usage:  ./strategy_compare [protocol] [months]
//
// months is in [1, 120]; a bad value is an `error:` line and exit 1.
#include <cstdio>
#include <exception>
#include <string>

#include "cli_args.hpp"
#include "core/tass.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) try {
  using namespace tass;
  const census::Protocol protocol =
      argc > 1 ? census::parse_protocol(argv[1]) : census::Protocol::kCwmp;
  const int months =
      argc > 2 ? static_cast<int>(args::parse_count(argv[2], "months",
                                                    /*max=*/120, /*min=*/1))
               : 7;

  census::TopologyParams topo_params;
  topo_params.seed = 2016;
  topo_params.l_prefix_count = 4000;
  const auto topology = census::generate_topology(topo_params);

  census::SeriesParams series_params;
  series_params.months = months;
  series_params.host_scale = 0.01;
  const auto series =
      census::CensusSeries::generate(topology, protocol, series_params);
  const census::Snapshot& seed = series.month(0);

  std::printf("protocol=%s months=%d hosts(t0)=%llu announced=%.2fB\n\n",
              census::protocol_name(protocol).data(), months,
              static_cast<unsigned long long>(seed.total_hosts()),
              static_cast<double>(topology->advertised_addresses) / 1e9);

  // Build the strategy zoo.
  std::vector<std::unique_ptr<core::Strategy>> strategies;
  strategies.push_back(std::make_unique<core::FullScanStrategy>(seed));
  strategies.push_back(std::make_unique<core::HitlistStrategy>(seed));
  strategies.push_back(std::make_unique<core::RandomSampleStrategy>(
      seed, core::RandomSampleParams{}));
  for (const core::PrefixMode mode :
       {core::PrefixMode::kLess, core::PrefixMode::kMore}) {
    for (const double phi : {1.0, 0.95}) {
      core::SelectionParams params;
      params.phi = phi;
      strategies.push_back(
          std::make_unique<core::TassStrategy>(seed, mode, params));
    }
  }

  report::Table table({"strategy", "space/cycle", "hitrate m+1",
                       "hitrate last", "efficiency vs full"});
  for (const auto& strategy : strategies) {
    const auto evaluation = core::evaluate(*strategy, series);
    const auto& cycles = evaluation.cycles;
    table.add_row(
        {strategy->name(),
         report::Table::cell(evaluation.space_fraction(), 4),
         report::Table::cell(
             cycles.size() > 1 ? cycles[1].hitrate() : 1.0, 3),
         report::Table::cell(cycles.back().hitrate(), 3),
         report::Table::cell(evaluation.efficiency_vs_full(), 2)});
  }
  std::printf("%s", table.to_text().c_str());

  std::printf(
      "\nNote: random-sample scans %.2f%% of the space and therefore finds "
      "a proportional sliver of hosts; its hitrate column reflects "
      "coverage, not estimation quality.\n",
      100.0 * static_cast<double>(
                  strategies[2]->scanned_addresses()) /
          static_cast<double>(topology->advertised_addresses));
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
