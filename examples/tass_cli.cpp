// tass_cli: the library as an operator tool.
//
//   tass_cli rank        <routes> <seeds> [less|more] [n] [--family v4|v6]
//   tass_cli plan        <routes> <seeds> <phi> [less|more] [--family v4|v6]
//   tass_cli sample      <routes> <seeds> [budget] [less|more]
//                        [--family v4|v6] [--floor n] [--seed n] [--phi f]
//   tass_cli aggregate   <prefix-file>
//   tass_cli reduce      <prefix-file> [--family v4|v6] [--overshoot pct]
//                        [--min-prefixes n]
//   tass_cli inspect     <file.mrt>
//   tass_cli state build <routes> <seeds> <out.tsim> [less|more]
//                        [--family v4|v6]
//   tass_cli state info  <file.tsim>
//
// Every seed-pipeline verb is family-generic: `--family v4` (the
// default) reads a pfx2as table and a scan-export address list,
// `--family v6` reads a pfx2as6 table and a hitlist, and both run the
// same templated driver over the family-generic substrate. Numeric
// arguments are range-checked here: a bad phi or overshoot is an
// `error:` line and exit 1, never a library precondition abort. An
// unknown `--flag` is an error too, never a positional argument.
//
// `rank` attributes the seed onto the routing table and prints the
// densest prefixes; `plan` emits the TASS selection (one prefix per line
// on stdout, summary on stderr) ready to feed a scanner whitelist;
// `sample` allocates a probe budget across the selection
// (scan/sampled_scope.hpp) and prints the sampling design — for v4 it
// also probes the seed oracle and reports the scale-up estimate with its
// 95% CI against the seed truth; `aggregate` minimises a CIDR list;
// `reduce` goes further than aggregation — it merges near-sibling
// prefixes until an address-overshoot cap, emitting the smallest
// whitelist that still covers every input address (bgp/reduce.hpp);
// `inspect` summarises an MRT RIB dump. `state build` runs the
// routes -> partition -> ranking pipeline once and seals the derived
// state into a TSIM image so later process starts mmap it instead of
// rebuilding; `state info` validates an image of either family (header,
// checksum, bounds, deep audit) and prints its header.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "census/hitlist6.hpp"
#include "census/snapshot_index.hpp"
#include "cli_args.hpp"
#include "core/estimator.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "core/tass.hpp"
#include "net/interval.hpp"
#include "report/table.hpp"
#include "scan/sampled_scope.hpp"
#include "state/image.hpp"
#include "util/strings.hpp"

namespace {

using namespace tass;
using args::parse_count;
using args::parse_mode;
using args::parse_phi;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tass_cli rank        <routes> <seeds> [less|more] [n] "
      "[--family v4|v6]\n"
      "  tass_cli plan        <routes> <seeds> <phi> [less|more] "
      "[--family v4|v6]\n"
      "  tass_cli sample      <routes> <seeds> [budget] [less|more]\n"
      "                       [--family v4|v6] [--floor n] [--seed n] "
      "[--phi f]\n"
      "  tass_cli aggregate   <prefix-file>\n"
      "  tass_cli reduce      <prefix-file> [--family v4|v6] "
      "[--overshoot pct]\n"
      "                       [--min-prefixes n]\n"
      "  tass_cli inspect     <file.mrt>\n"
      "  tass_cli state build <routes> <seeds> <out.tsim> [less|more] "
      "[--family v4|v6]\n"
      "  tass_cli state info  <file.tsim>\n"
      "v4 seeds are a scan-export address list; v6 seeds are a hitlist.\n");
  return 2;
}

// The reduce overshoot cap is a finite, non-negative percentage.
double parse_overshoot(const std::string& text) {
  const auto pct = util::parse_double(text);
  if (!pct || !(std::isfinite(*pct) && *pct >= 0.0)) {
    throw ParseError("--overshoot must be a finite percentage >= 0, got '" +
                     text + "'");
  }
  return *pct;
}

// Command-line shape shared by the family-generic verbs: positional
// arguments with the option flags (--family/--floor/--seed/--phi/
// --overshoot/--min-prefixes) already extracted.
struct Cli {
  std::vector<std::string> args;  // positionals after the verb
  bool v6 = false;
  std::uint32_t floor = 16;
  std::uint64_t seed = 1;
  double phi = 1.0;
  double overshoot_pct = 5.0;      // reduce: address-overshoot cap (%)
  std::uint64_t min_prefixes = 0;  // reduce: stop below this count
};

Cli parse_cli(int argc, char** argv, int first) {
  Cli cli;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ParseError(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--family") {
      const std::string family = value();
      if (family == "v6") {
        cli.v6 = true;
      } else if (family != "v4") {
        throw ParseError("--family must be v4 or v6, got '" + family + "'");
      }
    } else if (arg == "--floor") {
      cli.floor = static_cast<std::uint32_t>(
          parse_count(value(), "--floor", 0xffffffffu));
    } else if (arg == "--seed") {
      cli.seed = parse_count(value(), "--seed");
    } else if (arg == "--phi") {
      cli.phi = parse_phi(value());
    } else if (arg == "--overshoot") {
      cli.overshoot_pct = parse_overshoot(value());
    } else if (arg == "--min-prefixes") {
      cli.min_prefixes = parse_count(value(), "--min-prefixes");
    } else if (arg.starts_with("--")) {
      throw ParseError("unknown option '" + std::string(arg) + "'");
    } else {
      cli.args.emplace_back(arg);
    }
  }
  return cli;
}

// The per-family seed pipeline: routes -> chosen partition -> seed
// attribution -> density ranking, plus the raw seed addresses (the
// sample verb probes/subsamples them).
struct PipelineV4 {
  std::shared_ptr<const census::Topology> topology;
  const bgp::PrefixPartition* partition = nullptr;
  core::DensityRanking ranking;
  std::vector<std::uint32_t> addresses;  // as loaded (unsorted)
};

struct PipelineV6 {
  bgp::PrefixPartition6 partition;
  core::DensityRanking6 ranking;
  std::vector<net::Ipv6Address> hitlist;
};

template <class Family>
using PipelineT = std::conditional_t<Family::kBits == 32, PipelineV4,
                                     PipelineV6>;

template <class Family>
PipelineT<Family> build_pipeline(const std::string& routes_path,
                                 const std::string& seed_path,
                                 core::PrefixMode mode) {
  if constexpr (Family::kBits == 32) {
    PipelineV4 result;
    const auto records = bgp::load_pfx2as(routes_path, /*strict=*/false);
    result.topology = census::topology_from_table(
        bgp::RoutingTable::from_pfx2as(records), /*seed=*/1);
    std::fprintf(stderr, "loaded %zu routes; advertised %.3fB addresses\n",
                 result.topology->table.size(),
                 static_cast<double>(result.topology->advertised_addresses) /
                     1e9);
    result.partition = mode == core::PrefixMode::kMore
                           ? &result.topology->m_partition
                           : &result.topology->l_partition;
    result.addresses = census::load_address_list(seed_path,
                                                 /*strict=*/false);
    const auto attribution = core::attribute(result.addresses,
                                             *result.partition);
    std::fprintf(stderr,
                 "attributed %llu responsive addresses (%llu outside the "
                 "announced space)\n",
                 static_cast<unsigned long long>(attribution.attributed),
                 static_cast<unsigned long long>(attribution.unattributed));
    result.ranking =
        core::rank_by_density(attribution.counts, *result.partition, mode);
    return result;
  } else {
    PipelineV6 result;
    const auto records = bgp::load_pfx2as6(routes_path, /*strict=*/false);
    const auto table = bgp::RoutingTable6::from_pfx2as(records);
    std::fprintf(stderr, "loaded %zu v6 routes; advertised %.3fM /64s\n",
                 table.size(),
                 static_cast<double>(table.stats().advertised_addresses) /
                     1e6);
    result.partition = mode == core::PrefixMode::kMore ? table.m_partition()
                                                       : table.l_partition();
    result.hitlist = census::load_hitlist6(seed_path, /*strict=*/false);
    std::vector<std::uint32_t> counts(result.partition.size(), 0);
    std::uint64_t attributed = 0;
    std::uint64_t unattributed = 0;
    result.partition.tally_cells(result.hitlist, counts, attributed,
                                 unattributed);
    std::fprintf(stderr,
                 "attributed %llu hitlist addresses (%llu outside the "
                 "announced space)\n",
                 static_cast<unsigned long long>(attributed),
                 static_cast<unsigned long long>(unattributed));
    result.ranking = core::rank_by_density(counts, result.partition, mode);
    return result;
  }
}

template <class Family>
int run_rank(const Cli& cli) {
  if (cli.args.size() < 2) return usage();
  const core::PrefixMode mode =
      cli.args.size() > 2 ? parse_mode(cli.args[2]) : core::PrefixMode::kMore;
  const std::uint64_t top_n =
      cli.args.size() > 3 ? parse_count(cli.args[3], "n") : 20;

  const auto pipeline = build_pipeline<Family>(cli.args[0], cli.args[1],
                                               mode);
  const auto& ranking = pipeline.ranking;

  constexpr bool kV4 = Family::kBits == 32;
  report::Table table(
      kV4 ? std::vector<std::string>{"rank", "prefix", "hosts", "density",
                                     "cum. host coverage",
                                     "cum. space coverage"}
          : std::vector<std::string>{"rank", "prefix", "hosts",
                                     "density per /64",
                                     "cum. host coverage"});
  std::uint64_t hosts = 0;
  std::uint64_t space = 0;
  for (std::size_t i = 0; i < ranking.ranked.size() && i < top_n; ++i) {
    const auto& entry = ranking.ranked[i];
    hosts += entry.hosts;
    space += entry.size;
    std::vector<std::string> row{
        report::Table::cell(static_cast<std::uint64_t>(i + 1)),
        entry.prefix.to_string(), report::Table::cell(entry.hosts),
        report::Table::cell(entry.density, 6),
        report::Table::cell(static_cast<double>(hosts) /
                                static_cast<double>(ranking.total_hosts),
                            4)};
    if constexpr (kV4) {
      row.push_back(report::Table::cell(
          static_cast<double>(space) /
              static_cast<double>(ranking.advertised_addresses),
          4));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

template <class Family>
int run_plan(const Cli& cli) {
  if (cli.args.size() < 3) return usage();
  const double phi = parse_phi(cli.args[2]);
  const core::PrefixMode mode =
      cli.args.size() > 3 ? parse_mode(cli.args[3]) : core::PrefixMode::kMore;

  const auto pipeline = build_pipeline<Family>(cli.args[0], cli.args[1],
                                               mode);
  core::SelectionParams params;
  params.phi = phi;
  const auto selection = core::select_by_density(pipeline.ranking, params);

  if constexpr (Family::kBits == 32) {
    // Whitelist on stdout (aggregated for compactness), summary on
    // stderr.
    const auto compact =
        bgp::BasicAggregate<Family>::aggregate(selection.prefixes);
    for (const net::Prefix prefix : compact) {
      std::printf("%s\n", prefix.to_string().c_str());
    }
    std::fprintf(stderr,
                 "selection: k=%zu prefixes (%zu aggregated), %.2f%% host "
                 "coverage at seed, %.2f%% of announced space, %llu "
                 "addresses per cycle\n",
                 selection.k(), compact.size(),
                 100.0 * selection.host_coverage(),
                 100.0 * selection.space_coverage(),
                 static_cast<unsigned long long>(
                     selection.selected_addresses));
  } else {
    // Whitelist on stdout, summary on stderr (no v6 aggregation pass
    // yet; selections are already short — k densest prefixes).
    for (const net::Ipv6Prefix prefix : selection.prefixes) {
      std::printf("%s\n", prefix.to_string().c_str());
    }
    std::fprintf(stderr,
                 "selection: k=%zu prefixes, %.2f%% host coverage at seed, "
                 "%.4f%% of announced /64s (%llu /64s per cycle)\n",
                 selection.k(), 100.0 * selection.host_coverage(),
                 100.0 * selection.space_coverage(),
                 static_cast<unsigned long long>(
                     selection.selected_addresses));
  }
  return 0;
}

template <class Family>
int run_sample(const Cli& cli) {
  if (cli.args.size() < 2) return usage();
  scan::SampleParams params;
  if (cli.args.size() > 2) params.budget = parse_count(cli.args[2], "budget");
  const core::PrefixMode mode =
      cli.args.size() > 3 ? parse_mode(cli.args[3]) : core::PrefixMode::kMore;
  params.floor = cli.floor;
  params.seed = cli.seed;
  params.phi = cli.phi;

  const auto pipeline = build_pipeline<Family>(cli.args[0], cli.args[1],
                                               mode);
  const auto design = scan::plan_sample(pipeline.ranking, params);

  report::Table table({"rank", "prefix", "universe", "draws", "seed hosts"});
  for (std::size_t i = 0; i < design.cells.size() && i < 20; ++i) {
    const auto& row = design.cells[i];
    table.add_row({report::Table::cell(static_cast<std::uint64_t>(i + 1)),
                   row.prefix.to_string(), report::Table::cell(row.universe),
                   report::Table::cell(row.draws),
                   report::Table::cell(row.seed_hosts)});
  }
  std::printf("%s", table.to_text().c_str());
  std::fprintf(stderr,
               "sample design: k=%zu cells, %llu probes vs %llu exhaustive "
               "(%.1fx probe reduction)\n",
               design.cells.size(),
               static_cast<unsigned long long>(design.total_draws),
               static_cast<unsigned long long>(design.frame_units),
               design.probe_reduction());

  if constexpr (Family::kBits == 32) {
    // Probe the seed itself as the oracle: the scale-up estimate then
    // has an exhaustive truth to compare against, demonstrating the
    // whole estimation loop end to end.
    auto sorted = pipeline.addresses;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    const census::SnapshotIndex oracle(std::move(sorted));
    const scan::SampledScope scope(design);
    const auto result = scope.probe(
        [&](net::Ipv4Address addr) { return oracle.contains(addr); });
    const auto estimate = core::estimate_from_sample(result,
                                                     pipeline.ranking);
    std::uint64_t truth = 0;
    for (const auto& row : design.cells) {
      truth += oracle.count_responsive(net::Interval::of(row.prefix));
    }
    std::printf("estimated hosts: %.0f (95%% CI [%.0f, %.0f])\n",
                estimate.estimated_hosts, estimate.hosts_low,
                estimate.hosts_high);
    const double error =
        truth == 0 ? 0.0
                   : std::abs(estimate.estimated_hosts -
                              static_cast<double>(truth)) /
                         static_cast<double>(truth);
    std::fprintf(stderr,
                 "seed truth: %llu responsive in the sampled frame; "
                 "estimate error %.2f%%, CI %s\n",
                 static_cast<unsigned long long>(truth), 100.0 * error,
                 estimate.hosts_ci_covers(static_cast<double>(truth))
                     ? "covers"
                     : "misses");
  } else {
    // The hitlist is the candidate frame: materialise the subsample so
    // the draw counts reflect the per-cell re-cap.
    const scan::SampledScope6 scope(design, pipeline.hitlist,
                                    pipeline.partition);
    std::fprintf(stderr, "drew %zu targets from %zu hitlist candidates\n",
                 scope.target_count(), pipeline.hitlist.size());
  }
  return 0;
}

int cmd_aggregate(const Cli& cli) {
  if (cli.args.empty()) return usage();
  std::ifstream in(cli.args[0]);
  if (!in) throw Error("cannot open " + cli.args[0]);
  std::vector<net::Prefix> prefixes;
  std::string line;
  while (std::getline(in, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    prefixes.push_back(net::Prefix::parse_or_throw(trimmed));
  }
  using Aggregate = bgp::BasicAggregate<net::Ipv4Family>;
  const auto compact = Aggregate::aggregate(prefixes);
  for (const net::Prefix prefix : compact) {
    std::printf("%s\n", prefix.to_string().c_str());
  }
  std::fprintf(stderr, "%zu prefixes -> %zu (covering %llu addresses)\n",
               prefixes.size(), compact.size(),
               static_cast<unsigned long long>(Aggregate::union_size(compact)));
  return 0;
}

template <class Family>
int run_reduce(const Cli& cli) {
  if (cli.args.empty()) return usage();
  std::ifstream in(cli.args[0]);
  if (!in) throw Error("cannot open " + cli.args[0]);
  std::vector<typename Family::Prefix> prefixes;
  std::string line;
  while (std::getline(in, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    prefixes.push_back(Family::Prefix::parse_or_throw(trimmed));
  }

  bgp::ReduceParams params;
  params.max_overshoot = cli.overshoot_pct / 100.0;
  params.min_prefixes = static_cast<std::size_t>(cli.min_prefixes);
  const auto reduced = bgp::reduce<Family>(
      std::span<const typename Family::Prefix>(prefixes), params);

  // Reduced whitelist on stdout, accounting on stderr — same split as
  // `plan`, so the output pipes straight into a scanner whitelist.
  for (const auto& prefix : reduced.prefixes) {
    std::printf("%s\n", prefix.to_string().c_str());
  }
  const char* unit =
      Family::kBits == 32 ? "addresses" : "/64 units";
  std::fprintf(stderr,
               "reduce: %llu prefixes -> %llu aggregated -> %zu reduced "
               "(%.1fx), %llu merges, overshoot %llu %s (%.3f%% of %llu, "
               "cap %.3f%%)\n",
               static_cast<unsigned long long>(reduced.original_prefixes),
               static_cast<unsigned long long>(reduced.aggregated_prefixes),
               reduced.prefixes.size(), reduced.reduction_ratio(),
               static_cast<unsigned long long>(reduced.merges),
               static_cast<unsigned long long>(reduced.overshoot_addresses),
               unit, 100.0 * reduced.overshoot_fraction(),
               static_cast<unsigned long long>(reduced.original_addresses),
               cli.overshoot_pct);
  return 0;
}

template <class Family>
int run_state_build(const Cli& cli) {
  // args: build <routes> <seeds> <out.tsim> [less|more]
  if (cli.args.size() < 4) return usage();
  const core::PrefixMode mode =
      cli.args.size() > 4 ? parse_mode(cli.args[4]) : core::PrefixMode::kMore;
  const std::string& out_path = cli.args[3];

  const auto pipeline = build_pipeline<Family>(cli.args[1], cli.args[2],
                                               mode);
  if constexpr (Family::kBits == 32) {
    state::save_image(out_path, *pipeline.partition, pipeline.ranking);
    const auto image = state::StateImage::load(out_path);
    std::fprintf(stderr,
                 "sealed %zu cells / %zu ranked prefixes into %s (%zu "
                 "bytes, fingerprint %016llx); workers can now mmap it "
                 "instead of rebuilding\n",
                 image.info().cell_count, image.info().ranked_count,
                 out_path.c_str(), image.info().file_bytes,
                 static_cast<unsigned long long>(image.info().fingerprint));
  } else {
    state::save_image(out_path, pipeline.partition, pipeline.ranking);
    const auto image = state::StateImage6::load(out_path);
    std::fprintf(stderr,
                 "sealed %zu cells / %zu ranked prefixes into %s (%zu "
                 "bytes, %s, fingerprint %016llx); workers can now mmap "
                 "it instead of rebuilding\n",
                 image.info().cell_count, image.info().ranked_count,
                 out_path.c_str(), image.info().file_bytes,
                 net::address_family_name(image.info().family).data(),
                 static_cast<unsigned long long>(image.info().fingerprint));
  }
  return 0;
}

void print_state_info(const state::ImageInfo& info) {
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(info.fingerprint));
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(info.checksum));
  report::Table out({"field", "value"});
  out.add_row({"version", report::Table::cell(
                              static_cast<std::uint64_t>(info.version))});
  out.add_row(
      {"address family", std::string(net::address_family_name(info.family))});
  out.add_row(
      {"prefix mode", std::string(core::prefix_mode_name(info.mode))});
  out.add_row({"topology fingerprint", fingerprint});
  out.add_row({"payload checksum", checksum});
  out.add_row({"cells", report::Table::cell(
                            static_cast<std::uint64_t>(info.cell_count))});
  out.add_row({"live cells",
               report::Table::cell(
                   static_cast<std::uint64_t>(info.live_cells))});
  out.add_row({"ranked prefixes",
               report::Table::cell(
                   static_cast<std::uint64_t>(info.ranked_count))});
  out.add_row({"total hosts", report::Table::cell(info.total_hosts)});
  out.add_row({"advertised addresses",
               report::Table::cell(info.advertised_addresses)});
  out.add_row({"LPM nodes", report::Table::cell(
                                static_cast<std::uint64_t>(info.lpm_nodes))});
  out.add_row({"LPM leaves",
               report::Table::cell(
                   static_cast<std::uint64_t>(info.lpm_leaves))});
  out.add_row({"file bytes",
               report::Table::cell(
                   static_cast<std::uint64_t>(info.file_bytes))});
  std::printf("%s", out.to_text().c_str());
  std::fprintf(stderr, "image OK (checksum, bounds and deep audit)\n");
}

int cmd_state_info(const Cli& cli) {
  if (cli.args.size() < 2) return usage();
  // Family dispatch by magic: either family's image prints through the
  // same table, with its family named.
  if (state::image_family_of_file(cli.args[1]) == net::AddressFamily::kIpv6) {
    const auto image = state::StateImage6::load(cli.args[1]);
    image.verify();  // deep audit beyond the load-time integrity checks
    print_state_info(image.info());
  } else {
    const auto image = state::StateImage::load(cli.args[1]);
    image.verify();
    print_state_info(image.info());
  }
  return 0;
}

// Family dispatch for the seed-pipeline verbs.
int run_family(int (*v4)(const Cli&), int (*v6)(const Cli&), const Cli& cli) {
  return cli.v6 ? v6(cli) : v4(cli);
}

int cmd_state(const Cli& cli) {
  if (cli.args.empty()) return usage();
  const std::string& verb = cli.args[0];
  if (verb == "build") {
    return run_family(&run_state_build<net::Ipv4Family>,
                      &run_state_build<net::Ipv6Family>, cli);
  }
  if (verb == "info") return cmd_state_info(cli);
  return usage();
}

int cmd_inspect(const Cli& cli) {
  if (cli.args.empty()) return usage();
  const auto dump = bgp::load_mrt(cli.args[0]);
  const auto table = bgp::RoutingTable::from_mrt(dump);
  const auto stats = table.stats();
  report::Table out({"field", "value"});
  out.add_row({"collector", dump.collector_id.to_string()});
  out.add_row({"view", dump.view_name});
  out.add_row({"peers", report::Table::cell(
                            static_cast<std::uint64_t>(dump.peers.size()))});
  out.add_row({"rib records",
               report::Table::cell(
                   static_cast<std::uint64_t>(dump.records.size()))});
  out.add_row({"skipped records",
               report::Table::cell(
                   static_cast<std::uint64_t>(dump.skipped_records))});
  out.add_row({"unique prefixes",
               report::Table::cell(
                   static_cast<std::uint64_t>(stats.prefix_count))});
  out.add_row({"m-prefix fraction",
               report::Table::cell(stats.m_prefix_fraction, 3)});
  out.add_row({"advertised addresses",
               report::Table::cell(stats.advertised_addresses)});
  std::printf("%s", out.to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const Cli cli = parse_cli(argc, argv, 2);
    if (command == "rank") {
      return run_family(&run_rank<net::Ipv4Family>,
                        &run_rank<net::Ipv6Family>, cli);
    }
    if (command == "plan") {
      return run_family(&run_plan<net::Ipv4Family>,
                        &run_plan<net::Ipv6Family>, cli);
    }
    if (command == "sample") {
      return run_family(&run_sample<net::Ipv4Family>,
                        &run_sample<net::Ipv6Family>, cli);
    }
    if (command == "aggregate") return cmd_aggregate(cli);
    if (command == "reduce") {
      return run_family(&run_reduce<net::Ipv4Family>,
                        &run_reduce<net::Ipv6Family>, cli);
    }
    if (command == "inspect") return cmd_inspect(cli);
    if (command == "state") return cmd_state(cli);
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
