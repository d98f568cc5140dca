// ipv6_blueprint: the paper's concluding thought, run end to end on the
// real library types.
//
// "When IPv6 becomes popular, brute forcing the address space becomes
// infeasible. [...] Perhaps TASS can offer a blueprint for tackling that
// challenge as well." (§6)
//
// There is no full scan to seed from in v6 — 2^128 addresses — so the
// seed becomes a *hitlist* (active addresses from passive measurements,
// DNS, or prior studies, cf. Plonka & Berger). The TASS loop is the same
// pipeline the v4 system runs, on the same family-generic substrate:
//
//   pfx2as6 -> RoutingTable6 (l/m split + Figure-2 deaggregation)
//           -> PrefixPartition6 (flat LPM attribution)
//           -> rank_by_density (hosts per /64, the v6 rho)
//           -> select_by_density (the paper's phi stopping rule)
//           -> ScanScope6 (selection minus blocklist, candidate set)
//           -> TSIM seal + zero-copy reload (StateImage6)
//
// Earlier revisions of this demo hand-rolled attribution and ranking
// over a std::map; everything below is the production path.
#include <cstdio>
#include <string>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "report/table.hpp"
#include "scan/blocklist.hpp"
#include "scan/scope.hpp"
#include "state/image.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;

// A miniature announced table (documentation space, varying lengths),
// in pfx2as6 text form: the /32 covers several announced more-specifics,
// so the m-partition genuinely exercises the 128-bit deaggregation.
constexpr const char* kAnnounced =
    "2001:db8::\t32\t64500\n"
    "2001:db8:1000::\t36\t64501\n"
    "2001:db8:2000::\t36\t64502\n"
    "2001:db8:3000::\t40\t64503\n"
    "2001:db8:4000::\t44\t64504\n"
    "2001:db8:5000::\t48\t64505\n"
    "2001:db8:6000::\t48\t64506\n"
    "2001:db8:7000::\t48\t64507\n"
    "2001:db8:8000::\t33\t64508\n"
    "2001:db8:f000::\t52\t64509\n";

// Synthetic hitlist: hosts cluster in a few prefixes with low-entropy
// interface identifiers (the structure real v6 hitlists show).
std::vector<net::Ipv6Address> synthetic_hitlist(util::Rng& rng) {
  std::vector<net::Ipv6Address> hitlist;
  const struct {
    const char* base;
    int hosts;
  } clusters[] = {
      {"2001:db8:5000::", 500},   // dense /48 (hosting)
      {"2001:db8:f000::", 300},   // dense /52
      {"2001:db8:1000::", 120},   // sparse /36
      {"2001:db8:8000::", 60},    // very sparse /33
  };
  for (const auto& cluster : clusters) {
    const net::Ipv6Address base =
        net::Ipv6Address::parse_or_throw(cluster.base);
    for (int i = 0; i < cluster.hosts; ++i) {
      // A handful of /64 subnets per site (varying the last group of the
      // network half) with ::1, ::2, ... style low interface identifiers.
      const std::uint64_t subnet = rng.bounded(16);
      hitlist.emplace_back(base.hi() | subnet,
                           1 + rng.bounded(1000));
    }
  }
  return hitlist;
}

}  // namespace

int main() {
  util::Rng rng(2026);

  // Ingest the announced table and derive the deaggregated m-partition —
  // the same Figure-2 construction the v4 pipeline uses.
  const auto records = bgp::parse_pfx2as6(kAnnounced);
  const auto table = bgp::RoutingTable6::from_pfx2as(records);
  const bgp::PrefixPartition6 partition = table.m_partition();
  const auto hitlist = synthetic_hitlist(rng);
  std::printf(
      "announced v6 prefixes: %zu (%zu l-prefixes), m-partition cells: "
      "%zu, hitlist seeds: %zu\n\n",
      table.size(), table.l_prefixes().size(), partition.size(),
      hitlist.size());

  // Attribute hitlist hosts through the flat LPM substrate (the same
  // tally kernel the sharded v4 attribution runs per shard).
  std::vector<std::uint32_t> counts(partition.size(), 0);
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  partition.tally_cells(hitlist, counts, attributed, unattributed);
  std::printf("attributed %llu hitlist hosts (%llu outside announced)\n",
              static_cast<unsigned long long>(attributed),
              static_cast<unsigned long long>(unattributed));

  // Density ranking: hosts per /64 (the v6 rho), the paper's ordering.
  const core::DensityRanking6 ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);

  report::Table out({"announced prefix", "seed hosts", "density per /64",
                     "cumulative host coverage"});
  std::uint64_t cumulative = 0;
  for (const core::RankedPrefix6& entry : ranking.ranked) {
    cumulative += entry.hosts;
    out.add_row({entry.prefix.to_string(),
                 report::Table::cell(entry.hosts),
                 report::Table::cell(entry.density, 6),
                 report::Table::cell(static_cast<double>(cumulative) /
                                         static_cast<double>(
                                             ranking.total_hosts),
                                     3)});
  }
  std::printf("%s", out.to_text().c_str());

  // Selection: the paper's stopping rule at phi = 0.95.
  core::SelectionParams params;
  params.phi = 0.95;
  const core::Selection6 selection =
      core::select_by_density(ranking, params);
  std::printf(
      "\nselection: k=%zu prefixes cover %.1f%% of known-active hosts "
      "with %llu of %llu announced /64s (%.4f%%)\n",
      selection.k(), 100.0 * selection.host_coverage(),
      static_cast<unsigned long long>(selection.selected_addresses),
      static_cast<unsigned long long>(selection.advertised_addresses),
      100.0 * selection.space_coverage());

  // Scan scope: selection minus blocklist, candidates from the hitlist.
  // The blocked /64 is one of the hitlist's populated subnets, so the
  // filter visibly drops candidates below the hitlist size.
  scan::Blocklist blocklist;
  blocklist.add(net::Ipv6Prefix::parse_or_throw("2001:db8:5000:3::/64"));
  scan::ScanScope6 scope(selection.prefixes, blocklist);
  scope.add_candidates(hitlist);
  std::printf(
      "scope: %zu of %zu hitlist targets admitted (blocklist + "
      "selection filtered %zu); a cycle probes %zu candidates\n",
      scope.candidate_count(), hitlist.size(),
      hitlist.size() - scope.candidate_count(), scope.candidate_count());

  // Seal the derived state into a TSIM image and reload it zero-copy —
  // the same millisecond cold-start path v4 workers use.
  const std::string image_path = "demo6.tsim";
  state::save_image(image_path, partition, ranking);
  const auto image = state::StateImage6::load(image_path);
  image.verify();
  const auto reencoded =
      state::encode_image(image.partition(), image.ranking().materialize());
  const auto original = state::encode_image(partition, ranking);
  std::printf(
      "\nTSIM: sealed %zu cells / %zu ranked prefixes into %s (%zu "
      "bytes, %s), reloaded zero-copy, re-encode bit-identical: %s\n",
      image.info().cell_count, image.info().ranked_count,
      image_path.c_str(), image.info().file_bytes,
      net::address_family_name(image.info().family).data(),
      reencoded == original ? "yes" : "NO (BUG)");

  std::printf(
      "\nBlueprint: scanning candidate addresses only in the densest "
      "prefixes covers most known-active v6 hosts while touching a "
      "vanishing fraction of announced space — the TASS trade-off, seeded "
      "from hitlists instead of full scans, now end to end on the "
      "family-generic production pipeline.\n");
  return reencoded == original ? 0 : 1;
}
