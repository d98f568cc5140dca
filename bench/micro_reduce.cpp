// Prefix-reduction micro-benchmark: bgp::reduce over a RIB-shaped
// selection, reporting the reduction-ratio-vs-overshoot curve and the
// ScanScope construction speedup the smaller list buys.
//
// Plain executable (no google-benchmark dependency) so it always builds
// and doubles as a ctest bench-smoke test. Prints one machine-readable
// JSON object on stdout for BENCH tracking; human-readable notes go to
// stderr. The run is also a sampled correctness check and exits non-zero
// on any violation:
//   * every original prefix is fully covered by the reduced list;
//   * union_size(reduced) - union_size(original) == overshoot_addresses;
//   * the overshoot never exceeds the requested cap;
//   * the merge curve is monotone (sizes fall, overshoot never does);
//   * sampled addresses of the original ScanScope stay in scope after
//     reduction (with the blocklist applied to both);
//   * the headline reduction ratio at the 5% cap is at least 5x (the
//     world's structure is scale-free, so this holds at smoke sizes too).
//
// The synthetic world mimics a density selection: hot /16 regions keep
// ~96% of their /24 cells (the selection wants nearly the whole region,
// holes are unresponsive pockets), cold regions keep ~5% (a few dense
// cells in sparse space). Reduction should collapse hot regions to a
// handful of prefixes for a few percent overshoot and leave cold cells
// alone — exactly the behaviour the curve makes visible.
//
// Usage: micro_reduce [--prefixes N] [--seed S]
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bgp/reduce.hpp"
#include "net/interval.hpp"
#include "net/prefix.hpp"
#include "scan/blocklist.hpp"
#include "scan/scope.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;
using Aggregate = bgp::BasicAggregate<net::Ipv4Family>;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// RIB-shaped selection in non-reserved space (64.0.0.0 upward, clear of
// the default-blocklist ranges): /16 regions that are either hot (~96%
// of their /24 cells selected) or cold (~5%).
std::vector<net::Prefix> synthesize_selection(std::size_t count,
                                              std::uint64_t seed) {
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(count);
  for (std::uint32_t region = 0; prefixes.size() < count; ++region) {
    if (region >= 64u * 256u) break;  // 64.0.0.0..127.255.0.0 exhausted
    const std::uint32_t base =
        ((64u + (region >> 8)) << 24) | ((region & 255u) << 16);
    const bool hot = (util::mix64(seed, region) & 1u) != 0;
    const std::uint64_t keep_pct = hot ? 96 : 5;
    for (std::uint32_t cell = 0;
         cell < 256u && prefixes.size() < count; ++cell) {
      const std::uint32_t network = base | (cell << 8);
      if (util::mix64(seed ^ 0x9e3779b97f4a7c15ull, network) % 100 <
          keep_pct) {
        prefixes.emplace_back(net::Ipv4Address(network), 24);
      }
    }
  }
  return prefixes;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t prefix_count = 120'000;
  std::uint64_t seed = 2016;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
      return 2;
    }
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0') {
      std::fprintf(stderr, "not a number: '%s'\n", argv[i + 1]);
      return 2;
    }
    if (std::strcmp(argv[i], "--prefixes") == 0) {
      prefix_count = value;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = value;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: micro_reduce [--prefixes N] "
                   "[--seed S]\n",
                   argv[i]);
      return 2;
    }
  }
  if (prefix_count == 0) prefix_count = 1;

  const auto selection = synthesize_selection(prefix_count, seed);
  const std::uint64_t original_union = Aggregate::union_size(selection);
  const auto aggregated = Aggregate::aggregate(selection);
  std::fprintf(stderr, "# world: %zu /24 prefixes (%zu aggregated), %" PRIu64
                       " addresses\n",
               selection.size(), aggregated.size(), original_union);

  // The ratio-vs-overshoot curve: one full reduction per cap. The 5%
  // point is the headline and keeps its full result for the checks
  // below.
  constexpr double kCapsPct[] = {0.0, 1.0, 2.0, 5.0, 10.0};
  bgp::ReduceResult headline;
  double reduce_ms = 0.0;
  struct CurveRow {
    double cap_pct = 0.0;
    std::size_t reduced = 0;
    double ratio = 0.0;
    std::uint64_t overshoot = 0;
    std::uint64_t merges = 0;
  };
  std::vector<CurveRow> rows;
  for (const double cap_pct : kCapsPct) {
    bgp::ReduceParams params;
    params.max_overshoot = cap_pct / 100.0;
    const auto start = std::chrono::steady_clock::now();
    auto result = bgp::reduce(std::span<const net::Prefix>(selection),
                              params);
    const double elapsed = ms_since(start);

    // --- cross-checks (every cap, not just the headline) --------------
    const auto reduced_set = net::IntervalSet::of_prefixes(result.prefixes);
    for (const net::Prefix prefix : selection) {
      if (!reduced_set.contains_all(net::Interval::of(prefix))) {
        std::fprintf(stderr, "COVERAGE LOST at cap %.1f%%: %s\n", cap_pct,
                     prefix.to_string().c_str());
        return 1;
      }
    }
    const std::uint64_t reduced_union = Aggregate::union_size(result.prefixes);
    if (reduced_union - original_union != result.overshoot_addresses) {
      std::fprintf(stderr,
                   "OVERSHOOT MISCOUNT at cap %.1f%%: union grew by %" PRIu64
                   ", reported %" PRIu64 "\n",
                   cap_pct, reduced_union - original_union,
                   result.overshoot_addresses);
      return 1;
    }
    if (result.overshoot_fraction() > cap_pct / 100.0 + 1e-9) {
      std::fprintf(stderr, "OVERSHOOT CAP EXCEEDED at cap %.1f%%: %.6f%%\n",
                   cap_pct, 100.0 * result.overshoot_fraction());
      return 1;
    }
    for (std::size_t i = 1; i < result.curve.size(); ++i) {
      if (result.curve[i].prefixes >= result.curve[i - 1].prefixes ||
          result.curve[i].overshoot_addresses <
              result.curve[i - 1].overshoot_addresses) {
        std::fprintf(stderr, "NON-MONOTONE CURVE at cap %.1f%% point %zu\n",
                     cap_pct, i);
        return 1;
      }
    }

    CurveRow row;
    row.cap_pct = cap_pct;
    row.reduced = result.prefixes.size();
    row.ratio = result.reduction_ratio();
    row.overshoot = result.overshoot_addresses;
    row.merges = result.merges;
    rows.push_back(row);
    std::fprintf(stderr,
                 "# cap %5.1f%%: %6zu prefixes (%6.1fx), overshoot %" PRIu64
                 " addresses (%.3f%%), %" PRIu64 " merges, %.3f ms\n",
                 cap_pct, row.reduced, row.ratio, row.overshoot,
                 100.0 * result.overshoot_fraction(), row.merges, elapsed);
    if (cap_pct == 5.0) {
      headline = std::move(result);
      reduce_ms = elapsed;
    }
  }

  const double ratio_at_5pct = headline.reduction_ratio();
  if (ratio_at_5pct < 5.0) {
    std::fprintf(stderr,
                 "HEADLINE RATIO TOO LOW: %.2fx at the 5%% cap (need 5x)\n",
                 ratio_at_5pct);
    return 1;
  }

  // --- scope construction: original selection vs reduced list ---------
  // A small blocklist inside the world keeps the subtraction path honest
  // (and checks that overshoot never resurrects blocked space).
  scan::Blocklist blocklist;
  blocklist.add(net::Prefix::parse_or_throw("64.3.16.0/20"));
  blocklist.add(net::Prefix::parse_or_throw("65.128.0.0/12"));
  blocklist.add(net::Prefix::parse_or_throw("70.7.77.0/24"));

  constexpr int kReps = 3;
  double orig_ms = 1e300;
  double reduced_ms = 1e300;
  scan::ScanScope orig_scope;
  scan::ScanScope reduced_scope;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    orig_scope = scan::ScanScope(selection, blocklist);
    orig_ms = std::min(orig_ms, ms_since(start));
    start = std::chrono::steady_clock::now();
    reduced_scope = scan::ScanScope(
        std::span<const net::Prefix>(headline.prefixes), blocklist);
    reduced_ms = std::min(reduced_ms, ms_since(start));
  }
  const double speedup = reduced_ms > 0.0 ? orig_ms / reduced_ms : 0.0;

  // Sampled membership: everything the original scope probes, the
  // reduced scope still probes; and blocked space stays blocked.
  const net::AddressIndexer indexer(orig_scope.targets());
  util::Rng rng(seed);
  for (int probe = 0; probe < 20000 && indexer.size() > 0; ++probe) {
    const net::Ipv4Address address =
        indexer.at(rng.bounded(indexer.size()));
    if (!reduced_scope.contains(address)) {
      std::fprintf(stderr, "SCOPE ADDRESS LOST: %s\n",
                   address.to_string().c_str());
      return 1;
    }
    if (blocklist.blocks(address)) {
      std::fprintf(stderr, "BLOCKED ADDRESS IN SCOPE: %s\n",
                   address.to_string().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "# scope build: %.3f ms original (%zu intervals) vs %.3f ms "
               "reduced (%zu intervals), %.1fx\n",
               orig_ms, orig_scope.targets().interval_count(), reduced_ms,
               reduced_scope.targets().interval_count(), speedup);

  std::printf("{\"bench\":\"micro_reduce\",\"prefixes\":%zu,"
              "\"aggregated\":%zu,\"seed\":%" PRIu64 ",\"curve\":[",
              selection.size(), aggregated.size(), seed);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CurveRow& r = rows[i];
    std::printf("%s{\"cap_pct\":%.1f,\"reduced\":%zu,\"ratio\":%.2f,"
                "\"overshoot_addresses\":%" PRIu64 ",\"merges\":%" PRIu64
                "}",
                i == 0 ? "" : ",", r.cap_pct, r.reduced, r.ratio,
                r.overshoot, r.merges);
  }
  std::printf("],\"reduce_ratio_at_5pct\":%.2f,\"reduce_ms\":%.3f,"
              "\"scope_build_orig_ms\":%.3f,\"scope_build_reduced_ms\":%.3f,"
              "\"scope_build_speedup\":%.2f,\"intervals_orig\":%zu,"
              "\"intervals_reduced\":%zu}\n",
              ratio_at_5pct, reduce_ms, orig_ms, reduced_ms, speedup,
              orig_scope.targets().interval_count(),
              reduced_scope.targets().interval_count());
  return 0;
}
