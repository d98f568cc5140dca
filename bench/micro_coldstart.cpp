// Cold-start micro-benchmark: TSIM state-image load versus rebuilding
// the same derived state from raw inputs.
//
// Both paths start from durable artifacts on disk and end with an
// m-partition + LpmIndex + density ranking ready to serve a scan cycle:
//
//   rebuild: the paper pipeline — parse the pfx2as table, merge it into
//            a RoutingTable, deaggregate into the m-partition (Figure 2,
//            which also builds the LpmIndex), rank the per-cell counts;
//   image:   StateImage::load — mmap, checksum + structural validation,
//            pointer fixup. No parse, no deaggregation, no rebuild.
//
// The synthetic table announces covering prefixes plus more-specifics
// inside them (like a real BGP table), so the rebuild side pays the real
// deaggregation step. The per-cell host counts are handed to both paths
// for free (as in micro_delta): a real cold start would also have to
// re-derive them from a census snapshot, so the reported speedup is a
// lower bound.
//
// Plain executable (no google-benchmark dependency) so it always builds
// and doubles as a ctest bench-smoke test. Prints one machine-readable
// JSON object on stdout for BENCH tracking; human-readable notes go to
// stderr. Every run cross-checks the loaded view against the fresh build
// — bit-identical rankings, identical lookups and identical tally_cells
// output — and exits non-zero on any disagreement, so the benchmark is
// also a sampled correctness check.
//
// Usage: micro_coldstart [--prefixes N] [--iters K] [--lookups M]
//                        [--seed S]
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bgp/deaggregate.hpp"
#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "net/prefix.hpp"
#include "state/image.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A RIB-shaped announcement table: disjoint covering prefixes drawn with
// the buddy allocator, ~55% of them announcing 1+Geom more-specifics
// (possibly nested) inside — the shape whose deaggregation the paper's
// m-partition is built from. Keeps drawing coverings until the
// deaggregated table reaches `target_cells` cells.
std::vector<bgp::Pfx2AsRecord> synthesize_table(std::size_t target_cells,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net::Prefix> space{
      net::Prefix::parse_or_throw("0.0.0.0/2"),
      net::Prefix::parse_or_throw("64.0.0.0/2"),
      net::Prefix::parse_or_throw("128.0.0.0/2"),
      net::Prefix::parse_or_throw("192.0.0.0/2"),
  };
  census::BuddyAllocator allocator(space);
  std::vector<bgp::Pfx2AsRecord> records;
  std::size_t cells = 0;
  while (cells < target_cells) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.03) {
      length = 12 + static_cast<int>(rng.bounded(4));
    } else if (roll < 0.38) {
      length = 16 + static_cast<int>(rng.bounded(4));
    } else {
      length = 20 + static_cast<int>(rng.bounded(4));
    }
    const auto covering = allocator.allocate(length, rng);
    if (!covering) {
      std::fprintf(stderr, "address space exhausted at %zu cells\n", cells);
      break;
    }
    const auto origin =
        static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({*covering, {origin}});
    std::vector<net::Prefix> inside;
    if (rng.chance(0.55)) {
      int specifics = 1;
      while (specifics < 6 && rng.chance(0.58)) ++specifics;
      for (int s = 0; s < specifics; ++s) {
        const int extra = 1 + static_cast<int>(rng.bounded(6));
        const int sub_length = std::min(covering->length() + extra, 24);
        if (sub_length <= covering->length()) continue;
        const auto offset =
            rng.bounded(std::uint64_t{1}
                        << (sub_length - covering->length()));
        const net::Prefix specific(
            net::Ipv4Address(
                covering->network().value() +
                static_cast<std::uint32_t>(
                    offset << (32 - sub_length))),
            sub_length);
        inside.push_back(specific);
        records.push_back({specific, {origin}});
      }
    }
    // Deaggregating one covering is independent of the rest of the
    // table, so the running cell count is exact.
    cells += bgp::deaggregate(*covering, inside).size();
  }
  return records;
}

// Deterministic per-prefix host count, identical for both paths.
std::uint32_t synthetic_count(net::Prefix prefix, std::uint64_t seed) {
  const std::uint64_t h =
      util::mix64(seed, (static_cast<std::uint64_t>(prefix.network().value())
                         << 6) |
                            static_cast<std::uint64_t>(prefix.length()));
  if ((h & 7u) < 3u) return 0;  // ~40% of cells are host-free
  return static_cast<std::uint32_t>(1 + (h >> 3) % 500);
}

bool rankings_agree(const core::DensityRanking& a,
                    const core::DensityRankingView& b) {
  if (a.total_hosts != b.total_hosts ||
      a.advertised_addresses != b.advertised_addresses ||
      a.ranked.size() != b.ranked.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].index != b.ranked[i].index ||
        a.ranked[i].prefix != b.ranked[i].prefix ||
        a.ranked[i].hosts != b.ranked[i].hosts ||
        a.ranked[i].density != b.ranked[i].density ||
        a.ranked[i].host_share != b.ranked[i].host_share) {
      return false;
    }
  }
  return true;
}

}  // namespace

constexpr char kUsage[] =
    "usage: micro_coldstart [--prefixes N] [--iters K] [--lookups M] "
    "[--seed S]\n";

int main(int argc, char** argv) {
  std::uint64_t prefix_count = 120'000;
  std::uint64_t lookup_count = 200'000;
  std::uint64_t iter_count = 5;
  std::uint64_t seed = 2016;
  // Each flag's accepted range. Cells are at most /24s, so no table has
  // more than 2^24 of them; lookups are held as 4-byte addresses.
  struct Flag {
    const char* name;
    std::uint64_t* value;
    std::uint64_t min;
    std::uint64_t max;
  };
  const Flag flags[] = {
      {"--prefixes", &prefix_count, 1, std::uint64_t{1} << 24},
      {"--iters", &iter_count, 1, 10'000},
      {"--lookups", &lookup_count, 0, std::uint64_t{1} << 28},
      {"--seed", &seed, 0, std::numeric_limits<std::uint64_t>::max()},
  };
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
      return 2;
    }
    const Flag* flag = std::find_if(
        std::begin(flags), std::end(flags),
        [&](const Flag& f) { return std::strcmp(argv[i], f.name) == 0; });
    if (flag == std::end(flags)) {
      std::fprintf(stderr, "unknown flag '%s'\n%s", argv[i], kUsage);
      return 2;
    }
    char* end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0' || argv[i + 1][0] == '-') {
      std::fprintf(stderr, "not a number: '%s'\n", argv[i + 1]);
      return 2;
    }
    if (errno == ERANGE || value < flag->min || value > flag->max) {
      std::fprintf(stderr,
                   "%s must be in [%" PRIu64 ", %" PRIu64 "], got '%s'\n%s",
                   flag->name, flag->min, flag->max, argv[i + 1], kUsage);
      return 2;
    }
    *flag->value = value;
  }
  const int iters = static_cast<int>(iter_count);

  // ---- setup (untimed): the durable artifacts both paths start from --
  // (pid-suffixed so concurrent runs — e.g. ctest in two build trees —
  // cannot clobber each other's inputs mid-iteration)
  const std::string dir = std::getenv("TMPDIR") ? std::getenv("TMPDIR")
                                                : std::string("/tmp");
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string pfx2as_path =
      dir + "/coldstart_bench." + tag + ".pfx2as";
  const std::string image_path = dir + "/coldstart_bench." + tag + ".tsim";

  const auto records = synthesize_table(prefix_count, seed);
  bgp::save_pfx2as(pfx2as_path, records);
  const bgp::PrefixPartition partition =
      bgp::RoutingTable::from_pfx2as(records).m_partition();
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) {
    counts[i] = synthetic_count(partition.prefix(i), seed);
  }
  state::save_image(
      image_path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  // Warm the page cache for both inputs (untimed): the design point is N
  // worker processes attaching to one shared image, so all but the very
  // first cold start find the pages resident — and the pfx2as file gets
  // the same treatment so the rebuild side is measured warm too.
  {
    const state::StateImage warm = state::StateImage::load(image_path);
    warm.verify();  // also proves the image passes the deep audit
    (void)bgp::load_pfx2as(pfx2as_path, /*strict=*/false);
  }

  // ---- timed: rebuild-from-raw-inputs vs image load ------------------
  // Per-phase minima over the iterations are the headline numbers (on a
  // shared machine, scheduler and cache noise is strictly additive);
  // means ride along in the JSON for context.
  double parse_sum = 0.0, parse_min = 1e300;
  double build_sum = 0.0, build_min = 1e300;
  double load_sum = 0.0, load_min = 1e300;
  std::size_t image_bytes = 0;
  for (int iter = 0; iter < iters; ++iter) {
    auto start = std::chrono::steady_clock::now();
    const auto parsed = bgp::load_pfx2as(pfx2as_path, /*strict=*/false);
    const double parse_one = ms_since(start);
    parse_sum += parse_one;
    parse_min = std::min(parse_min, parse_one);

    start = std::chrono::steady_clock::now();
    const bgp::PrefixPartition fresh =
        bgp::RoutingTable::from_pfx2as(parsed).m_partition();
    if (fresh.size() != counts.size()) {
      std::fprintf(stderr, "REBUILD CELL-COUNT MISMATCH at iter %d\n",
                   iter);
      return 1;
    }
    const auto fresh_ranking =
        core::rank_by_density(counts, fresh, core::PrefixMode::kMore);
    const double build_one = ms_since(start);
    build_sum += build_one;
    build_min = std::min(build_min, build_one);

    start = std::chrono::steady_clock::now();
    const state::StateImage image = state::StateImage::load(image_path);
    const double load_one = ms_since(start);
    load_sum += load_one;
    load_min = std::min(load_min, load_one);
    image_bytes = image.info().file_bytes;

    // ---- cross-check (not timed): the loaded view must be
    // bit-identical to the fresh build ------------------------------
    if (!rankings_agree(fresh_ranking, image.ranking())) {
      std::fprintf(stderr, "RANKING MISMATCH at iter %d\n", iter);
      return 1;
    }
    util::Rng rng(util::mix64(seed, static_cast<std::uint64_t>(iter)));
    std::vector<std::uint32_t> probes;
    probes.reserve(lookup_count);
    for (std::size_t i = 0; i < lookup_count; ++i) {
      probes.push_back(static_cast<std::uint32_t>(rng.bounded(1ull << 32)));
    }
    std::vector<std::uint32_t> want(probes.size());
    std::vector<std::uint32_t> got(probes.size());
    fresh.locate_many(probes, want);
    image.partition().locate_many(probes, got);
    if (want != got) {
      std::fprintf(stderr, "LOOKUP MISMATCH at iter %d\n", iter);
      return 1;
    }
    std::vector<std::uint32_t> want_tally(fresh.size(), 0);
    std::vector<std::uint32_t> got_tally(image.partition().size(), 0);
    std::uint64_t want_attr = 0, want_un = 0, got_attr = 0, got_un = 0;
    fresh.tally_cells(probes, want_tally, want_attr, want_un);
    image.partition().tally_cells(probes, got_tally, got_attr, got_un);
    if (want_tally != got_tally || want_attr != got_attr ||
        want_un != got_un) {
      std::fprintf(stderr, "TALLY MISMATCH at iter %d\n", iter);
      return 1;
    }
  }
  const double rebuild_ms = parse_min + build_min;
  const double speedup = load_min > 0.0 ? rebuild_ms / load_min : 0.0;
  const double build_speedup = load_min > 0.0 ? build_min / load_min : 0.0;

  std::remove(pfx2as_path.c_str());
  std::remove(image_path.c_str());

  std::fprintf(stderr,
               "# %zu routes -> %zu cells: rebuild %8.3f ms (parse %.3f "
               "+ deaggregate/build %.3f), image load %6.3f ms (%zu "
               "bytes) — speedup %.1fx (%.1fx vs build alone)\n",
               records.size(), partition.size(), rebuild_ms, parse_min,
               build_min, load_min, image_bytes, speedup, build_speedup);

  std::printf(
      "{\"bench\":\"micro_coldstart\",\"prefixes\":%zu,\"routes\":%zu,"
      "\"iters\":%d,\"seed\":%" PRIu64 ",\"image_bytes\":%zu,"
      "\"parse_ms\":%.3f,\"build_ms\":%.3f,\"rebuild_ms\":%.3f,"
      "\"load_ms\":%.3f,\"parse_ms_mean\":%.3f,\"build_ms_mean\":%.3f,"
      "\"load_ms_mean\":%.3f,\"speedup\":%.2f,\"build_speedup\":%.2f}\n",
      partition.size(), records.size(), iters, seed, image_bytes,
      parse_min, build_min, rebuild_ms, load_min, parse_sum / iters,
      build_sum / iters, load_sum / iters, speedup, build_speedup);
  return 0;
}
