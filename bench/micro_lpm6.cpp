// IPv6 LPM substrate micro-benchmark: trie::LpmIndex6 on a v6-RIB-shaped
// synthetic table, cross-checked against a naive longest-match oracle on
// EVERY lookup.
//
// Plain executable (no google-benchmark dependency) so it always builds
// and can double as a ctest smoke test. Prints one machine-readable JSON
// object on stdout for BENCH tracking; human-readable notes go to stderr.
// Exits non-zero if the index and the oracle ever disagree — the
// benchmark is also a full correctness check.
//
// The oracle is bench/lpm_oracle.hpp's per-length exact-match maps. Every
// timed address — the random stream and every prefix boundary +/- 1
// (including the 64-bit hi/lo half edges) — is resolved by both and
// compared.
//
// Usage: micro_lpm6 [--prefixes N] [--lookups M] [--seed S]
//                   [--kernel auto|scalar|simd]
//
// --kernel mirrors micro_lpm's flag. The v6 "simd"-tier kernel is the
// portable pipelined multi-stream walk (memory-level parallelism, no
// vector ISA requirement), so unlike the v4 bench it never skips; the
// flag still pins which kernel table the timed batch uses, and the
// pipelined leg is verified word-for-word against the scalar kernel on
// every timed iteration (and against the oracle in the full sweep).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "lpm_oracle.hpp"
#include "net/family.hpp"
#include "net/ipv6.hpp"
#include "trie/lpm_index6.hpp"
#include "trie/lpm_kernels.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;
using Entry = trie::LpmIndex6::Entry;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// v6-RIB-shaped prefix table: /48 dominates real v6 tables, /32 and the
// /36-/44 allocation ladder carry most of the rest, a few short covers
// (/20../29) and a thin tail of long more-specifics up to /64.
std::vector<Entry> synthesize_table(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Entry> table;
  table.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.04) {
      length = 20 + static_cast<int>(rng.bounded(10));
    } else if (roll < 0.20) {
      length = 32;
    } else if (roll < 0.45) {
      length = 36 + static_cast<int>(rng.bounded(9));
    } else if (roll < 0.93) {
      length = 48;
    } else {
      length = 49 + static_cast<int>(rng.bounded(16));
    }
    // Keep networks inside 2000::/3 (the global unicast space real
    // tables announce) so nesting actually happens.
    const std::uint64_t hi =
        0x2000000000000000ULL | (rng() >> 3);
    const net::Ipv6Address network(hi, rng());
    table.push_back({net::Ipv6Prefix(network, length),
                     static_cast<std::uint32_t>(i & 0xffffff)});
  }
  return table;
}

std::uint64_t to_u64(double value) {
  return static_cast<std::uint64_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t prefix_count = 200'000;
  std::size_t lookup_count = 1'000'000;
  std::uint64_t seed = 2016;
  std::string kernel_choice = "auto";
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
      return 2;
    }
    if (std::strcmp(argv[i], "--kernel") == 0) {
      kernel_choice = argv[i + 1];
      if (kernel_choice != "auto" && kernel_choice != "scalar" &&
          kernel_choice != "simd") {
        std::fprintf(stderr, "--kernel must be auto|scalar|simd, got '%s'\n",
                     argv[i + 1]);
        return 2;
      }
      continue;
    }
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0') {
      std::fprintf(stderr, "not a number: '%s'\n", argv[i + 1]);
      return 2;
    }
    if (std::strcmp(argv[i], "--prefixes") == 0) {
      prefix_count = value;
    } else if (std::strcmp(argv[i], "--lookups") == 0) {
      lookup_count = value;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = value;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: micro_lpm6 [--prefixes N] "
                   "[--lookups M] [--seed S] "
                   "[--kernel auto|scalar|simd]\n",
                   argv[i]);
      return 2;
    }
  }
  if (prefix_count == 0) prefix_count = 1;
  if (lookup_count == 0) lookup_count = 1;

  const auto table = synthesize_table(prefix_count, seed);

  // lpm6_build_ms is the median of kBuildRuns builds, not one noisy sample;
  // the last index built serves the lookups.
  constexpr int kBuildRuns = 5;
  std::optional<trie::LpmIndex6> built;
  std::vector<double> build_runs;
  for (int run = 0; run < kBuildRuns; ++run) {
    built.reset();
    const auto run_start = std::chrono::steady_clock::now();
    built.emplace(table);
    build_runs.push_back(ms_since(run_start));
  }
  const trie::LpmIndex6& index = *built;
  std::ranges::sort(build_runs);
  const double build_ms = build_runs[kBuildRuns / 2];

  auto start = std::chrono::steady_clock::now();
  const bench::NaiveLpmOracle<net::Ipv6Family> oracle(table);
  const double oracle_build_ms = ms_since(start);

  // The address stream: half targeted (a random host inside a random
  // table prefix, so deep matches are exercised), half random inside
  // 2000::/3, plus every prefix boundary +/- 1 — which crosses the
  // 64-bit hi/lo half edge whenever a prefix ends on it.
  util::Rng rng(util::mix64(seed, 0xADD2E55ULL));
  std::vector<net::Ipv6Address> addresses;
  addresses.reserve(lookup_count + 4 * table.size());
  for (std::size_t i = 0; i < lookup_count; ++i) {
    if ((i & 1) == 0) {
      // Targeted: random host bits under a random table prefix.
      const net::Ipv6Prefix prefix =
          table[rng.bounded(table.size())].prefix;
      const net::Ipv6Address random(rng(), rng());
      const int len = prefix.length();
      std::uint64_t hi;
      std::uint64_t lo;
      if (len <= 64) {
        const std::uint64_t host_mask = len == 64 ? 0 : ~0ULL >> len;
        hi = prefix.network().hi() | (random.hi() & host_mask);
        lo = random.lo();
      } else {
        hi = prefix.network().hi();
        const std::uint64_t host_mask =
            len == 128 ? 0 : ~0ULL >> (len - 64);
        lo = prefix.network().lo() | (random.lo() & host_mask);
      }
      addresses.emplace_back(hi, lo);
    } else {
      addresses.emplace_back(0x2000000000000000ULL | (rng() >> 3), rng());
    }
  }
  const std::size_t timed_count = addresses.size();
  for (const Entry& entry : table) {
    const net::Ipv6Address first = entry.prefix.first();
    const net::Ipv6Address last = entry.prefix.last();
    addresses.push_back(first);
    addresses.push_back(last);
    if (first.lo() != 0 || first.hi() != 0) {
      const std::uint64_t borrow = first.lo() == 0 ? 1 : 0;
      addresses.emplace_back(first.hi() - borrow, first.lo() - 1);
    }
    if (last.lo() != ~0ULL || last.hi() != ~0ULL) {
      const std::uint64_t carry = last.lo() == ~0ULL ? 1 : 0;
      addresses.emplace_back(last.hi() + carry, last.lo() + 1);
    }
  }

  // Full differential sweep: EVERY address through the index (scalar
  // lookup, the scalar batch kernel, and the pipelined kernel) and the
  // oracle. Any disagreement is a hard failure.
  std::vector<std::uint32_t> batched(addresses.size());
  std::vector<std::uint32_t> pipelined(addresses.size());
  index.lookup_many(addresses, batched, util::cpu::SimdLevel::kScalar);
  index.lookup_many(addresses, pipelined, util::cpu::SimdLevel::kAvx2);
  std::size_t verified = 0;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const std::uint32_t want = oracle.lookup(addresses[i]);
    const std::uint32_t got = index.lookup(addresses[i]);
    if (got != want || batched[i] != want || pipelined[i] != want) {
      std::fprintf(stderr,
                   "MISMATCH at %s: index=%u batched=%u pipelined=%u "
                   "oracle=%u\n",
                   addresses[i].to_string().c_str(), got, batched[i],
                   pipelined[i], want);
      return 1;
    }
    ++verified;
  }

  // Timed runs on the random stream only (the boundary probes above are
  // correctness inputs, not a representative workload).
  const std::span<const net::Ipv6Address> timed(addresses.data(),
                                                timed_count);
  std::uint64_t sink = 0;
  start = std::chrono::steady_clock::now();
  for (const net::Ipv6Address addr : timed) {
    const std::uint32_t value = index.lookup(addr);
    sink += value != trie::LpmIndex6::kNoMatch ? value : 0;
  }
  const double lookup_ms = ms_since(start);

  // Batched runs: best of kBatchIters per kernel table. `simd` here is
  // the pipelined multi-stream walk — portable, so it never skips; its
  // output is re-checked against the scalar kernel's every iteration.
  const auto& simd_table = trie::lpm_kernel_table<net::Ipv6Family>(
      util::cpu::SimdLevel::kAvx2);
  const bool run_simd =
      kernel_choice == "simd" ||
      (kernel_choice == "auto" && !util::cpu::probe().forced_scalar);

  constexpr int kBatchIters = 5;
  const std::span<std::uint32_t> timed_out =
      std::span(batched).first(timed_count);
  double batch_ms = 0;
  for (int iter = 0; iter < kBatchIters; ++iter) {
    start = std::chrono::steady_clock::now();
    index.lookup_many(timed, timed_out, util::cpu::SimdLevel::kScalar);
    const double elapsed = ms_since(start);
    if (iter == 0 || elapsed < batch_ms) batch_ms = elapsed;
  }
  sink += batched[timed_count - 1];

  double simd_ms = 0;
  if (run_simd) {
    const std::span<std::uint32_t> simd_out =
        std::span(pipelined).first(timed_count);
    for (int iter = 0; iter < kBatchIters; ++iter) {
      start = std::chrono::steady_clock::now();
      index.lookup_many(timed, simd_out, util::cpu::SimdLevel::kAvx2);
      const double elapsed = ms_since(start);
      if (iter == 0 || elapsed < simd_ms) simd_ms = elapsed;
      for (std::size_t i = 0; i < timed_count; ++i) {
        if (simd_out[i] != timed_out[i]) {
          std::fprintf(stderr,
                       "KERNEL MISMATCH (iter %d) at %s: %s=%u scalar=%u\n",
                       iter, timed[i].to_string().c_str(), simd_table.name,
                       simd_out[i], timed_out[i]);
          return 1;
        }
      }
    }
    sink += pipelined[timed_count - 1];
  }

  const double n = static_cast<double>(timed_count);
  const double rate = n / (lookup_ms / 1e3);
  const double batch_rate = n / (batch_ms / 1e3);
  const double simd_rate = run_simd ? n / (simd_ms / 1e3) : 0;
  const double headline_batch_rate = run_simd ? simd_rate : batch_rate;

  std::fprintf(stderr,
               "# %zu v6 prefixes, %zu timed lookups, %zu verified "
               "against the oracle (sink=%" PRIu64 ")\n"
               "# LpmIndex6 : build %.1f ms, %.2f M lookups/s (batched "
               "%.2f M/s), %.1f MiB\n"
               "# oracle    : build %.1f ms (hash maps per length)\n",
               prefix_count, timed_count, verified, sink, build_ms,
               rate / 1e6, batch_rate / 1e6,
               static_cast<double>(index.memory_bytes()) / (1024 * 1024),
               oracle_build_ms);
  if (run_simd) {
    std::fprintf(stderr,
                 "# %s kernel : batched %.2f M lookups/s, %.2fx over the "
                 "scalar batch (bit-identical on %d iterations)\n",
                 simd_table.name, simd_rate / 1e6, simd_rate / batch_rate,
                 kBatchIters);
  }

  // Machine-readable record for BENCH tracking (one JSON object). The
  // simd keys appear only when the pipelined leg ran.
  std::printf(
      "{\"bench\":\"micro_lpm6\",\"prefixes\":%zu,\"lookups\":%zu,"
      "\"seed\":%" PRIu64 ",\"verified_lookups\":%zu,"
      "\"lpm6_build_ms\":%.3f,\"lpm6_lookups_per_sec\":%" PRIu64 ","
      "\"lpm6_batch_lookups_per_sec\":%" PRIu64 ","
      "\"lpm6_scalar_batch_lookups_per_sec\":%" PRIu64 ","
      "\"lpm6_memory_bytes\":%zu,\"lpm6_nodes\":%zu,\"lpm6_leaves\":%zu",
      prefix_count, timed_count, seed, verified, build_ms, to_u64(rate),
      to_u64(headline_batch_rate), to_u64(batch_rate), index.memory_bytes(),
      index.node_count(), index.leaf_count());
  if (run_simd) {
    std::printf(",\"lpm6_simd_lookups_per_sec\":%" PRIu64 ","
                "\"lpm6_simd_speedup\":%.2f,\"simd_kernel\":\"%s\"",
                to_u64(simd_rate), simd_rate / batch_rate, simd_table.name);
  }
  std::printf(",\"kernel\":\"%s\"}\n",
              run_simd ? simd_table.name : "scalar");
  return 0;
}
