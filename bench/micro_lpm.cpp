// LPM substrate micro-benchmark: the flat trie::LpmIndex on a
// full-RIB-sized synthetic table (~700k prefixes with a realistic length
// distribution), sample-checked against the naive per-length oracle
// (lpm_oracle.hpp).
//
// Plain executable (no google-benchmark dependency) so it always builds
// and can double as a ctest smoke test. Prints one machine-readable JSON
// object on stdout for BENCH tracking; human-readable notes go to stderr.
// Exits non-zero if the index and the oracle ever disagree — the
// benchmark is also a sampled correctness check.
//
// Usage: micro_lpm [--prefixes N] [--lookups M] [--seed S]
//                  [--kernel auto|scalar|simd]
//
// --kernel pins the batch kernel table: `scalar` times only the
// reference walk, `simd` requires the AVX2 kernel (exiting 77 — the
// ctest skip code — when the binary or machine cannot run it), `auto`
// (default) times the SIMD leg whenever the hardware supports it. The
// SIMD leg re-verifies bit-identity against the scalar kernel's output
// on every timed iteration.
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
#include "net/prefix.hpp"
#include "trie/lpm_index.hpp"
#include "trie/lpm_kernels.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace {

using namespace tass;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// RIB-shaped prefix table: bulk in /16../24 (half of a real table is /24),
// a few short covers, a thin tail of more-specifics.
std::vector<trie::LpmIndex::Entry> synthesize_table(std::size_t count,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trie::LpmIndex::Entry> table;
  table.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.03) {
      length = 8 + static_cast<int>(rng.bounded(7));
    } else if (roll < 0.45) {
      length = 15 + static_cast<int>(rng.bounded(7));
    } else if (roll < 0.98) {
      length = 22 + static_cast<int>(rng.bounded(3));
    } else {
      length = 25 + static_cast<int>(rng.bounded(8));
    }
    const auto network = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    table.push_back({net::Prefix(net::Ipv4Address(network), length),
                     static_cast<std::uint32_t>(i & 0xffffff)});
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t prefix_count = 700'000;
  std::size_t lookup_count = 5'000'000;
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
                   "unknown flag '%s'\nusage: micro_lpm [--prefixes N] "
                   "[--lookups M] [--seed S] "
                   "[--kernel auto|scalar|simd]\n",
                   argv[i]);
      return 2;
    }
  }
  // Degenerate sizes would divide by zero-duration timings (and an empty
  // lookup set has no .back()); clamp to something measurable.
  if (prefix_count == 0) prefix_count = 1;
  if (lookup_count == 0) lookup_count = 1;

  const auto table = synthesize_table(prefix_count, seed);

  // lpm_build_ms is the median of kBuildRuns builds, not one noisy sample;
  // the last index built serves the lookups.
  constexpr int kBuildRuns = 5;
  std::optional<trie::LpmIndex> built;
  std::vector<double> build_runs;
  for (int run = 0; run < kBuildRuns; ++run) {
    built.reset();
    const auto run_start = std::chrono::steady_clock::now();
    built.emplace(table);
    build_runs.push_back(ms_since(run_start));
  }
  const trie::LpmIndex& index = *built;
  std::ranges::sort(build_runs);
  const double lpm_build_ms = build_runs[kBuildRuns / 2];

  auto start = std::chrono::steady_clock::now();
  const bench::NaiveLpmOracle<net::Ipv4Family> oracle(table);
  const double oracle_build_ms = ms_since(start);

  // One shared address stream, pre-generated so the RNG is out of the
  // timed loops.
  util::Rng addr_rng(util::mix64(seed, 99));
  std::vector<std::uint32_t> addresses(lookup_count);
  for (auto& a : addresses) {
    a = static_cast<std::uint32_t>(addr_rng.bounded(1ULL << 32));
  }

  // Sampled agreement check before timing anything.
  for (std::size_t i = 0; i < addresses.size(); i += 37) {
    const net::Ipv4Address addr(addresses[i]);
    const std::uint32_t want = oracle.lookup(addr);
    if (index.lookup(addr) != want) {
      std::fprintf(stderr, "MISMATCH at %s: lpm=%u oracle=%u\n",
                   addr.to_string().c_str(), index.lookup(addr), want);
      return 1;
    }
  }

  const auto scalar_pass = [&] {
    std::uint64_t sum = 0;
    for (const std::uint32_t a : addresses) {
      const std::uint32_t value = index.lookup(net::Ipv4Address(a));
      sum += value != trie::LpmIndex::kNoMatch ? value : 0;
    }
    return sum;
  };
  // An untimed pass first brings the index into cache and the core up to
  // clock, so the timed pass measures lookups, not the warm-up.
  std::uint64_t sink = scalar_pass();

  start = std::chrono::steady_clock::now();
  sink += scalar_pass();
  const double lpm_lookup_ms = ms_since(start);

  // Kernel-table setup. `simd` means the AVX2 gather kernel for v4; it
  // needs both a binary built with AVX2 support and a CPU that has it.
  const auto& simd_table = trie::lpm_kernel_table<net::Ipv4Family>(
      util::cpu::SimdLevel::kAvx2);
  const bool simd_compiled = std::strcmp(simd_table.name, "avx2") == 0;
  const util::cpu::Features features = util::cpu::probe();
  bool run_simd = false;
  if (kernel_choice == "simd") {
    if (!simd_compiled || !features.avx2) {
      std::fprintf(stderr,
                   "SKIP: --kernel simd but the AVX2 kernel is "
                   "unavailable (compiled=%d, cpu avx2=%d)\n",
                   simd_compiled ? 1 : 0, features.avx2 ? 1 : 0);
      return 77;  // ctest SKIP_RETURN_CODE
    }
    run_simd = true;
  } else if (kernel_choice == "auto") {
    // Honour TASS_FORCE_SCALAR in auto mode so sanitizer jobs keep
    // exercising only the reference path; an explicit --kernel simd
    // overrides it.
    run_simd = simd_compiled && features.avx2 && !features.forced_scalar;
  }

  // Batched runs: the scalar and SIMD legs INTERLEAVE (scalar, simd,
  // scalar, simd, ...) so both kernels sample the same machine
  // conditions — on shared hardware, timing one leg after the other
  // folds frequency/steal-time drift into the ratio. Best of
  // kBatchIters per leg is the reported number, and the SIMD output is
  // compared word-for-word against the scalar kernel's on EVERY
  // iteration — the bench is also a differential test.
  constexpr int kBatchIters = 5;
  std::vector<std::uint32_t> batched(addresses.size());
  std::vector<std::uint32_t> simd_out;
  if (run_simd) simd_out.resize(addresses.size());
  double lpm_batch_ms = 0;
  double simd_batch_ms = 0;
  for (int iter = 0; iter < kBatchIters; ++iter) {
    start = std::chrono::steady_clock::now();
    index.lookup_many(addresses, batched, util::cpu::SimdLevel::kScalar);
    const double scalar_elapsed = ms_since(start);
    if (iter == 0 || scalar_elapsed < lpm_batch_ms) {
      lpm_batch_ms = scalar_elapsed;
    }
    if (!run_simd) continue;
    start = std::chrono::steady_clock::now();
    index.lookup_many(addresses, simd_out, util::cpu::SimdLevel::kAvx2);
    const double simd_elapsed = ms_since(start);
    if (iter == 0 || simd_elapsed < simd_batch_ms) {
      simd_batch_ms = simd_elapsed;
    }
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      if (simd_out[i] != batched[i]) {
        std::fprintf(stderr,
                     "SIMD MISMATCH (iter %d) at %s: avx2=%u scalar=%u\n",
                     iter,
                     net::Ipv4Address(addresses[i]).to_string().c_str(),
                     simd_out[i], batched[i]);
        return 1;
      }
    }
  }
  sink += batched.back();
  if (run_simd) sink += simd_out.back();

  const double n = static_cast<double>(lookup_count);
  const double lpm_rate = n / (lpm_lookup_ms / 1e3);
  const double batch_rate = n / (lpm_batch_ms / 1e3);
  const double simd_rate = run_simd ? n / (simd_batch_ms / 1e3) : 0;
  // The production batch path is whichever kernel dispatch would pick;
  // the scalar batch rate stays reported on its own key either way.
  const double headline_batch_rate = run_simd ? simd_rate : batch_rate;

  std::fprintf(stderr,
               "# %zu prefixes, %zu lookups (sink=%" PRIu64 ")\n"
               "# LpmIndex : build %.1f ms, %.2f M lookups/s "
               "(batched %.2f M/s), %.1f MiB\n"
               "# oracle   : build %.1f ms (hash maps per length)\n",
               prefix_count, lookup_count, sink, lpm_build_ms,
               lpm_rate / 1e6, batch_rate / 1e6,
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
  // SIMD keys appear only when the SIMD leg actually ran, so a baseline
  // from a non-AVX2 host never carries misleading zeros.
  std::printf(
      "{\"bench\":\"micro_lpm\",\"prefixes\":%zu,\"lookups\":%zu,"
      "\"seed\":%" PRIu64 ",\"oracle_build_ms\":%.3f,"
      "\"lpm_build_ms\":%.3f,"
      "\"lpm_lookups_per_sec\":%.0f,\"lpm_batch_lookups_per_sec\":%.0f,"
      "\"lpm_scalar_batch_lookups_per_sec\":%.0f,"
      "\"lpm_memory_bytes\":%zu,\"lpm_nodes\":%zu,\"lpm_leaves\":%zu",
      prefix_count, lookup_count, seed, oracle_build_ms, lpm_build_ms,
      lpm_rate, headline_batch_rate, batch_rate, index.memory_bytes(),
      index.node_count(), index.leaf_count());
  if (run_simd) {
    std::printf(",\"lpm_simd_lookups_per_sec\":%.0f,"
                "\"lpm_simd_speedup\":%.2f,\"simd_kernel\":\"%s\"",
                simd_rate, simd_rate / batch_rate, simd_table.name);
  }
  std::printf(",\"kernel\":\"%s\"}\n", run_simd ? simd_table.name : "scalar");
  return 0;
}
