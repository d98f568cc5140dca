// Kernel dispatch for the per-block histogram step of
// BasicPrefixPartition::tally_cells — the inner loop of the sharded
// attribution path (core::attribute) for address lists.
//
// Same architecture as trie/lpm_kernels.hpp: a table of plain function
// pointers selected at runtime through util::cpu, with the scalar loop
// as the always-compiled reference and the AVX2 variant exported by
// tally_avx2.cpp (the only bgp/ TU compiled with -mavx2; nullptr when
// the build cannot target AVX2). The AVX2 kernel vectorises the
// attributed/unattributed classification (8-wide compare against the
// no-cell sentinel + movemask popcount) and then increments only the
// surviving cells — the histogram write itself is a scatter and stays
// scalar. Bit-identical to the scalar loop for any input.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.hpp"

namespace tass::bgp::detail {

/// The sentinel the kernels treat as "no covering cell". Must equal
/// BasicPrefixPartition::kNoCell — static_asserted at the call site in
/// partition.hpp (this header cannot name the partition template
/// without dragging the whole index in).
inline constexpr std::uint32_t kTallyNoCell = 0x7fffffffu;

/// The histogram kernel over uint32 per-cell counts, the one count width
/// the pipeline uses. It accumulates into the caller's running
/// attributed/unattributed counters.
struct TallyKernels {
  using TallyFn = void (*)(const std::uint32_t* cells, std::size_t n,
                           std::uint32_t* counts, std::uint64_t& attributed,
                           std::uint64_t& unattributed);
  TallyFn tally = nullptr;
  const char* name = "scalar";
};

/// The kernel table for `level`; kAvx2 degrades to scalar in builds
/// without AVX2 support. Defined in tally_kernels.cpp.
const TallyKernels& tally_kernels(util::cpu::SimdLevel level) noexcept;

/// The table matching util::cpu's cached probe (hardware capability +
/// TASS_FORCE_SCALAR override).
inline const TallyKernels& active_tally_kernels() noexcept {
  return tally_kernels(util::cpu::active_level());
}

// Exported by tally_avx2.cpp; nullptr when that TU was built without
// AVX2 codegen.
extern const TallyKernels::TallyFn kAvx2Tally;

}  // namespace tass::bgp::detail
