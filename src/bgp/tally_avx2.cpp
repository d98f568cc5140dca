// AVX2 cell-tally kernel: the only bgp/ translation unit compiled with
// -mavx2 (see CMakeLists.txt). Classification is vectorised — eight
// cell indices compare against the no-cell sentinel at once and a
// movemask popcount settles attributed/unattributed per block of eight
// — while the counts[cell] increment iterates the surviving lanes via
// the mask's set bits (a histogram scatter has no profitable AVX2
// form). Bit-identical to the scalar reference in tally_kernels.cpp.
#include "bgp/tally_kernels.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <bit>

namespace tass::bgp::detail {

namespace {

void avx2_tally(const std::uint32_t* cells, std::size_t n,
                std::uint32_t* counts, std::uint64_t& attributed,
                std::uint64_t& unattributed) {
  const __m256i no_cell = _mm256_set1_epi32(static_cast<int>(kTallyNoCell));
  std::uint64_t hits = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i block = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cells + i));
    auto valid = static_cast<std::uint32_t>(_mm256_movemask_ps(
                     _mm256_castsi256_ps(
                         _mm256_cmpeq_epi32(block, no_cell)))) ^
                 0xffu;
    hits += std::popcount(valid);
    for (; valid != 0; valid &= valid - 1) {
      ++counts[cells[i + static_cast<std::size_t>(
                             std::countr_zero(valid))]];
    }
  }
  for (; i < n; ++i) {
    if (cells[i] != kTallyNoCell) {
      ++counts[cells[i]];
      ++hits;
    }
  }
  attributed += hits;
  unattributed += n - hits;
}

}  // namespace

const TallyKernels::TallyFn kAvx2Tally = &avx2_tally;

}  // namespace tass::bgp::detail

#else  // !(__AVX2__ && __x86_64__)

namespace tass::bgp::detail {
const TallyKernels::TallyFn kAvx2Tally = nullptr;
}  // namespace tass::bgp::detail

#endif
