#include "bgp/tally_kernels.hpp"

namespace tass::bgp::detail {

namespace {

// The reference loop tally_cells always ran; the kernel seam just moves
// it behind a function pointer.
void scalar_tally(const std::uint32_t* cells, std::size_t n,
                  std::uint32_t* counts, std::uint64_t& attributed,
                  std::uint64_t& unattributed) {
  for (std::size_t i = 0; i < n; ++i) {
    if (cells[i] != kTallyNoCell) {
      ++counts[cells[i]];
      ++attributed;
    } else {
      ++unattributed;
    }
  }
}

}  // namespace

const TallyKernels& tally_kernels(util::cpu::SimdLevel level) noexcept {
  static const TallyKernels kScalarTable{&scalar_tally, "scalar"};
  static const TallyKernels kSimdTable{
      kAvx2Tally != nullptr ? kAvx2Tally : &scalar_tally,
      kAvx2Tally != nullptr ? "avx2" : "scalar"};
  return level == util::cpu::SimdLevel::kAvx2 ? kSimdTable : kScalarTable;
}

}  // namespace tass::bgp::detail
