// NEON XorAnd sliver kernels: veorq (all-ones entries) or vandq + veorq
// over 128-bit lanes, 2 words per vector. NEON is architecturally
// mandatory on aarch64, so no per-file flags are needed — the TU simply
// compiles to the stub on every other architecture and the runtime
// detection never offers it there.

#include "tensor/xorand_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace tvmec::tensor {

namespace {

#include "tensor/xorand_portable_micro.inc"

/// (2*TNV)-word sliver with explicit q-register accumulators.
template <int TNV>
void sliver_neon(const XorAndSliver& s) {
  constexpr std::size_t kTn = 2 * TNV;
  std::uint64_t* const pack = s.pack;
  for (std::size_t r = 0; r < s.kk; ++r) {
    const std::uint64_t* const src = s.b[r] + s.off;
#pragma GCC unroll 32
    for (int v = 0; v < TNV; ++v)
      vst1q_u64(pack + r * kTn + 2 * v, vld1q_u64(src + 2 * v));
  }
  for (std::size_t i = 0; i < s.rows; ++i) {
    std::uint64_t* const c = s.c[i] + s.off;
    uint64x2_t acc[TNV];
#pragma GCC unroll 32
    for (int v = 0; v < TNV; ++v)
      acc[v] = s.accumulate ? vld1q_u64(c + 2 * v) : vdupq_n_u64(0);
    const XorAndRowSpan sp = s.spans[i];
    for (std::uint32_t e = sp.ones_begin; e < sp.ones_end; ++e) {
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.ones_k[e] - s.k0) * kTn;
#pragma GCC unroll 32
      for (int v = 0; v < TNV; ++v)
        acc[v] = veorq_u64(acc[v], vld1q_u64(bv + 2 * v));
    }
    for (std::uint32_t e = sp.word_begin; e < sp.word_end; ++e) {
      const uint64x2_t av = vdupq_n_u64(s.word[e]);
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.word_k[e] - s.k0) * kTn;
#pragma GCC unroll 32
      for (int v = 0; v < TNV; ++v)
        acc[v] = veorq_u64(acc[v], vandq_u64(av, vld1q_u64(bv + 2 * v)));
    }
#pragma GCC unroll 32
    for (int v = 0; v < TNV; ++v) vst1q_u64(c + 2 * v, acc[v]);
  }
}

template <int TN>
void sliver(const XorAndSliver& s) {
  if constexpr (TN % 2 == 0) {
    sliver_neon<TN / 2>(s);
  } else {
    sliver_portable<TN>(s);
  }
}

constexpr XorAndKernelTable kTable = TVMEC_XORAND_TABLE;

}  // namespace

const XorAndKernelTable* xorand_table_neon() noexcept { return &kTable; }

}  // namespace tvmec::tensor

#else  // not aarch64

namespace tvmec::tensor {
const XorAndKernelTable* xorand_table_neon() noexcept { return nullptr; }
}  // namespace tvmec::tensor

#endif
