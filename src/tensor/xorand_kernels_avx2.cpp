// AVX2 XorAnd sliver kernels: vpxor (all-ones entries) or vpand + vpxor
// over 256-bit lanes, 4 words per vector. Compiled with per-file -mavx2
// (see src/tensor/CMakeLists.txt); selected at runtime only when CPUID
// reports AVX2, so the rest of the binary stays portable.

#include "tensor/xorand_kernels.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace tvmec::tensor {

namespace {

#include "tensor/xorand_portable_micro.inc"

/// (4*TNV)-word sliver with explicit ymm accumulators. The pragmas force
/// full unrolling so every accumulator stays in a register.
template <int TNV>
void sliver_avx2(const XorAndSliver& s) {
  constexpr std::size_t kTn = 4 * TNV;
  std::uint64_t* const pack = s.pack;
  for (std::size_t r = 0; r < s.kk; ++r) {
    const std::uint64_t* const src = s.b[r] + s.off;
#pragma GCC unroll 16
    for (int v = 0; v < TNV; ++v)
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(pack + r * kTn + 4 * v),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 4 * v)));
  }
  for (std::size_t i = 0; i < s.rows; ++i) {
    std::uint64_t* const c = s.c[i] + s.off;
    __m256i acc[TNV];
#pragma GCC unroll 16
    for (int v = 0; v < TNV; ++v)
      acc[v] = s.accumulate ? _mm256_loadu_si256(
                                  reinterpret_cast<const __m256i*>(c + 4 * v))
                            : _mm256_setzero_si256();
    const XorAndRowSpan sp = s.spans[i];
    for (std::uint32_t e = sp.ones_begin; e < sp.ones_end; ++e) {
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.ones_k[e] - s.k0) * kTn;
#pragma GCC unroll 16
      for (int v = 0; v < TNV; ++v)
        acc[v] = _mm256_xor_si256(
            acc[v],
            _mm256_load_si256(reinterpret_cast<const __m256i*>(bv + 4 * v)));
    }
    for (std::uint32_t e = sp.word_begin; e < sp.word_end; ++e) {
      const __m256i av =
          _mm256_set1_epi64x(static_cast<long long>(s.word[e]));
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.word_k[e] - s.k0) * kTn;
#pragma GCC unroll 16
      for (int v = 0; v < TNV; ++v)
        acc[v] = _mm256_xor_si256(
            acc[v],
            _mm256_and_si256(av, _mm256_load_si256(reinterpret_cast<
                                     const __m256i*>(bv + 4 * v))));
    }
#pragma GCC unroll 16
    for (int v = 0; v < TNV; ++v)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 4 * v), acc[v]);
  }
}

/// Slivers narrower than one ymm fall back to the portable kernel —
/// instantiated inside THIS anonymous namespace, so it may legitimately
/// use AVX2 codegen: it only ever runs after dispatch chose this tier.
template <int TN>
void sliver(const XorAndSliver& s) {
  if constexpr (TN % 4 == 0) {
    sliver_avx2<TN / 4>(s);
  } else {
    sliver_portable<TN>(s);
  }
}

constexpr XorAndKernelTable kTable = TVMEC_XORAND_TABLE;

}  // namespace

const XorAndKernelTable* xorand_table_avx2() noexcept { return &kTable; }

}  // namespace tvmec::tensor

#else  // compiler lacked AVX2 target support, or non-x86 architecture

namespace tvmec::tensor {
const XorAndKernelTable* xorand_table_avx2() noexcept { return nullptr; }
}  // namespace tvmec::tensor

#endif
