// AVX-512 XorAnd sliver kernels: an all-ones entry is one vpxorq per 8
// words straight from the packed sliver, any other word one vpternlogq.
// Compiled with per-file -mavx512f/-mavx512bw/-mavx512vl; selected at
// runtime only when CPUID (plus XGETBV zmm-state checks) reports all
// three.

#include "tensor/xorand_kernels.h"

#if defined(__AVX512F__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace tvmec::tensor {

namespace {

#include "tensor/xorand_portable_micro.inc"

/// (8*TNV)-word sliver with explicit zmm accumulators. The pragmas force
/// full unrolling so every accumulator stays in a register.
template <int TNV>
void sliver_avx512(const XorAndSliver& s) {
  constexpr std::size_t kTn = 8 * TNV;
  std::uint64_t* const pack = s.pack;
  for (std::size_t r = 0; r < s.kk; ++r) {
    const std::uint64_t* const src = s.b[r] + s.off;
#pragma GCC unroll 8
    for (int v = 0; v < TNV; ++v)
      _mm512_store_si512(pack + r * kTn + 8 * v,
                         _mm512_loadu_si512(src + 8 * v));
  }
  for (std::size_t i = 0; i < s.rows; ++i) {
    std::uint64_t* const c = s.c[i] + s.off;
    __m512i acc[TNV];
#pragma GCC unroll 8
    for (int v = 0; v < TNV; ++v)
      acc[v] = s.accumulate ? _mm512_loadu_si512(c + 8 * v)
                            : _mm512_setzero_si512();
    const XorAndRowSpan sp = s.spans[i];
    for (std::uint32_t e = sp.ones_begin; e < sp.ones_end; ++e) {
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.ones_k[e] - s.k0) * kTn;
#pragma GCC unroll 8
      for (int v = 0; v < TNV; ++v)
        acc[v] = _mm512_xor_si512(acc[v], _mm512_load_si512(bv + 8 * v));
    }
    for (std::uint32_t e = sp.word_begin; e < sp.word_end; ++e) {
      const __m512i av = _mm512_set1_epi64(static_cast<long long>(s.word[e]));
      const std::uint64_t* const bv =
          pack + static_cast<std::size_t>(s.word_k[e] - s.k0) * kTn;
#pragma GCC unroll 8
      for (int v = 0; v < TNV; ++v)
        // 0x78 = acc ^ (av & b): the whole Listing-2 inner op.
        acc[v] = _mm512_ternarylogic_epi64(
            acc[v], av, _mm512_load_si512(bv + 8 * v), 0x78);
    }
#pragma GCC unroll 8
    for (int v = 0; v < TNV; ++v) _mm512_storeu_si512(c + 8 * v, acc[v]);
  }
}

/// Slivers narrower than one zmm fall back to the portable kernel,
/// instantiated inside this anonymous namespace (it only ever runs after
/// dispatch chose this tier, so AVX-512 codegen in it is safe).
template <int TN>
void sliver(const XorAndSliver& s) {
  if constexpr (TN % 8 == 0) {
    sliver_avx512<TN / 8>(s);
  } else {
    sliver_portable<TN>(s);
  }
}

constexpr XorAndKernelTable kTable = TVMEC_XORAND_TABLE;

}  // namespace

const XorAndKernelTable* xorand_table_avx512() noexcept { return &kTable; }

}  // namespace tvmec::tensor

#else  // compiler lacked AVX-512 target support, or non-x86 architecture

namespace tvmec::tensor {
const XorAndKernelTable* xorand_table_avx512() noexcept { return nullptr; }
}  // namespace tvmec::tensor

#endif
