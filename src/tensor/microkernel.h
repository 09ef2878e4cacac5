#pragma once

#include <cstddef>
#include <type_traits>

#include "tensor/semiring.h"
#include "tensor/variant.h"

/// Register-tiled microkernels for the SumProd semirings — the
/// library's stand-in for ML-compiler codegen.
///
/// Each instantiation computes a TM x TN tile of C, accumulating over a
/// K-extent, holding the whole tile in local accumulators: the classic
/// GEMM outer-product microkernel.
///
/// The XorAnd64 (erasure-coding) semiring does not use this template. Its
/// kernels skip A's zero bits, so they come as per-variant sliver kernels
/// over packed operands (tensor/xorand_kernels.h): AVX-512's vpxorq /
/// vpternlogq, AVX2's vpxor / vpand, NEON's veorq / vandq, each in its
/// own translation unit built with per-file target flags. The choice is
/// made at RUNTIME, not at build time: CPUID-based detection
/// (tensor/variant.h) picks the tier each call executes.
namespace tvmec::tensor {

/// True when XorAnd slivers currently dispatch to SIMD-specialized code.
/// This is *runtime* truth — it reflects the variant the running host
/// (and any TVMEC_FORCE_VARIANT override) resolves to, not the flags the
/// library was compiled with.
inline bool xorand_simd_codegen() noexcept {
  return active_variant() != KernelVariant::Scalar;
}

/// Accumulates C[0..TM) x [0..TN) += A[0..TM) x [0..K) (x) B[0..K) x [0..TN)
/// under semiring S. Leading dimensions (lda/ldb/ldc) are in elements.
template <class S, int TM, int TN>
void micro_gemm(const typename S::value_type* a, std::size_t lda,
                const typename S::value_type* b, std::size_t ldb,
                typename S::value_type* c, std::size_t ldc, std::size_t k) {
  using V = typename S::value_type;
  V acc[TM][TN];
#pragma GCC unroll 8
  for (int i = 0; i < TM; ++i)
#pragma GCC unroll 16
    for (int j = 0; j < TN; ++j) acc[i][j] = c[i * ldc + j];
  for (std::size_t l = 0; l < k; ++l) {
    V bv[TN];
#pragma GCC unroll 16
    for (int j = 0; j < TN; ++j) bv[j] = b[l * ldb + j];
#pragma GCC unroll 8
    for (int i = 0; i < TM; ++i) {
      const V av = a[i * lda + l];
#pragma GCC unroll 16
      for (int j = 0; j < TN; ++j)
        acc[i][j] = S::add(acc[i][j], S::mul(av, bv[j]));
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < TM; ++i)
#pragma GCC unroll 16
    for (int j = 0; j < TN; ++j) c[i * ldc + j] = acc[i][j];
}

/// Edge-tile fallback with runtime extents. Same semantics as micro_gemm;
/// used for the ragged borders a fixed-tile kernel cannot cover.
template <class S>
void micro_gemm_edge(const typename S::value_type* a, std::size_t lda,
                     const typename S::value_type* b, std::size_t ldb,
                     typename S::value_type* c, std::size_t ldc,
                     std::size_t k, std::size_t tm, std::size_t tn) {
  using V = typename S::value_type;
  for (std::size_t i = 0; i < tm; ++i) {
    for (std::size_t j = 0; j < tn; ++j) {
      V acc = c[i * ldc + j];
      for (std::size_t l = 0; l < k; ++l)
        acc = S::add(acc, S::mul(a[i * lda + l], b[l * ldb + j]));
      c[i * ldc + j] = acc;
    }
  }
}

}  // namespace tvmec::tensor
