// Scalar (portable) XorAnd sliver kernels. Always compiled, with no
// target flags beyond the project defaults, so this table is the one
// guaranteed-safe tier on any host — and the reference every SIMD
// variant is differentially tested against.
//
// This TU also hosts the variant-keyed table selector, since it is the
// one XorAnd TU that exists on every architecture.

#include "tensor/xorand_kernels.h"

namespace tvmec::tensor {

namespace {

#include "tensor/xorand_portable_micro.inc"

template <int TN>
void sliver(const XorAndSliver& s) {
  sliver_portable<TN>(s);
}

constexpr XorAndKernelTable kTable = TVMEC_XORAND_TABLE;

}  // namespace

const XorAndKernelTable* xorand_table_scalar() noexcept { return &kTable; }

const XorAndKernelTable* xorand_table(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Scalar:
      return xorand_table_scalar();
    case KernelVariant::Avx2:
      return xorand_table_avx2();
    case KernelVariant::Avx512:
      return xorand_table_avx512();
    case KernelVariant::Neon:
      return xorand_table_neon();
    case KernelVariant::Auto:
      break;
  }
  return nullptr;
}

}  // namespace tvmec::tensor
