#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/variant.h"

/// The per-variant XorAnd sliver kernels.
///
/// Each SIMD variant lives in its own translation unit
/// (xorand_kernels_<variant>.cpp) compiled with per-file target flags
/// (-mavx2, -mavx512f ...), and everything inside those TUs sits in an
/// anonymous namespace: no symbol compiled for a higher ISA can be picked
/// by the linker over a portable one (the ODR/comdat-folding trap that
/// makes template-based multi-ISA builds SIGILL). The only things a
/// variant TU exports are the table getters declared here, which return
/// a pointer to a constexpr table of function pointers — taking the
/// table's address executes no target-specific instruction.
///
/// A getter returns nullptr when the variant was not compiled in (wrong
/// architecture, or a compiler without the target flags); runtime
/// availability (tensor/variant.h) is "hardware supports it AND the
/// table is non-null".
namespace tvmec::tensor {

/// Row i's nonzero A entries inside one k-block: all-ones words at
/// `ones_k[ones_begin, ones_end)` and other words at
/// `(word_k, word)[word_begin, word_end)` (see PackedXorAndA).
struct XorAndRowSpan {
  std::uint32_t ones_begin = 0;
  std::uint32_t ones_end = 0;
  std::uint32_t word_begin = 0;
  std::uint32_t word_end = 0;
};

/// One sliver kernel call: B columns [off, off + TN) of the k-block's
/// `kk` rows are packed into `pack` (kk x TN words, 64-byte aligned, so
/// it stays L1-resident however far apart the source rows are), then for
/// every C row the kernel XORs in only that row's listed entries —
/// `acc ^= b[k]` for an all-ones word, `acc ^= word & b[k]` otherwise —
/// starting from zero (first k-block) or from C, and stores C once.
struct XorAndSliver {
  const std::uint32_t* ones_k = nullptr;
  const std::uint32_t* word_k = nullptr;
  const std::uint64_t* word = nullptr;
  const XorAndRowSpan* spans = nullptr;  ///< one per C row
  std::size_t rows = 0;                  ///< C rows
  std::uint32_t k0 = 0;                  ///< first k of the block
  std::size_t kk = 0;                    ///< B rows in the block
  const std::uint64_t* const* b = nullptr;  ///< kk row pointers (row k0+r)
  std::uint64_t* const* c = nullptr;        ///< `rows` row pointers
  std::size_t off = 0;      ///< word offset of the sliver in every b/c row
  std::uint64_t* pack = nullptr;
  bool accumulate = false;  ///< C already holds earlier k-blocks' sums
};

using XorAndSliverFn = void (*)(const XorAndSliver&);

/// One kernel per tile_n point of the schedule menu, indexed for tile_n
/// in {1,2,4,8,16,32,64}. The sliver width is the only register-tile
/// extent: each C row has its own entry list, so rows share no loads
/// and tile_m no longer shapes the generated code.
struct XorAndKernelTable {
  XorAndSliverFn fn[7];
};

const XorAndKernelTable* xorand_table_scalar() noexcept;  // never null
const XorAndKernelTable* xorand_table_avx2() noexcept;
const XorAndKernelTable* xorand_table_avx512() noexcept;
const XorAndKernelTable* xorand_table_neon() noexcept;

/// Table for a *concrete* variant; nullptr when that variant is not
/// compiled into this binary (Auto also returns nullptr — resolve first).
const XorAndKernelTable* xorand_table(KernelVariant v) noexcept;

/// Builds the table from a TU-local `sliver<TN>` function template. Used
/// inside each variant TU's anonymous namespace.
#define TVMEC_XORAND_TABLE                                             \
  {                                                                    \
    {                                                                  \
      &sliver<1>, &sliver<2>, &sliver<4>, &sliver<8>, &sliver<16>,     \
          &sliver<32>, &sliver<64>                                     \
    }                                                                  \
  }

}  // namespace tvmec::tensor
