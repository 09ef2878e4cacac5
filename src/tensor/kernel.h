#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/schedule.h"
#include "tensor/semiring.h"

/// Schedule-driven blocked GEMM execution over a semiring.
///
/// `gemm_*` computes C = A (x) B (overwriting C) where (x) is the
/// semiring's combine/reduce pair:
///   - `gemm_sumprod_*`: ordinary matrix multiplication (the ML workload),
///   - `gemm_xorand`:    bitmatrix erasure coding (paper Listing 2) with
///                       A holding mask words (broadcast 0 / ~0ull for a
///                       bitmatrix, any word in general) and B holding
///                       packed data words.
///
/// Both operands are packed, as an ML GEMM stack packs them. A — the
/// constant coding matrix — is packed once (PackedXorAndA) into per-row
/// lists of its nonzero words, so the XorAnd kernel skips zero bits
/// instead of AND-ing with them. B is packed per sliver: block_k x tile_n
/// words copied into thread-local scratch that stays in L1 while every C
/// row reads it. The executor applies the Schedule's cache blocking,
/// register tiling and thread parallelism. `gemm_naive_*` are the
/// unoptimized Listing-1/2 triple loops used as correctness references
/// and as the "what you'd write without an ML library" baseline.
namespace tvmec::tensor {

/// The XorAnd A operand packed for the zero-skipping kernel: per row, the
/// nonzero words and their k. All-ones words (every set bit of an
/// expanded bitmatrix) are kept apart as bare k indices, so the kernel
/// XORs the B row in without an AND; any other nonzero word keeps its
/// value. Zero words are dropped. Entries are ascending in k within a
/// row, so any k-block is a contiguous sub-range. Packing is exact:
/// gemm_xorand over the packed form and over the MatView it came from
/// produce identical bytes.
struct PackedXorAndA {
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Row i's all-ones entries: ones_k[ones_row[i] .. ones_row[i + 1]).
  std::vector<std::uint32_t> ones_k;
  std::vector<std::uint32_t> ones_row;
  /// Row i's other nonzero entries: (word_k[e], word[e]) for e in
  /// [word_row[i], word_row[i + 1]).
  std::vector<std::uint32_t> word_k;
  std::vector<std::uint64_t> word;
  std::vector<std::uint32_t> word_row;

  /// Packs `a`. Throws std::invalid_argument on an invalid view.
  static PackedXorAndA pack(MatView<const std::uint64_t> a);
};

/// Shapes must satisfy: A is MxK, B is KxN, C is MxN (each view's
/// rows/cols, with arbitrary strides). Throws std::invalid_argument on
/// mismatch or an unsupported schedule.
///
/// `cancel`, when valid, is polled at tile-chunk granularity (between
/// the chunks the schedule's partitioning hands to the pool; serial
/// schedules are carved into N-axis chunks just for the poll, so even a
/// one-thread run observes cancellation mid-matrix). An observed flag
/// throws Cancelled; C is then partially written and must be treated as
/// garbage by the caller.
/// The MatView overloads pack A on every call; callers that reuse one A
/// (GemmCoder) pack it once and call the PackedXorAndA overloads.
void gemm_xorand(MatView<const std::uint64_t> a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel = {});
void gemm_xorand(const PackedXorAndA& a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel = {});

/// One request of a batched xorand GEMM: every item shares the A operand
/// (the expanded bitmatrix) but brings its own B/C pair (its payload and
/// result). Shapes per item: B is KxN_i, C is MxN_i, with K = a.cols and
/// M = a.rows; the N_i may differ across items.
struct XorAndBatch {
  MatView<const std::uint64_t> b;
  MatView<std::uint64_t> c;
};

/// Multi-request GEMM with an enlarged N dimension (the serving-layer
/// batching primitive): the items' B operands are viewed side by side as
/// one logical K x (sum N_i) matrix and executed zero-copy through the
/// scattered kernel — each request's payload is a fragment of the wide
/// operand, gathered per cache panel inside the tiled loop instead of
/// being staged up front. GEMM efficiency grows with operand size, so
/// many small requests batched this way run at large-N throughput
/// instead of paying per-call tiny-N prices, and since the kernel reads
/// the callers' buffers directly there is no staging memcpy at all.
/// A single item dispatches directly. Throws std::invalid_argument on
/// any per-item shape mismatch. `cancel` follows the gemm_xorand
/// contract; the serial item-by-item path additionally polls between
/// items.
void gemm_xorand_batched(MatView<const std::uint64_t> a,
                         std::span<const XorAndBatch> items,
                         const Schedule& schedule,
                         const CancelToken& cancel = {});
void gemm_xorand_batched(const PackedXorAndA& a,
                         std::span<const XorAndBatch> items,
                         const Schedule& schedule,
                         const CancelToken& cancel = {});

/// Observability for the §5 staging tax and kernel scratch usage.
///
/// `stage_copies`/`stage_bytes` count memcpys whose only purpose is to
/// re-home operand bytes so a kernel can consume them (pointer-gather
/// staging, degenerate-alignment fallbacks). The zero-copy scattered paths
/// never bump them — panel packing inside the tiled loop is the kernel's
/// own cache blocking, not staging — so a test can assert a submit→result
/// flow performed zero staging copies. `scratch_high_water_bytes` is the
/// largest single scratch acquisition any kernel call requested.
/// Counters are process-wide, monotonic, and relaxed-atomic.
struct KernelStageStats {
  std::uint64_t stage_copies = 0;
  std::uint64_t stage_bytes = 0;
  std::uint64_t scratch_high_water_bytes = 0;
};

KernelStageStats kernel_stage_stats() noexcept;

/// Records one staging memcpy of `bytes` bytes. Called by every layer that
/// still stages (encode_ptrs gather, misaligned-buffer fallbacks), so the
/// counter means the same thing from the kernel tier up.
void note_staging_copy(std::size_t bytes) noexcept;

/// Kernel scratch retained per thread is capped at this many bytes;
/// requests beyond it are served from a transient allocation owned by the
/// calling frame instead, so one giant batch can't pin memory for the
/// life of a worker thread.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{1} << 20;

/// Bytes of kernel scratch currently retained by the calling thread
/// (test hook for the retention cap).
std::size_t kernel_scratch_retained_bytes() noexcept;

void gemm_sumprod_i64(MatView<const std::int64_t> a,
                      MatView<const std::int64_t> b, MatView<std::int64_t> c,
                      const Schedule& schedule);

/// Single-precision GEMM — the kernel shape ML inference actually runs.
/// Exists to demonstrate (and test) that the identical schedule/microkernel
/// machinery serves both the ML workload and the erasure code, which is
/// the paper's whole premise.
void gemm_sumprod_f32(MatView<const float> a, MatView<const float> b,
                      MatView<float> c, const Schedule& schedule);

/// Reference implementations: the unoptimized triple loop.
void gemm_naive_xorand(MatView<const std::uint64_t> a,
                       MatView<const std::uint64_t> b,
                       MatView<std::uint64_t> c);

void gemm_naive_sumprod_i64(MatView<const std::int64_t> a,
                            MatView<const std::int64_t> b,
                            MatView<std::int64_t> c);

void gemm_naive_sumprod_f32(MatView<const float> a, MatView<const float> b,
                            MatView<float> c);

}  // namespace tvmec::tensor
