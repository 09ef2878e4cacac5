#include "tensor/kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tensor/microkernel.h"
#include "tensor/scattered.h"
#include "tensor/threadpool.h"
#include "tensor/xorand_kernels.h"

namespace tvmec::tensor {

namespace {

std::atomic<std::uint64_t> g_stage_copies{0};
std::atomic<std::uint64_t> g_stage_bytes{0};
std::atomic<std::uint64_t> g_scratch_hwm{0};

void raise_scratch_hwm(std::size_t bytes) {
  std::uint64_t prev = g_scratch_hwm.load(std::memory_order_relaxed);
  while (prev < bytes && !g_scratch_hwm.compare_exchange_weak(
                             prev, bytes, std::memory_order_relaxed)) {
  }
}

thread_local AlignedBuffer<std::uint64_t> tl_scratch;

/// Returns >= `words` of kernel scratch. Small requests reuse (and
/// geometrically grow) the thread-retained buffer, but retention is capped
/// at kScratchRetainBytes: anything larger lands in `overflow`, an
/// AlignedBuffer owned by the calling frame and freed on return, so one
/// giant batch can't pin scratch for the life of a worker thread.
std::uint64_t* acquire_scratch(std::size_t words,
                               AlignedBuffer<std::uint64_t>& overflow) {
  raise_scratch_hwm(words * sizeof(std::uint64_t));
  constexpr std::size_t kRetainWords =
      kScratchRetainBytes / sizeof(std::uint64_t);
  if (words > kRetainWords) {
    overflow = AlignedBuffer<std::uint64_t>(words);
    return overflow.data();
  }
  if (tl_scratch.size() < words)
    tl_scratch = AlignedBuffer<std::uint64_t>(
        std::min(kRetainWords, std::max(words, tl_scratch.size() * 2)));
  return tl_scratch.data();
}

/// Maps a supported tile_m extent {1,2,4,8} to its dispatch-table index.
int tile_m_index(int t) {
  switch (t) {
    case 1:
      return 0;
    case 2:
      return 1;
    case 4:
      return 2;
    case 8:
      return 3;
    default:
      throw std::invalid_argument("unsupported tile_m extent " +
                                  std::to_string(t));
  }
}

/// Maps a supported tile_n extent {1,2,4,8,16,32,64} to its index.
int tile_n_index(int t) {
  switch (t) {
    case 1:
      return 0;
    case 2:
      return 1;
    case 4:
      return 2;
    case 8:
      return 3;
    case 16:
      return 4;
    case 32:
      return 5;
    case 64:
      return 6;
    default:
      throw std::invalid_argument("unsupported tile_n extent " +
                                  std::to_string(t));
  }
}

template <class S>
using MicroFn = void (*)(const typename S::value_type*, std::size_t,
                         const typename S::value_type*, std::size_t,
                         typename S::value_type*, std::size_t, std::size_t);

/// The "generated code" menu of the SumProd semirings: one fully
/// unrolled microkernel per (tile_m, tile_n) pair in the schedule search
/// space. (Their codegen is whatever this TU was compiled with, which is
/// safe by construction: no per-file target flags apply here.)
template <class S>
constexpr std::array<std::array<MicroFn<S>, 7>, 4> make_dispatch() {
  return {{
      {{&micro_gemm<S, 1, 1>, &micro_gemm<S, 1, 2>, &micro_gemm<S, 1, 4>,
        &micro_gemm<S, 1, 8>, &micro_gemm<S, 1, 16>, &micro_gemm<S, 1, 32>,
        &micro_gemm<S, 1, 64>}},
      {{&micro_gemm<S, 2, 1>, &micro_gemm<S, 2, 2>, &micro_gemm<S, 2, 4>,
        &micro_gemm<S, 2, 8>, &micro_gemm<S, 2, 16>, &micro_gemm<S, 2, 32>,
        &micro_gemm<S, 2, 64>}},
      {{&micro_gemm<S, 4, 1>, &micro_gemm<S, 4, 2>, &micro_gemm<S, 4, 4>,
        &micro_gemm<S, 4, 8>, &micro_gemm<S, 4, 16>, &micro_gemm<S, 4, 32>,
        &micro_gemm<S, 4, 64>}},
      {{&micro_gemm<S, 8, 1>, &micro_gemm<S, 8, 2>, &micro_gemm<S, 8, 4>,
        &micro_gemm<S, 8, 8>, &micro_gemm<S, 8, 16>, &micro_gemm<S, 8, 32>,
        &micro_gemm<S, 8, 64>}},
  }};
}

template <class T>
void validate_shapes(MatView<const T> a, MatView<const T> b, MatView<T> c) {
  a.validate();
  b.validate();
  c.validate();
  if (a.rows != c.rows || b.cols != c.cols || a.cols != b.rows)
    throw std::invalid_argument("gemm: A(MxK) B(KxN) C(MxN) shape mismatch");
}

/// Executes the output block [m0, m1) x [n0, n1) of a SumProd GEMM under
/// the given schedule.
template <class S>
void run_block(MatView<const typename S::value_type> a,
               MatView<const typename S::value_type> b,
               MatView<typename S::value_type> c, const Schedule& s,
               std::size_t m0, std::size_t m1, std::size_t n0,
               std::size_t n1) {
  using V = typename S::value_type;
  static constexpr auto kDispatch = make_dispatch<S>();
  const MicroFn<S> micro =
      kDispatch[static_cast<std::size_t>(tile_m_index(s.tile_m))]
               [static_cast<std::size_t>(tile_n_index(s.tile_n))];
  const std::size_t tm = static_cast<std::size_t>(s.tile_m);
  const std::size_t tn = static_cast<std::size_t>(s.tile_n);
  const std::size_t k = a.cols;
  const std::size_t block_n = s.block_n == 0 ? c.cols : s.block_n;
  const std::size_t block_k = s.block_k == 0 ? k : s.block_k;

  // Zero the owned block once; k-blocks then accumulate into C.
  for (std::size_t i = m0; i < m1; ++i) {
    V* row = c.row(i);
    std::fill(row + n0, row + n1, S::zero());
  }

  for (std::size_t nb = n0; nb < n1; nb += block_n) {
    const std::size_t nb_end = std::min(n1, nb + block_n);
    for (std::size_t kb = 0; kb < k; kb += block_k) {
      const std::size_t kb_end = std::min(k, kb + block_k);
      const std::size_t kk = kb_end - kb;
      for (std::size_t i = m0; i < m1; i += tm) {
        const std::size_t mm = std::min(tm, m1 - i);
        for (std::size_t j = nb; j < nb_end; j += tn) {
          const std::size_t nn = std::min(tn, nb_end - j);
          const V* a_ptr = a.row(i) + kb;
          const V* b_ptr = b.row(kb) + j;
          V* c_ptr = c.row(i) + j;
          if (mm == tm && nn == tn) {
            micro(a_ptr, a.stride, b_ptr, b.stride, c_ptr, c.stride, kk);
          } else {
            micro_gemm_edge<S>(a_ptr, a.stride, b_ptr, b.stride, c_ptr,
                               c.stride, kk, mm, nn);
          }
        }
      }
    }
  }
}

/// One axis split into tile-aligned chunks with the remainder spread
/// evenly: chunk sizes differ by at most one tile and no chunk is empty.
struct AxisChunks {
  std::size_t tiles = 0;   // total register tiles along the axis
  std::size_t chunks = 0;  // number of work chunks
  std::size_t tile = 0;    // tile extent in elements
  std::size_t extent = 0;  // axis extent in elements

  /// Element range [begin, end) of chunk c. Only valid for c < chunks
  /// (chunks >= 1 whenever the axis is non-empty, so no division by
  /// zero can occur for dispatched work).
  std::pair<std::size_t, std::size_t> range(std::size_t c) const {
    const std::size_t base = tiles / chunks;
    const std::size_t rem = tiles % chunks;
    const std::size_t t0 = c * base + std::min(c, rem);
    const std::size_t t1 = t0 + base + (c < rem ? 1 : 0);
    return {t0 * tile, std::min(extent, t1 * tile)};
  }
};

/// Carves `extent` into chunks of ~`grain` tiles (0 = auto: enough chunks
/// that the pool's dynamic claiming can balance load, a few per thread).
/// Degenerate shapes stay well-defined: an empty axis yields zero chunks
/// (nothing is dispatched), and an axis smaller than the grain yields a
/// single chunk covering it — never an empty range and never a
/// division by zero in range().
AxisChunks make_axis_chunks(std::size_t extent, std::size_t tile,
                            std::size_t grain, std::size_t threads) {
  AxisChunks ax;
  ax.tile = tile;
  ax.extent = extent;
  ax.tiles = (extent + tile - 1) / tile;
  if (ax.tiles == 0) {
    ax.chunks = 0;
    return ax;
  }
  constexpr std::size_t kChunksPerThread = 4;
  const std::size_t wanted =
      grain == 0 ? threads * kChunksPerThread : (ax.tiles + grain - 1) / grain;
  ax.chunks = std::clamp<std::size_t>(wanted, 1, ax.tiles);
  return ax;
}

/// Hands the m x n output to `run(m0, m1, n0, n1)` in the blocks the
/// schedule's partitioning defines. Workers own disjoint C blocks.
template <class Run>
void for_each_block(std::size_t m, std::size_t n, const Schedule& s,
                    const CancelToken& cancel, const Run& run) {
  const std::size_t threads = static_cast<std::size_t>(s.num_threads);
  const std::size_t tm = static_cast<std::size_t>(s.tile_m);
  const std::size_t tn = static_cast<std::size_t>(s.tile_n);

  if (threads <= 1) {
    if (!cancel.valid()) {
      run(0, m, 0, n);
      return;
    }
    // Cancellable serial path: carve N into tile-aligned chunks purely to
    // bound how much work runs between cancellation polls (a whole-matrix
    // run could be milliseconds — one batch-service time — per check
    // otherwise). Chunks cover at least kMinCancelWords of N so the poll
    // and the per-chunk re-entry amortize to well under a percent even
    // for small serving-sized operands.
    cancel.throw_if_cancelled();
    constexpr std::size_t kMinCancelWords = 4096;
    const std::size_t grain =
        std::max<std::size_t>(s.par_grain, (kMinCancelWords + tn - 1) / tn);
    const AxisChunks nc = make_axis_chunks(n, tn, grain, 1);
    for (std::size_t i = 0; i < nc.chunks; ++i) {
      cancel.throw_if_cancelled();
      const auto [n0, n1] = nc.range(i);
      run(0, m, n0, n1);
    }
    return;
  }

  ThreadPool& pool = ThreadPool::shared();

  switch (s.par_axis) {
    case ParAxis::M: {
      const AxisChunks mc = make_axis_chunks(m, tm, s.par_grain, threads);
      pool.parallel_for(
          mc.chunks,
          [&](std::size_t i) {
            const auto [m0, m1] = mc.range(i);
            run(m0, m1, 0, n);
          },
          threads, cancel.raw());
      break;
    }
    case ParAxis::N: {
      // The EC-shaped default: each worker owns a contiguous span of
      // data words (columns of B/C) — the long axis for erasure codes.
      const AxisChunks nc = make_axis_chunks(n, tn, s.par_grain, threads);
      pool.parallel_for(
          nc.chunks,
          [&](std::size_t i) {
            const auto [n0, n1] = nc.range(i);
            run(0, m, n0, n1);
          },
          threads, cancel.raw());
      break;
    }
    case ParAxis::MN: {
      // 2D grid: rows split into at most `threads` chunks, columns carved
      // (by grain, or auto) so the grid still has slack to balance.
      // Chunk index = row-major over the grid.
      AxisChunks mc;
      mc.tile = tm;
      mc.extent = m;
      mc.tiles = (m + tm - 1) / tm;
      mc.chunks = std::min(threads, mc.tiles);
      const AxisChunks nc = make_axis_chunks(n, tn, s.par_grain, threads);
      pool.parallel_for(
          mc.chunks * nc.chunks,
          [&](std::size_t i) {
            const auto [m0, m1] = mc.range(i / nc.chunks);
            const auto [n0, n1] = nc.range(i % nc.chunks);
            run(m0, m1, n0, n1);
          },
          threads, cancel.raw());
      break;
    }
  }
}

template <class S>
void gemm_sumprod(MatView<const typename S::value_type> a,
                  MatView<const typename S::value_type> b,
                  MatView<typename S::value_type> c, const Schedule& s) {
  validate_shapes(a, b, c);
  if (!s.valid()) throw std::invalid_argument("gemm: invalid schedule");
  for_each_block(c.rows, c.cols, s, {},
                 [&](std::size_t m0, std::size_t m1, std::size_t n0,
                     std::size_t n1) {
                   run_block<S>(a, b, c, s, m0, m1, n0, n1);
                 });
}

template <class S>
void gemm_naive(MatView<const typename S::value_type> a,
                MatView<const typename S::value_type> b,
                MatView<typename S::value_type> c) {
  validate_shapes(a, b, c);
  using V = typename S::value_type;
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = 0; j < c.cols; ++j) {
      V acc = S::zero();
      for (std::size_t l = 0; l < a.cols; ++l)
        acc = S::add(acc, S::mul(a.at(i, l), b.at(l, j)));
      c.at(i, j) = acc;
    }
  }
}

// ---- The XorAnd driver ------------------------------------------------

/// The B sliver (block_k x tile_n words) stays within this budget, so it
/// and the C rows it feeds stay L1-resident: block_k is capped to fit.
constexpr std::size_t kSliverBudgetWords =
    (std::size_t{32} << 10) / sizeof(std::uint64_t);

/// With block_n == 0 the panel width is sized so a panel's gathered B
/// rows plus staged C rows stay within this (scattered operands only
/// materialize them; in-place rows cost nothing).
constexpr std::size_t kPanelBudgetWords =
    (std::size_t{256} << 10) / sizeof(std::uint64_t);

/// What one gemm_xorand call resolves once and every block shares: the
/// variant's sliver kernel, the effective sliver depth and panel width,
/// and A's row spans per k-block ([block * rows + row]).
struct XorAndPlan {
  const PackedXorAndA* a = nullptr;
  XorAndSliverFn sliver = nullptr;
  std::size_t tn = 0;
  std::size_t bk = 0;
  std::size_t bn = 0;
  std::vector<XorAndRowSpan> spans;
};

XorAndPlan plan_xorand(const PackedXorAndA& a, const Schedule& s) {
  XorAndPlan p;
  p.a = &a;
  p.sliver = xorand_table(resolve_variant(s.variant))
                 ->fn[static_cast<std::size_t>(tile_n_index(s.tile_n))];
  p.tn = static_cast<std::size_t>(s.tile_n);
  const std::size_t k = a.cols;
  p.bk = std::min({s.block_k == 0 ? k : s.block_k, k,
                   std::max<std::size_t>(1, kSliverBudgetWords / p.tn)});
  p.bn = s.block_n != 0 ? s.block_n : kPanelBudgetWords / (k + a.rows);
  p.bn = std::max(p.bn / p.tn * p.tn, p.tn);

  const std::size_t blocks = (k + p.bk - 1) / p.bk;
  p.spans.resize(blocks * a.rows);
  for (std::size_t i = 0; i < a.rows; ++i) {
    const std::uint32_t* ones = a.ones_k.data();
    const std::uint32_t* words = a.word_k.data();
    std::uint32_t o = a.ones_row[i];
    std::uint32_t w = a.word_row[i];
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::size_t k1 = std::min(k, (blk + 1) * p.bk);
      XorAndRowSpan& sp = p.spans[blk * a.rows + i];
      sp.ones_begin = o;
      while (o < a.ones_row[i + 1] && ones[o] < k1) ++o;
      sp.ones_end = o;
      sp.word_begin = w;
      while (w < a.word_row[i + 1] && words[w] < k1) ++w;
      sp.word_end = w;
    }
  }
  return p;
}

/// Row access to a MatView operand: every row range is in place.
template <class T>
struct MatRows {
  static constexpr bool kInPlace = true;
  MatView<T> v;
  T* span(std::size_t r, std::size_t col, std::size_t) const {
    return v.row(r) + col;
  }
  void gather(std::size_t r, std::size_t col, std::size_t len,
              std::uint64_t* dst) const {
    std::memcpy(dst, v.row(r) + col, len * sizeof(std::uint64_t));
  }
  void scatter(std::size_t r, std::size_t col, std::size_t len,
               const std::uint64_t* src) const {
    std::memcpy(v.row(r) + col, src, len * sizeof(std::uint64_t));
  }
};

/// Row access to a ScatteredView operand: a row range is in place unless
/// it crosses a fragment boundary.
template <class T>
struct ScatteredRows {
  static constexpr bool kInPlace = false;
  const ScatteredView<T>& v;
  T* span(std::size_t r, std::size_t col, std::size_t len) const {
    return v.span(r * v.cols() + col, len);
  }
  void gather(std::size_t r, std::size_t col, std::size_t len,
              std::uint64_t* dst) const {
    v.gather(r * v.cols() + col, len, dst);
  }
  void scatter(std::size_t r, std::size_t col, std::size_t len,
               const std::uint64_t* src) const {
    v.scatter(r * v.cols() + col, len, src);
  }
};

thread_local std::vector<const std::uint64_t*> tl_b_rows;
thread_local std::vector<std::uint64_t*> tl_c_rows;

constexpr std::size_t round_to_line(std::size_t words) {
  return (words + 7) / 8 * 8;
}

/// The one XorAnd driver: computes C rows [m0, m1) x columns [n0, n1).
/// Per panel of p.bn columns it resolves every B and C row to an in-place
/// pointer (or gathers / stages the rows a scattered panel splits), then
/// walks tile_n-wide slivers. Each sliver runs its k-blocks back to back,
/// so the C rows it accumulates into stay in L1 between blocks. The
/// ragged last sliver is gathered into zero-padded edge rows and its C
/// written back through the same row access.
template <class BRows, class CRows>
void run_xorand(const XorAndPlan& p, const BRows& b, const CRows& c,
                std::size_t m0, std::size_t m1, std::size_t n0,
                std::size_t n1) {
  const PackedXorAndA& a = *p.a;
  const std::size_t k = a.cols;
  const std::size_t rows = m1 - m0;
  const std::size_t tn = p.tn;
  const std::size_t bn = p.bn;

  const std::size_t pack_words = round_to_line(p.bk * tn);
  const std::size_t edge_b_words = round_to_line(k * tn);
  const std::size_t edge_c_words = round_to_line(rows * tn);
  const std::size_t gather_words = BRows::kInPlace ? 0 : k * bn;
  const std::size_t stage_words = CRows::kInPlace ? 0 : rows * bn;
  AlignedBuffer<std::uint64_t> overflow;
  std::uint64_t* const pack = acquire_scratch(
      pack_words + edge_b_words + edge_c_words + gather_words + stage_words,
      overflow);
  std::uint64_t* const edge_b = pack + pack_words;
  std::uint64_t* const edge_c = edge_b + edge_b_words;
  std::uint64_t* const gathered = edge_c + edge_c_words;  // k x bn
  std::uint64_t* const staged = gathered + gather_words;  // rows x bn
  tl_b_rows.resize(k);
  tl_c_rows.resize(rows);
  const std::uint64_t** const b_rows = tl_b_rows.data();
  std::uint64_t** const c_rows = tl_c_rows.data();

  XorAndSliver args;
  args.ones_k = a.ones_k.data();
  args.word_k = a.word_k.data();
  args.word = a.word.data();
  args.rows = rows;
  args.c = c_rows;
  args.pack = pack;
  const auto run_sliver = [&](std::size_t off) {
    args.off = off;
    for (std::size_t kb = 0, blk = 0; kb < k; kb += p.bk, ++blk) {
      args.spans = p.spans.data() + blk * a.rows + m0;
      args.k0 = static_cast<std::uint32_t>(kb);
      args.kk = std::min(p.bk, k - kb);
      args.b = b_rows + kb;
      args.accumulate = kb > 0;
      p.sliver(args);
    }
  };

  for (std::size_t nb = n0; nb < n1; nb += bn) {
    const std::size_t width = std::min(bn, n1 - nb);
    const std::size_t full = width / tn * tn;
    if (full > 0) {
      for (std::size_t r = 0; r < k; ++r) {
        b_rows[r] = b.span(r, nb, full);
        if constexpr (!BRows::kInPlace) {
          if (b_rows[r] == nullptr) {
            b.gather(r, nb, full, gathered + r * bn);
            b_rows[r] = gathered + r * bn;
          }
        }
      }
      for (std::size_t i = 0; i < rows; ++i) {
        c_rows[i] = c.span(m0 + i, nb, full);
        if constexpr (!CRows::kInPlace)
          if (c_rows[i] == nullptr) c_rows[i] = staged + i * bn;
      }
      for (std::size_t j = 0; j < full; j += tn) run_sliver(j);
      if constexpr (!CRows::kInPlace)
        for (std::size_t i = 0; i < rows; ++i)
          if (c_rows[i] == staged + i * bn)
            c.scatter(m0 + i, nb, full, c_rows[i]);
    }
    if (full < width) {
      const std::size_t nn = width - full;
      for (std::size_t r = 0; r < k; ++r) {
        std::uint64_t* const row = edge_b + r * tn;
        b.gather(r, nb + full, nn, row);
        std::fill(row + nn, row + tn, std::uint64_t{0});
        b_rows[r] = row;
      }
      for (std::size_t i = 0; i < rows; ++i) c_rows[i] = edge_c + i * tn;
      run_sliver(0);
      for (std::size_t i = 0; i < rows; ++i)
        c.scatter(m0 + i, nb + full, nn, edge_c + i * tn);
    }
  }
}

void check_xorand_args(const PackedXorAndA& a, std::size_t b_rows,
                       std::size_t b_cols, std::size_t c_rows,
                       std::size_t c_cols, const Schedule& s) {
  if (!s.valid()) throw std::invalid_argument("gemm: invalid schedule");
  if (a.rows != c_rows || b_cols != c_cols || a.cols != b_rows)
    throw std::invalid_argument("gemm: A(MxK) B(KxN) C(MxN) shape mismatch");
}

}  // namespace

PackedXorAndA PackedXorAndA::pack(MatView<const std::uint64_t> a) {
  a.validate();
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (a.cols > kMax || a.rows * a.cols > kMax)
    throw std::invalid_argument("PackedXorAndA: operand too large");
  PackedXorAndA p;
  p.rows = a.rows;
  p.cols = a.cols;
  p.ones_row.reserve(a.rows + 1);
  p.word_row.reserve(a.rows + 1);
  p.ones_row.push_back(0);
  p.word_row.push_back(0);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t l = 0; l < a.cols; ++l) {
      const std::uint64_t w = a.at(i, l);
      if (w == ~std::uint64_t{0}) {
        p.ones_k.push_back(static_cast<std::uint32_t>(l));
      } else if (w != 0) {
        p.word_k.push_back(static_cast<std::uint32_t>(l));
        p.word.push_back(w);
      }
    }
    p.ones_row.push_back(static_cast<std::uint32_t>(p.ones_k.size()));
    p.word_row.push_back(static_cast<std::uint32_t>(p.word_k.size()));
  }
  return p;
}

KernelStageStats kernel_stage_stats() noexcept {
  return {g_stage_copies.load(std::memory_order_relaxed),
          g_stage_bytes.load(std::memory_order_relaxed),
          g_scratch_hwm.load(std::memory_order_relaxed)};
}

void note_staging_copy(std::size_t bytes) noexcept {
  g_stage_copies.fetch_add(1, std::memory_order_relaxed);
  g_stage_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::size_t kernel_scratch_retained_bytes() noexcept {
  return tl_scratch.size() * sizeof(std::uint64_t);
}

void gemm_xorand(const PackedXorAndA& a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel) {
  b.validate();
  c.validate();
  check_xorand_args(a, b.rows, b.cols, c.rows, c.cols, schedule);
  const XorAndPlan plan = plan_xorand(a, schedule);
  const MatRows<const std::uint64_t> b_rows{b};
  const MatRows<std::uint64_t> c_rows{c};
  for_each_block(c.rows, c.cols, schedule, cancel,
                 [&](std::size_t m0, std::size_t m1, std::size_t n0,
                     std::size_t n1) {
                   run_xorand(plan, b_rows, c_rows, m0, m1, n0, n1);
                 });
}

void gemm_xorand(MatView<const std::uint64_t> a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel) {
  gemm_xorand(PackedXorAndA::pack(a), b, c, schedule, cancel);
}

void gemm_xorand_scattered(const PackedXorAndA& a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel) {
  check_xorand_args(a, b.rows(), b.cols(), c.rows(), c.cols(), schedule);
  if (b.contiguous() && c.contiguous()) {
    gemm_xorand(a, b.as_matview(), c.as_matview(), schedule, cancel);
    return;
  }
  const XorAndPlan plan = plan_xorand(a, schedule);
  const ScatteredRows<const std::uint64_t> b_rows{b};
  const ScatteredRows<std::uint64_t> c_rows{c};
  for_each_block(c.rows(), c.cols(), schedule, cancel,
                 [&](std::size_t m0, std::size_t m1, std::size_t n0,
                     std::size_t n1) {
                   run_xorand(plan, b_rows, c_rows, m0, m1, n0, n1);
                 });
}

void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel) {
  gemm_xorand_scattered(PackedXorAndA::pack(a), b, c, schedule, cancel);
}

void gemm_xorand_batched(const PackedXorAndA& a,
                         std::span<const XorAndBatch> items,
                         const Schedule& schedule,
                         const CancelToken& cancel) {
  if (items.empty()) return;
  if (items.size() == 1) {
    // Oversized / lone requests bypass coalescing: no staging copy.
    gemm_xorand(a, items[0].b, items[0].c, schedule, cancel);
    return;
  }
  const std::size_t k = a.cols;
  const std::size_t m = a.rows;
  std::size_t n_total = 0;
  for (const XorAndBatch& item : items) {
    item.b.validate();
    item.c.validate();
    check_xorand_args(a, item.b.rows, item.b.cols, item.c.rows, item.c.cols,
                      schedule);
    n_total += item.b.cols;
  }

  // Coalescing exists to enlarge N so thread partitioning has work to
  // hand out; a serial schedule gains nothing from a wide B and would
  // pay the gather/scatter memory traffic for free. Run items
  // back-to-back instead (same results, no staging).
  if (schedule.num_threads <= 1) {
    for (const XorAndBatch& item : items) {
      cancel.throw_if_cancelled();
      gemm_xorand(a, item.b, item.c, schedule, cancel);
    }
    return;
  }

  // Zero-copy scattered dispatch: logical row r of the wide K x (sum N_i)
  // B matrix is the concatenation of every item's row r — a fragment
  // list, not a staging buffer. The driver reads each fragment in place
  // or gathers it per panel, so request payloads flow to the sliver
  // packing straight from the callers' buffers.
  std::vector<Fragment<const std::uint64_t>> b_frags;
  b_frags.reserve(k * items.size());
  for (std::size_t row = 0; row < k; ++row)
    for (const XorAndBatch& item : items)
      b_frags.push_back({item.b.row(row), item.b.cols});
  std::vector<Fragment<std::uint64_t>> c_frags;
  c_frags.reserve(m * items.size());
  for (std::size_t row = 0; row < m; ++row)
    for (const XorAndBatch& item : items)
      c_frags.push_back({item.c.row(row), item.c.cols});
  gemm_xorand_scattered(
      a, ScatteredView<const std::uint64_t>(k, n_total, std::move(b_frags)),
      ScatteredView<std::uint64_t>(m, n_total, std::move(c_frags)), schedule,
      cancel);
}

void gemm_xorand_batched(MatView<const std::uint64_t> a,
                         std::span<const XorAndBatch> items,
                         const Schedule& schedule,
                         const CancelToken& cancel) {
  if (items.empty()) return;
  gemm_xorand_batched(PackedXorAndA::pack(a), items, schedule, cancel);
}

void gemm_sumprod_i64(MatView<const std::int64_t> a,
                      MatView<const std::int64_t> b, MatView<std::int64_t> c,
                      const Schedule& schedule) {
  gemm_sumprod<SumProd<std::int64_t>>(a, b, c, schedule);
}

void gemm_sumprod_f32(MatView<const float> a, MatView<const float> b,
                      MatView<float> c, const Schedule& schedule) {
  gemm_sumprod<SumProd<float>>(a, b, c, schedule);
}

void gemm_naive_sumprod_f32(MatView<const float> a, MatView<const float> b,
                            MatView<float> c) {
  gemm_naive<SumProd<float>>(a, b, c);
}

void gemm_naive_xorand(MatView<const std::uint64_t> a,
                       MatView<const std::uint64_t> b,
                       MatView<std::uint64_t> c) {
  gemm_naive<XorAnd64>(a, b, c);
}

void gemm_naive_sumprod_i64(MatView<const std::int64_t> a,
                            MatView<const std::int64_t> b,
                            MatView<std::int64_t> c) {
  gemm_naive<SumProd<std::int64_t>>(a, b, c);
}

}  // namespace tvmec::tensor
