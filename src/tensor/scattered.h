#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/kernel.h"
#include "tensor/schedule.h"

/// Scattered (iovec-style) GEMM operands.
///
/// Erasure-coding callers rarely hold their data contiguously: Jerasure-style
/// APIs hand the codec one pointer per unit, the serving layer batches many
/// requests whose payloads live in unrelated client buffers, and decode reads
/// survivors straight out of stripe storage. Staging all of that into one
/// contiguous matrix before the kernel runs is the §5 memcpy tax the paper
/// measures at 60–140%. A ScatteredView describes the logical row-major
/// operand as a fragment list instead, and gemm_xorand_scattered folds the
/// gather into the panel-packing step the tiled loop performs anyway — each
/// fragment's words are touched once, in cache, as part of packing, rather
/// than being re-streamed through a full-size staging buffer first.
namespace tvmec::tensor {

/// One physically contiguous piece of a logical operand stream.
/// `words` counts elements (not bytes); fragments must be non-empty.
template <typename T>
struct Fragment {
  T* ptr = nullptr;
  std::size_t words = 0;
};

/// A logical rows x cols row-major matrix whose element stream is split
/// into arbitrary word-granular fragments. Fragment boundaries need not
/// respect row boundaries: the concatenated fragments ARE the row-major
/// stream, in order. Invariants (checked at construction):
///   - every fragment has a non-null pointer and words >= 1,
///   - sum of fragment words == rows * cols,
///   - rows >= 1 and cols >= 1.
/// The view does not own the fragment storage; callers keep the underlying
/// buffers alive and unmoved while a kernel consumes the view.
template <typename T>
class ScatteredView {
 public:
  ScatteredView() = default;

  ScatteredView(std::size_t rows, std::size_t cols,
                std::vector<Fragment<T>> fragments)
      : rows_(rows), cols_(cols), fragments_(std::move(fragments)) {
    if (rows_ == 0 || cols_ == 0)
      throw std::invalid_argument("ScatteredView: zero dimension");
    offsets_.reserve(fragments_.size() + 1);
    offsets_.push_back(0);
    for (const Fragment<T>& f : fragments_) {
      if (f.ptr == nullptr)
        throw std::invalid_argument("ScatteredView: null fragment");
      if (f.words == 0)
        throw std::invalid_argument("ScatteredView: empty fragment");
      offsets_.push_back(offsets_.back() + f.words);
    }
    if (offsets_.back() != rows_ * cols_)
      throw std::invalid_argument(
          "ScatteredView: fragment words != rows * cols");
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t fragment_count() const noexcept { return fragments_.size(); }

  /// A single-fragment view is physically contiguous and eligible for the
  /// ordinary MatView kernel path with no packing at all.
  bool contiguous() const noexcept { return fragments_.size() == 1; }

  /// Only valid when contiguous().
  MatView<T> as_matview() const noexcept {
    return {fragments_.front().ptr, rows_, cols_, cols_};
  }

  /// Pointer to the logical word range [pos, pos + len) when it lies
  /// inside one fragment, else nullptr (the range must then be gathered).
  T* span(std::size_t pos, std::size_t len) const noexcept {
    const std::size_t f = fragment_index(pos);
    if (pos + len > offsets_[f + 1]) return nullptr;
    return fragments_[f].ptr + (pos - offsets_[f]);
  }

  /// Copies the logical word range [pos, pos + len) into dst: the
  /// kernel's gather for a panel row that crosses fragments.
  void gather(std::size_t pos, std::size_t len,
              std::remove_const_t<T>* dst) const noexcept {
    std::size_t f = fragment_index(pos);
    std::size_t off = pos - offsets_[f];
    while (len > 0) {
      const std::size_t take = std::min(len, fragments_[f].words - off);
      std::memcpy(dst, fragments_[f].ptr + off, take * sizeof(T));
      dst += take;
      len -= take;
      ++f;
      off = 0;
    }
  }

  /// Copies src over the logical word range [pos, pos + len). Only
  /// instantiable for mutable views.
  void scatter(std::size_t pos, std::size_t len, const T* src) const noexcept {
    static_assert(!std::is_const_v<T>,
                  "ScatteredView::scatter requires a mutable view");
    std::size_t f = fragment_index(pos);
    std::size_t off = pos - offsets_[f];
    while (len > 0) {
      const std::size_t take = std::min(len, fragments_[f].words - off);
      std::memcpy(fragments_[f].ptr + off, src, take * sizeof(T));
      src += take;
      len -= take;
      ++f;
      off = 0;
    }
  }

 private:
  /// Index of the fragment containing logical position pos (pos < total).
  std::size_t fragment_index(std::size_t pos) const noexcept {
    return static_cast<std::size_t>(
               std::upper_bound(offsets_.begin(), offsets_.end(), pos) -
               offsets_.begin()) -
           1;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Fragment<T>> fragments_;
  std::vector<std::size_t> offsets_;  // prefix sums; offsets_[i] = start of i
};

/// C = A (x) B over the XorAnd semiring with scattered B and C operands.
/// Shapes: A is MxK, B is KxN, C is MxN.
///
/// Runs the one XorAnd driver gemm_xorand runs, and folds the gather into
/// its packing. Per panel of block_n columns, every B and C row whose
/// panel range lies inside one fragment is read or written in place;
/// only a row the panel splits across fragments is gathered into (B) or
/// staged in and scattered out of (C) scratch, once per panel. The B
/// sliver pack then reads in-place and gathered rows alike. Partitioning
/// and `cancel` polling follow gemm_xorand.
void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel = {});
void gemm_xorand_scattered(const PackedXorAndA& a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel = {});

}  // namespace tvmec::tensor
