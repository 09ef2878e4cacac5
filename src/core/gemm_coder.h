#pragma once

#include "ec/bitmatrix_code.h"
#include "ec/encoder.h"
#include "gf/gf_matrix.h"
#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/schedule.h"
#include "tune/tuner.h"

/// The paper's contribution: erasure coding executed as a GEMM through
/// the ML-library substrate.
///
/// A coefficient matrix over GF(2^w) is expanded to its bitmatrix and
/// packed once (tensor::PackedXorAndA: per output bit-row, the input
/// bit-rows whose bit is set, so the kernel never touches a zero bit);
/// input units are
/// viewed, without copying, as a packed (k*w) x d/(8w) word matrix; and
/// the whole encode is one gemm_xorand call whose schedule (register
/// tiles, cache blocks, threads) comes from the autotuner — the direct
/// analogue of the paper's 40-line TVM implementation.
namespace tvmec::core {

/// One scattered-operand coding request: every unit lives behind its own
/// pointer (the Jerasure calling convention, and the natural shape of
/// survivors inside a stripe or payloads in unrelated client buffers).
/// `in` holds in_units() unit pointers, `out` holds out_units() unit
/// pointers, each pointing at `unit_size` bytes.
struct ScatteredCoderItem {
  std::span<const std::uint8_t* const> in;
  std::span<std::uint8_t* const> out;
  std::size_t unit_size = 0;
};

class GemmCoder final : public ec::MatrixCoder {
 public:
  /// Scattered items with units smaller than this are routed to the
  /// staged accumulator path even when their pointers qualify for the
  /// zero-copy kernel: E21 measured the per-fragment panel walk costing
  /// more than one bulk memcpy below ~16 KB units. Settable per coder
  /// (0 disables routing — every qualified item goes zero-copy).
  static constexpr std::size_t kScatteredStageMaxBytes = 16 * 1024;

  /// Expands the coefficient matrix; starts with the default schedule.
  explicit GemmCoder(const gf::Matrix& coeffs);
  GemmCoder(const gf::Matrix& coeffs, const tensor::Schedule& schedule);

  std::size_t in_units() const noexcept override { return in_units_; }
  std::size_t out_units() const noexcept override { return out_units_; }
  std::string name() const override { return "tvm-ec"; }

  const tensor::Schedule& schedule() const noexcept { return schedule_; }
  /// Throws std::invalid_argument if the schedule is not supported.
  void set_schedule(const tensor::Schedule& schedule);

  /// Batched multi-request entry: items whose buffers qualify for the
  /// word fast path (8-byte aligned, whole-word packets) are packed into
  /// a single gemm_xorand_batched call with an enlarged N dimension —
  /// the kernel sees one big GEMM instead of many tiny ones — while
  /// degenerate items fall back to the per-item staging path of apply().
  /// `max_threads` > 0 caps the schedule's thread knob for this batch.
  /// `cancel` reaches the fused kernel (tile-chunk polling granularity).
  void apply_batch(std::span<const ec::CoderBatchItem> items,
                   int max_threads = 0,
                   const tensor::CancelToken& cancel = {}) const override;

  /// Zero-copy scattered entry: consumes pointer-per-unit operands
  /// directly. Items whose packets are whole 64-bit words and whose unit
  /// pointers are all 8-byte aligned become fragments of one wide-N
  /// scattered GEMM — the kernel's panel packing performs the gather in
  /// cache, no staging buffer exists at any layer. Degenerate items are
  /// gathered into contiguous scratch and run through apply() (counted by
  /// tensor::kernel_stage_stats). Semantically identical to gathering
  /// every item into contiguous buffers and calling apply_batch.
  /// `max_threads`/`cancel` follow apply_batch's contract.
  void apply_scattered(std::span<const ScatteredCoderItem> items,
                       int max_threads = 0,
                       const tensor::CancelToken& cancel = {}) const;

  /// Autotunes the encode for the given unit size on synthetic data and
  /// installs the best schedule found, or keeps the current one when it
  /// measures faster (the paper's §6.1 measurement setup, with a
  /// configurable trial budget instead of 20 000).
  /// `max_threads` caps the thread knob of the search space.
  /// Returns the full tuning history for analysis.
  tune::TuneResult tune(std::size_t unit_size,
                        const tune::TuneOptions& options, int max_threads);

  /// The GEMM task shape this coder executes for a given unit size:
  /// m = out_units*w, n = unit_size/(8w) words, k = in_units*w.
  tune::TaskShape task_shape(std::size_t unit_size) const;

  unsigned w() const noexcept { return w_; }

  /// See kScatteredStageMaxBytes. Units strictly below the threshold
  /// stage; at or above it they ride the zero-copy fragment path.
  void set_scattered_staging_threshold(std::size_t bytes) noexcept {
    scattered_staging_threshold_ = bytes;
  }
  std::size_t scattered_staging_threshold() const noexcept {
    return scattered_staging_threshold_;
  }

 protected:
  void do_apply(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                std::size_t unit_size) const override;
  unsigned bit_sliced_w() const noexcept override { return w_; }

 private:
  unsigned w_;
  std::size_t in_units_;
  std::size_t out_units_;
  tensor::PackedXorAndA packed_;  // (out*w) x (in*w) bitmatrix, packed
  tensor::Schedule schedule_;
  std::size_t scattered_staging_threshold_ = kScatteredStageMaxBytes;
};

}  // namespace tvmec::core
