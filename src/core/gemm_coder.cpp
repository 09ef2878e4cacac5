#include "core/gemm_coder.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include <cstring>

#include "tensor/kernel.h"
#include "tensor/scattered.h"

namespace tvmec::core {

namespace {

tensor::PackedXorAndA pack_bitmatrix(const gf::Matrix& coeffs) {
  const ec::BitmatrixCode code(coeffs);
  const gf::BitMatrix& bits = code.bits();
  if (bits.rows() == 0 || bits.cols() == 0) {  // r == 0: nothing to encode
    tensor::PackedXorAndA empty;
    empty.rows = bits.rows();
    empty.cols = bits.cols();
    empty.ones_row.assign(bits.rows() + 1, 0);
    empty.word_row.assign(bits.rows() + 1, 0);
    return empty;
  }
  std::vector<std::uint64_t> masks(bits.rows() * bits.cols());
  for (std::size_t i = 0; i < bits.rows(); ++i)
    for (std::size_t j = 0; j < bits.cols(); ++j)
      masks[i * bits.cols() + j] =
          bits.get(i, j) ? ~std::uint64_t{0} : std::uint64_t{0};
  return tensor::PackedXorAndA::pack(
      {masks.data(), bits.rows(), bits.cols(), bits.cols()});
}

}  // namespace

GemmCoder::GemmCoder(const gf::Matrix& coeffs)
    : GemmCoder(coeffs, tensor::default_schedule()) {}

GemmCoder::GemmCoder(const gf::Matrix& coeffs, const tensor::Schedule& schedule)
    : w_(coeffs.field().w()),
      in_units_(coeffs.cols()),
      out_units_(coeffs.rows()),
      packed_(pack_bitmatrix(coeffs)),
      schedule_(schedule) {
  if (!schedule_.valid())
    throw std::invalid_argument("GemmCoder: invalid schedule");
}

void GemmCoder::set_schedule(const tensor::Schedule& schedule) {
  if (!schedule.valid())
    throw std::invalid_argument("GemmCoder: invalid schedule");
  schedule_ = schedule;
}

void GemmCoder::do_apply(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out,
                         std::size_t unit_size) const {
  // MatrixCoder::apply guarantees aligned operands and a word-multiple
  // packet size before dispatching here.
  const std::size_t packet_words = unit_size / w_ / 8;
  const std::size_t kw = in_units_ * w_;
  const std::size_t rw = out_units_ * w_;
  // The contiguous unit buffer *is* the packed B matrix: packet p of unit
  // u is row u*w + p, and rows are exactly packet_words apart.
  const tensor::MatView<const std::uint64_t> b{
      reinterpret_cast<const std::uint64_t*>(in.data()), kw, packet_words,
      packet_words};
  const tensor::MatView<std::uint64_t> c{
      reinterpret_cast<std::uint64_t*>(out.data()), rw, packet_words,
      packet_words};
  tensor::gemm_xorand(packed_, b, c, schedule_);
}

void GemmCoder::apply_batch(std::span<const ec::CoderBatchItem> items,
                            int max_threads,
                            const tensor::CancelToken& cancel) const {
  const auto word_aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
  };
  const std::size_t kw = in_units_ * w_;
  const std::size_t rw = out_units_ * w_;

  std::vector<tensor::XorAndBatch> fast;
  std::vector<const ec::CoderBatchItem*> slow;
  fast.reserve(items.size());
  for (const ec::CoderBatchItem& item : items) {
    validate_apply_args(item.in, item.out, item.unit_size);
    if (item.out.empty()) continue;  // r == 0: nothing to compute
    const std::size_t pb = item.unit_size / w_;
    if (pb % 8 != 0 || !word_aligned(item.in.data()) ||
        !word_aligned(item.out.data())) {
      slow.push_back(&item);  // the staging path of apply() handles it
      continue;
    }
    const std::size_t packet_words = pb / 8;
    fast.push_back(tensor::XorAndBatch{
        {reinterpret_cast<const std::uint64_t*>(item.in.data()), kw,
         packet_words, packet_words},
        {reinterpret_cast<std::uint64_t*>(item.out.data()), rw, packet_words,
         packet_words}});
  }

  if (!fast.empty()) {
    tensor::Schedule s = schedule_;
    if (max_threads > 0) s.num_threads = std::min(s.num_threads, max_threads);
    tensor::gemm_xorand_batched(packed_, fast, s, cancel);
  }
  for (const ec::CoderBatchItem* item : slow) {
    cancel.throw_if_cancelled();
    apply(item->in, item->out, item->unit_size);
  }
}

void GemmCoder::apply_scattered(std::span<const ScatteredCoderItem> items,
                                int max_threads,
                                const tensor::CancelToken& cancel) const {
  const auto word_aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
  };
  const std::size_t kw = in_units_ * w_;
  const std::size_t rw = out_units_ * w_;

  std::vector<const ScatteredCoderItem*> fast;
  std::vector<const ScatteredCoderItem*> slow;
  fast.reserve(items.size());
  std::size_t n_total = 0;
  for (const ScatteredCoderItem& item : items) {
    if (item.unit_size == 0 || item.unit_size % w_ != 0)
      throw std::invalid_argument(
          "apply_scattered: unit size must be a positive multiple of w");
    if (item.in.size() != in_units_ || item.out.size() != out_units_)
      throw std::invalid_argument("apply_scattered: wrong unit pointer count");
    for (const std::uint8_t* p : item.in)
      if (p == nullptr)
        throw std::invalid_argument("apply_scattered: null input unit");
    for (std::uint8_t* p : item.out)
      if (p == nullptr)
        throw std::invalid_argument("apply_scattered: null output unit");
    if (out_units_ == 0) continue;  // r == 0: nothing to compute
    const std::size_t pb = item.unit_size / w_;
    // Sub-threshold units take the staged road on purpose (the E21
    // crossover): the fragment walk's per-panel overhead beats one bulk
    // memcpy only once units are big enough to amortize it.
    const bool qualified =
        pb % 8 == 0 && item.unit_size >= scattered_staging_threshold_ &&
        std::all_of(item.in.begin(), item.in.end(), word_aligned) &&
        std::all_of(item.out.begin(), item.out.end(), word_aligned);
    if (qualified) {
      fast.push_back(&item);
      n_total += pb / 8;
    } else {
      slow.push_back(&item);
    }
  }

  if (!fast.empty()) {
    // Every qualified item contributes one fragment per packet row: row
    // u*w + p of the logical wide B matrix is, per item, packet p of unit
    // u in place in the caller's buffer. The scattered kernel gathers
    // these per cache panel — submit → kernel with zero staging copies.
    std::vector<tensor::Fragment<const std::uint64_t>> b_frags;
    std::vector<tensor::Fragment<std::uint64_t>> c_frags;
    b_frags.reserve(kw * fast.size());
    c_frags.reserve(rw * fast.size());
    for (std::size_t row = 0; row < kw; ++row) {
      const std::size_t u = row / w_;
      const std::size_t p = row % w_;
      for (const ScatteredCoderItem* item : fast) {
        const std::size_t pb = item->unit_size / w_;
        b_frags.push_back(
            {reinterpret_cast<const std::uint64_t*>(item->in[u] + p * pb),
             pb / 8});
      }
    }
    for (std::size_t row = 0; row < rw; ++row) {
      const std::size_t u = row / w_;
      const std::size_t p = row % w_;
      for (const ScatteredCoderItem* item : fast) {
        const std::size_t pb = item->unit_size / w_;
        c_frags.push_back(
            {reinterpret_cast<std::uint64_t*>(item->out[u] + p * pb), pb / 8});
      }
    }
    tensor::Schedule s = schedule_;
    if (max_threads > 0) s.num_threads = std::min(s.num_threads, max_threads);
    tensor::gemm_xorand_scattered(
        packed_,
        tensor::ScatteredView<const std::uint64_t>(kw, n_total,
                                                   std::move(b_frags)),
        tensor::ScatteredView<std::uint64_t>(rw, n_total, std::move(c_frags)),
        s, cancel);
  }

  // Degenerate items (misaligned pointers or sub-word packets) take the
  // staging road they always took: gather into contiguous scratch, apply,
  // scatter back — every memcpy visible in kernel_stage_stats.
  for (const ScatteredCoderItem* item : slow) {
    cancel.throw_if_cancelled();
    const std::size_t unit = item->unit_size;
    tensor::AlignedBuffer<std::uint8_t> in_stage(in_units_ * unit);
    tensor::AlignedBuffer<std::uint8_t> out_stage(out_units_ * unit);
    for (std::size_t u = 0; u < in_units_; ++u) {
      std::memcpy(in_stage.data() + u * unit, item->in[u], unit);
      tensor::note_staging_copy(unit);
    }
    apply(in_stage.span(), out_stage.span(), unit);
    for (std::size_t u = 0; u < out_units_; ++u) {
      std::memcpy(item->out[u], out_stage.data() + u * unit, unit);
      tensor::note_staging_copy(unit);
    }
  }
}

tune::TaskShape GemmCoder::task_shape(std::size_t unit_size) const {
  return tune::TaskShape{out_units_ * w_, unit_size / w_ / 8, in_units_ * w_};
}

tune::TuneResult GemmCoder::tune(std::size_t unit_size,
                                 const tune::TuneOptions& options,
                                 int max_threads) {
  const std::size_t quantum = std::size_t{8} * w_;
  if (unit_size == 0 || unit_size % quantum != 0)
    throw std::invalid_argument("tune: unit size must be multiple of 8*w");

  // Synthetic operands; contents do not affect timing (data-oblivious
  // kernel), but use real random bytes anyway.
  tensor::AlignedBuffer<std::uint8_t> data(in_units_ * unit_size);
  tensor::AlignedBuffer<std::uint8_t> parity(out_units_ * unit_size);
  std::mt19937_64 rng(0xEC);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(rng());

  const tune::SearchSpace space(task_shape(unit_size), max_threads);
  const double bytes = static_cast<double>(in_units_ * unit_size);
  tensor::Schedule saved = schedule_;
  const tune::MeasureFn measure = [&](const tensor::Schedule& s) {
    schedule_ = s;
    // One warmup, then median of five timed runs (this box is noisy).
    apply(data.span(), parity.span(), unit_size);
    const double secs = tune::measure_seconds_median(
        [&] { apply(data.span(), parity.span(), unit_size); }, 5);
    return bytes / secs;
  };
  // The search may find nothing faster than the schedule already
  // installed; the incumbent is measured too and kept in that case.
  tune::TuneResult result = tune::tune(space, measure, options, saved);
  schedule_ = result.best_throughput > 0 ? result.best_schedule : saved;
  return result;
}

}  // namespace tvmec::core
