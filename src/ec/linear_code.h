#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "ec/decoder.h"
#include "gf/gf_matrix.h"

/// A systematic linear erasure code, seen through its generator matrix:
/// the view every code family (Reed-Solomon, LRC) shares and the one
/// core::Codec executes. Units 0..k-1 are the data verbatim; unit i >= k
/// is generator row i applied to the data, so encode and every decode
/// are GEMMs with some coefficient matrix ("all linear codes can be
/// developed via a highly optimized GEMM routine", paper §8).
namespace tvmec::ec {

class LinearCode {
 public:
  virtual ~LinearCode() = default;

  const gf::Field& field() const noexcept { return generator_.field(); }

  /// Full n x k generator: identity on top, then one row per parity.
  const gf::Matrix& generator() const noexcept { return generator_; }

  std::size_t k() const noexcept { return generator_.cols(); }
  std::size_t n() const noexcept { return generator_.rows(); }

  /// The (n - k) x k parity block (everything below the identity).
  gf::Matrix parity_matrix() const;

  /// Reference encoder (byte embedding) over contiguous buffers: k data
  /// units in, n - k parity units out. Slow; every optimized backend is
  /// validated against it. Throws std::invalid_argument on size mismatch.
  void encode_reference(std::span<const std::uint8_t> data,
                        std::span<std::uint8_t> parity,
                        std::size_t unit_size) const;

  /// A plan that rebuilds the single unit `failed_unit` from fewer than k
  /// survivors, when the code has locality for it (an LRC group member);
  /// nullopt otherwise, and always for MDS codes.
  virtual std::optional<DecodePlan> local_repair_plan(
      std::size_t /*failed_unit*/) const {
    return std::nullopt;
  }

 protected:
  explicit LinearCode(gf::Matrix generator)
      : generator_(std::move(generator)) {}
  LinearCode(const LinearCode&) = default;
  LinearCode(LinearCode&&) = default;
  LinearCode& operator=(const LinearCode&) = default;
  LinearCode& operator=(LinearCode&&) = default;

 private:
  gf::Matrix generator_;
};

}  // namespace tvmec::ec
