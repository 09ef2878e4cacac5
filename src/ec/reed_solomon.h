#pragma once

#include <cstdint>
#include <span>

#include "ec/code_params.h"
#include "ec/linear_code.h"
#include "gf/gf_matrix.h"

/// Reed-Solomon code construction: the code family used throughout the
/// paper's evaluation ("the most commonly used erasure code method").
namespace tvmec::ec {

/// Generator-matrix family.
enum class RsFamily {
  VandermondeSystematic,  ///< evaluation-style RS systematized (ISA-L-like)
  Cauchy,                 ///< plain Cauchy parity block (CRS)
  CauchyGood,             ///< Cauchy with bitmatrix-ones row scaling
  CauchyBest,             ///< randomized low-density Cauchy point search
};

const char* to_string(RsFamily f) noexcept;

/// A systematic Reed-Solomon code: units 0..k-1 are the data verbatim,
/// units k..k+r-1 are parities given by the bottom r x k block of the
/// generator. The full generator is (k+r) x k with an identity top block;
/// any k of its rows are invertible (MDS).
class ReedSolomon : public LinearCode {
 public:
  /// Builds the generator. Throws std::invalid_argument on bad params.
  explicit ReedSolomon(const CodeParams& params,
                       RsFamily family = RsFamily::CauchyGood);
};

/// Applies an arbitrary rows(M) x k coefficient matrix to k source units,
/// producing rows(M) output units — the shared primitive behind reference
/// encoding (M = parity block) and reference decoding (M = recovery
/// matrix).
///
/// Uses the *byte embedding* of units into field elements: for w=8,
/// element t of a unit is byte t (pairs of bytes for w=16, nibbles for
/// w=4). This is the convention of ISA-L and of classic table-based
/// GF(2^w) encoders.
void apply_matrix_reference(const gf::Matrix& m,
                            std::span<const std::uint8_t> src_units,
                            std::span<std::uint8_t> dst_units,
                            std::size_t unit_size);

/// Same operation under the *bitpacket embedding* used by bitmatrix
/// (Cauchy-Reed-Solomon-style) encoders: a unit is sliced into w packets
/// of unit_size/w bytes, and element t of the unit is the w bits found at
/// bit-position t of packets 0..w-1. This is what makes bitmatrix
/// encoding pure packet-wide XOR (paper §2.1): bit b of every element is
/// contiguous in memory.
///
/// The two embeddings yield *different parity bytes* for the same
/// coefficient matrix — both are valid, mutually non-interchangeable
/// encodings of the same code, exactly as real Jerasure bitmatrix output
/// differs from real ISA-L output. All bitmatrix backends in this repo
/// (naive, jerasure, uezato, tvm-ec GEMM) share the bitpacket embedding
/// and are validated against this reference; the ISA-L backend uses the
/// byte embedding and is validated against apply_matrix_reference.
/// unit_size must be a multiple of w (throws std::invalid_argument).
void apply_matrix_reference_bitpacket(const gf::Matrix& m,
                                      std::span<const std::uint8_t> src_units,
                                      std::span<std::uint8_t> dst_units,
                                      std::size_t unit_size);

}  // namespace tvmec::ec
