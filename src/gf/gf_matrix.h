#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "gf/gf.h"

/// Dense matrices over GF(2^w) and the generator-matrix constructions used
/// by Reed-Solomon erasure codes (Vandermonde and Cauchy families).
namespace tvmec::gf {

/// A dense row-major matrix with entries in a fixed GF(2^w).
///
/// The matrix holds a pointer to its field; fields obtained via `Field::of`
/// live for the program duration, so copies are cheap and safe.
class Matrix {
 public:
  /// Zero matrix of the given shape. Zero-dimension matrices are legal
  /// (an r == 0 code has an empty parity block) and hold no elements.
  Matrix(const Field& field, std::size_t rows, std::size_t cols);

  const Field& field() const noexcept { return *field_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  elem_t at(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return data_[r * cols_ + c];
  }
  void set(std::size_t r, std::size_t c, elem_t v) {
    check_index(r, c);
    data_[r * cols_ + c] = v;
  }

  /// Row r as a contiguous span.
  std::span<const elem_t> row(std::size_t r) const;
  /// Every entry, row-major.
  std::span<const elem_t> elements() const noexcept { return data_; }

  bool operator==(const Matrix& other) const noexcept;

  /// n x n identity.
  static Matrix identity(const Field& field, std::size_t n);

  /// rows x cols Vandermonde matrix: entry (i, j) = i^j in the field
  /// (with 0^0 == 1). Requires rows <= field order so evaluation points
  /// stay distinct; throws std::invalid_argument otherwise.
  static Matrix vandermonde(const Field& field, std::size_t rows,
                            std::size_t cols);

  /// r x k Cauchy matrix with entry (i, j) = 1 / (x_i + y_j) where
  /// x_i = i and y_j = r + j. Requires r + k <= field order.
  static Matrix cauchy(const Field& field, std::size_t r, std::size_t k);

  /// Cauchy matrix post-processed to reduce the number of ones in its
  /// bitmatrix expansion (Jerasure's "good" Cauchy idea): each row is
  /// scaled by the inverse of whichever of its elements minimizes the
  /// row's bitmatrix weight. Row scaling preserves the MDS property.
  static Matrix cauchy_good(const Field& field, std::size_t r, std::size_t k);

  /// Low-density Cauchy search (the §2.1 "generator matrices ... with as
  /// few ones in the matrix as possible" optimization, Jerasure's
  /// cauchy_best): samples `trials` random Cauchy point sets, applies the
  /// cauchy_good row scaling to each, and returns the sparsest. Any
  /// Cauchy point set yields an MDS parity block, so density is the only
  /// thing the search changes. Deterministic for a given seed.
  static Matrix cauchy_best(const Field& field, std::size_t r, std::size_t k,
                            std::size_t trials = 32,
                            std::uint64_t seed = 0xEC);

  /// Matrix product. Throws std::invalid_argument on shape mismatch.
  Matrix mul(const Matrix& rhs) const;

  /// Matrix-vector product y = M x. x.size() must equal cols().
  std::vector<elem_t> mul_vec(std::span<const elem_t> x) const;

  /// Gauss-Jordan inverse; nullopt if singular. Requires square.
  std::optional<Matrix> inverted() const;

  /// New matrix made of the given rows (in the given order); an empty
  /// selection yields a zero-row matrix.
  Matrix select_rows(std::span<const std::size_t> row_ids) const;

  /// Vertical concatenation [this; below]. Column counts must match.
  Matrix vstack(const Matrix& below) const;

 private:
  void check_index(std::size_t r, std::size_t c) const;

  const Field* field_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<elem_t> data_;
};

/// Builds the (k+r) x k *systematic* generator matrix of a Vandermonde
/// Reed-Solomon code: the top k x k block is the identity and the bottom
/// r x k block holds the parity coefficients. Constructed as V * inv(V_top),
/// which preserves the MDS property of the underlying evaluation code.
/// Requires k + r <= field order (throws std::invalid_argument).
Matrix rs_generator_vandermonde(const Field& field, std::size_t k,
                                std::size_t r);

/// Builds the (k+r) x k systematic generator matrix of a Cauchy
/// Reed-Solomon code: identity on top, (good) Cauchy matrix below.
Matrix rs_generator_cauchy(const Field& field, std::size_t k, std::size_t r,
                           bool minimize_ones = true);

}  // namespace tvmec::gf
