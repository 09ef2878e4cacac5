#include "ec/reed_solomon.h"

#include <stdexcept>

namespace tvmec::ec {

namespace {

gf::Matrix build_generator(const CodeParams& p, RsFamily family) {
  p.validate();
  const gf::Field& field = gf::Field::of(p.w);
  switch (family) {
    case RsFamily::VandermondeSystematic:
      return gf::rs_generator_vandermonde(field, p.k, p.r);
    case RsFamily::Cauchy:
      return gf::rs_generator_cauchy(field, p.k, p.r, /*minimize_ones=*/false);
    case RsFamily::CauchyGood:
      return gf::rs_generator_cauchy(field, p.k, p.r, /*minimize_ones=*/true);
    case RsFamily::CauchyBest:
      return gf::Matrix::identity(field, p.k)
          .vstack(gf::Matrix::cauchy_best(field, p.r, p.k));
  }
  throw std::invalid_argument("ReedSolomon: unknown family");
}

}  // namespace

const char* to_string(RsFamily f) noexcept {
  switch (f) {
    case RsFamily::VandermondeSystematic:
      return "vandermonde";
    case RsFamily::Cauchy:
      return "cauchy";
    case RsFamily::CauchyGood:
      return "cauchy-good";
    case RsFamily::CauchyBest:
      return "cauchy-best";
  }
  return "?";
}

ReedSolomon::ReedSolomon(const CodeParams& params, RsFamily family)
    : LinearCode(build_generator(params, family)) {}

void apply_matrix_reference(const gf::Matrix& m,
                            std::span<const std::uint8_t> src_units,
                            std::span<std::uint8_t> dst_units,
                            std::size_t unit_size) {
  const std::size_t k = m.cols();
  const std::size_t rows = m.rows();
  if (src_units.size() != k * unit_size)
    throw std::invalid_argument("apply_matrix_reference: bad source size");
  if (dst_units.size() != rows * unit_size)
    throw std::invalid_argument("apply_matrix_reference: bad dest size");
  const gf::Field& field = m.field();
  std::fill(dst_units.begin(), dst_units.end(), std::uint8_t{0});
  for (std::size_t i = 0; i < rows; ++i) {
    const std::span<std::uint8_t> dst = dst_units.subspan(i * unit_size, unit_size);
    for (std::size_t j = 0; j < k; ++j) {
      const gf::elem_t c = m.at(i, j);
      if (c == 0) continue;
      field.region_mul_xor(c, src_units.subspan(j * unit_size, unit_size), dst);
    }
  }
}

namespace {

bool get_bit(const std::uint8_t* p, std::size_t bit) {
  return (p[bit >> 3] >> (bit & 7)) & 1u;
}

void xor_bit(std::uint8_t* p, std::size_t bit, bool v) {
  p[bit >> 3] = static_cast<std::uint8_t>(p[bit >> 3] ^
                                          (static_cast<std::uint8_t>(v)
                                           << (bit & 7)));
}

}  // namespace

void apply_matrix_reference_bitpacket(const gf::Matrix& m,
                                      std::span<const std::uint8_t> src_units,
                                      std::span<std::uint8_t> dst_units,
                                      std::size_t unit_size) {
  const gf::Field& field = m.field();
  const unsigned w = field.w();
  const std::size_t k = m.cols();
  const std::size_t rows = m.rows();
  if (unit_size == 0 || unit_size % w != 0)
    throw std::invalid_argument(
        "apply_matrix_reference_bitpacket: unit size must be multiple of w");
  if (src_units.size() != k * unit_size)
    throw std::invalid_argument(
        "apply_matrix_reference_bitpacket: bad source size");
  if (dst_units.size() != rows * unit_size)
    throw std::invalid_argument(
        "apply_matrix_reference_bitpacket: bad dest size");

  const std::size_t packet_bytes = unit_size / w;
  const std::size_t packet_bits = packet_bytes * 8;

  // Gather every unit into element-major form once: element t of unit j
  // collects bit-position t of each of the unit's w packets.
  std::vector<std::vector<gf::elem_t>> elems(
      k, std::vector<gf::elem_t>(packet_bits, 0));
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint8_t* unit = src_units.data() + j * unit_size;
    for (std::size_t t = 0; t < packet_bits; ++t) {
      gf::elem_t e = 0;
      for (unsigned b = 0; b < w; ++b)
        e = static_cast<gf::elem_t>(
            e | (static_cast<gf::elem_t>(get_bit(unit + b * packet_bytes, t))
                 << b));
      elems[j][t] = e;
    }
  }

  std::fill(dst_units.begin(), dst_units.end(), std::uint8_t{0});
  std::vector<gf::elem_t> acc(packet_bits);
  for (std::size_t i = 0; i < rows; ++i) {
    std::fill(acc.begin(), acc.end(), 0);
    for (std::size_t j = 0; j < k; ++j) {
      const gf::elem_t c = m.at(i, j);
      if (c == 0) continue;
      for (std::size_t t = 0; t < packet_bits; ++t)
        acc[t] = gf::Field::add(acc[t], field.mul(c, elems[j][t]));
    }
    // Scatter the element vector back into packet-major bits.
    std::uint8_t* unit = dst_units.data() + i * unit_size;
    for (std::size_t t = 0; t < packet_bits; ++t) {
      const gf::elem_t e = acc[t];
      if (e == 0) continue;
      for (unsigned b = 0; b < w; ++b)
        xor_bit(unit + b * packet_bytes, t, (e >> b) & 1u);
    }
  }
}

}  // namespace tvmec::ec
