#include "ec/linear_code.h"

#include <numeric>
#include <stdexcept>
#include <vector>

#include "ec/reed_solomon.h"

namespace tvmec::ec {

gf::Matrix LinearCode::parity_matrix() const {
  std::vector<std::size_t> ids(n() - k());
  std::iota(ids.begin(), ids.end(), k());
  return generator_.select_rows(ids);
}

void LinearCode::encode_reference(std::span<const std::uint8_t> data,
                                  std::span<std::uint8_t> parity,
                                  std::size_t unit_size) const {
  if (data.size() != k() * unit_size)
    throw std::invalid_argument("encode_reference: bad data size");
  if (parity.size() != (n() - k()) * unit_size)
    throw std::invalid_argument("encode_reference: bad parity size");
  apply_matrix_reference(parity_matrix(), data, parity, unit_size);
}

}  // namespace tvmec::ec
