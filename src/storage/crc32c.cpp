#include "storage/crc32c.h"

#include <array>

#include "storage/crc32c_sse42.h"
#include "tensor/variant.h"

namespace tvmec::storage {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

struct Tables {
  // slice[j][b]: CRC contribution of byte b seen j positions ago.
  std::array<std::array<std::uint32_t, 256>, 8> slice{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
      slice[0][b] = crc;
    }
    for (std::size_t j = 1; j < 8; ++j)
      for (std::uint32_t b = 0; b < 256; ++b)
        slice[j][b] =
            (slice[j - 1][b] >> 8) ^ slice[0][slice[j - 1][b] & 0xFF];
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

/// Portable slicing-by-8 over a raw (inverted) state: the only path on
/// non-x86 builds and on CPUs without SSE4.2.
std::uint32_t crc32c_slicing8(std::uint32_t crc, const std::uint8_t* p,
                              std::size_t len) noexcept {
  const Tables& t = tables();
  while (len >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8) |
                                    (static_cast<std::uint32_t>(p[2]) << 16) |
                                    (static_cast<std::uint32_t>(p[3]) << 24));
    crc = t.slice[7][lo & 0xFF] ^ t.slice[6][(lo >> 8) & 0xFF] ^
          t.slice[5][(lo >> 16) & 0xFF] ^ t.slice[4][lo >> 24] ^
          t.slice[3][p[4]] ^ t.slice[2][p[5]] ^ t.slice[1][p[6]] ^
          t.slice[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) crc = (crc >> 8) ^ t.slice[0][(crc ^ *p++) & 0xFF];
  return crc;
}

Crc32cKernel select_kernel() noexcept {
  const Crc32cKernel hw = crc32c_kernel_sse42();
  return hw != nullptr && tensor::cpu_features().sse42 ? hw : &crc32c_slicing8;
}

}  // namespace

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> data) noexcept {
  static const Crc32cKernel kernel = select_kernel();
  return ~kernel(~crc, data.data(), data.size());
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return crc32c_extend(0, data);
}

}  // namespace tvmec::storage
