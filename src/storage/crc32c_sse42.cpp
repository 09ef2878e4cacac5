// SSE4.2 CRC-32C kernel: the crc32 instruction over three independent
// lanes. Compiled with per-file -msse4.2 (see src/storage/CMakeLists.txt);
// selected at runtime only when CPUID reports SSE4.2, so the rest of the
// binary stays portable.

#include "storage/crc32c_sse42.h"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include <array>
#include <cstring>

namespace tvmec::storage {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

/// Multiplies a reflected polynomial (bit 31 is x^0) by x, mod P.
constexpr std::uint32_t times_x(std::uint32_t v) {
  return (v >> 1) ^ ((v & 1u) ? kPolyReflected : 0u);
}

/// x^i * x^(8*bytes) mod P for i = 0..31: multiplying a CRC state by
/// x^(8*bytes) -- appending `bytes` zero bytes -- is then the XOR of the
/// entries its set bits select.
constexpr std::array<std::uint32_t, 32> zeros_operator(std::size_t bytes) {
  std::uint32_t v = 0x80000000u;  // x^0
  for (std::size_t i = 0; i < 8 * bytes; ++i) v = times_x(v);
  std::array<std::uint32_t, 32> op{};
  for (std::size_t i = 0; i < 32; ++i) {
    op[i] = v;
    v = times_x(v);
  }
  return op;
}

/// 32-step GF(2) multiply of `crc` by the operator's power of x.
std::uint32_t apply(const std::array<std::uint32_t, 32>& op,
                    std::uint32_t crc) {
  std::uint32_t out = 0;
  for (std::size_t i = 0; i < 32; ++i)
    out ^= op[i] & (0u - ((crc >> (31 - i)) & 1u));
  return out;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Consumes whole blocks of 3 * Lane bytes: lane a continues the running
/// state, lanes b and c start from zero, so the three crc32 chains are
/// independent and hide the instruction's 3-cycle latency. The lanes
/// join as a * x^(16 Lane) + b * x^(8 Lane) + c.
template <std::size_t Lane>
std::uint32_t three_lanes(std::uint32_t state, const std::uint8_t*& p,
                          std::size_t& len) {
  static_assert(Lane % 8 == 0);
  static constexpr auto kShift1 = zeros_operator(Lane);
  static constexpr auto kShift2 = zeros_operator(2 * Lane);
  while (len >= 3 * Lane) {
    std::uint64_t a = state, b = 0, c = 0;
    for (std::size_t i = 0; i < Lane; i += 8) {
      a = _mm_crc32_u64(a, load64(p + i));
      b = _mm_crc32_u64(b, load64(p + Lane + i));
      c = _mm_crc32_u64(c, load64(p + 2 * Lane + i));
    }
    state = apply(kShift2, static_cast<std::uint32_t>(a)) ^
            apply(kShift1, static_cast<std::uint32_t>(b)) ^
            static_cast<std::uint32_t>(c);
    p += 3 * Lane;
    len -= 3 * Lane;
  }
  return state;
}

std::uint32_t crc32c_sse42(std::uint32_t state, const std::uint8_t* p,
                           std::size_t len) noexcept {
  state = three_lanes<4096>(state, p, len);
  state = three_lanes<256>(state, p, len);
  std::uint64_t s = state;
  for (; len >= 8; p += 8, len -= 8) s = _mm_crc32_u64(s, load64(p));
  state = static_cast<std::uint32_t>(s);
  for (; len > 0; ++p, --len) state = _mm_crc32_u8(state, *p);
  return state;
}

}  // namespace

Crc32cKernel crc32c_kernel_sse42() noexcept { return &crc32c_sse42; }

}  // namespace tvmec::storage

#else  // compiler lacked SSE4.2 target support, or not x86-64

namespace tvmec::storage {
Crc32cKernel crc32c_kernel_sse42() noexcept { return nullptr; }
}  // namespace tvmec::storage

#endif
