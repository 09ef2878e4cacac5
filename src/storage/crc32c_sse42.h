#pragma once

#include <cstddef>
#include <cstdint>

/// The SSE4.2 CRC-32C kernel, kept in its own translation unit
/// (crc32c_sse42.cpp) compiled with a per-file -msse4.2, like the tensor
/// kernel variants (tensor/xorand_kernels.h): everything in that TU sits
/// in an anonymous namespace, and the getter below is its only export.
namespace tvmec::storage {

/// Advances a raw (already inverted) CRC-32C state over `len` bytes.
using Crc32cKernel = std::uint32_t (*)(std::uint32_t state,
                                       const std::uint8_t* data,
                                       std::size_t len) noexcept;

/// The hardware kernel, or nullptr when this build has none (non-x86-64,
/// or a compiler without -msse4.2). Callers still check CPUID before use.
Crc32cKernel crc32c_kernel_sse42() noexcept;

}  // namespace tvmec::storage
