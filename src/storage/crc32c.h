#pragma once

#include <cstdint>
#include <span>

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum storage systems pair with erasure coding: parities
/// protect against *loss*, checksums against *silent corruption*, and a
/// scrubber uses the checksum to decide which unit to rebuild.
///
/// Two paths, chosen once at first use: on x86-64 CPUs with SSE4.2 a
/// hardware kernel (crc32c_sse42.cpp) runs the crc32 instruction over
/// three independent lanes and joins them with a GF(2) multiply; every
/// other build or CPU runs portable slicing-by-8. Both return identical
/// values and match the iSCSI/ext4/RocksDB CRC-32C test vectors.
namespace tvmec::storage {

/// CRC of a whole buffer.
std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept;

/// Incremental form: feed `data` into a running CRC (start with 0).
std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> data) noexcept;

}  // namespace tvmec::storage
