#pragma once

#include <cstddef>

/// Shared result types for stripe-granular scrubbing: produced by
/// StripeEngine::scrub_stripe (behind StripeStore and RaidArray) and
/// aggregated by the Scrubber.
namespace tvmec::storage {

/// Outcome of verifying (and repairing) one stripe.
struct StripeScrubResult {
  std::size_t units_verified = 0;  ///< units read and checked this stripe
  std::size_t crc_errors = 0;      ///< units whose checksum disagreed
  std::size_t parity_errors = 0;   ///< consistent-CRC units that failed
                                   ///< the parity re-encode cross-check
  std::size_t units_repaired = 0;  ///< units rewritten with good bytes
  bool unrecoverable = false;      ///< > r units lost/corrupt: left as-is

  std::size_t errors() const noexcept { return crc_errors + parity_errors; }
};

}  // namespace tvmec::storage
