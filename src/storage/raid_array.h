#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/stripe_engine.h"

/// A RAID-6-style erasure-coded block array over simulated devices — the
/// classic block-layer integration of erasure coding (Patterson/Gibson/
/// Katz RAID, cited by the paper as the origin story).
///
/// n = k + r devices hold fixed-size blocks. Logical block `lba` lives in
/// stripe lba/k at stripe-position lba%k; units are rotated across
/// devices per stripe (left-symmetric layout) so parity traffic spreads
/// evenly. Small writes use the I/O-minimal parity patch (read old block
/// + r parities, GEMM the delta, write back) instead of re-encoding the
/// stripe; reads reconstruct through parity when devices are failed; a
/// replaced device is rebuilt stripe by stripe.
///
/// Devices, the per-unit CRC-32C table, fault injection, retries,
/// verified reconstruction and scrub are the shared StripeEngine; this
/// class is the block layout over it: the LBA map and the parity-patch
/// small write.
namespace tvmec::storage {

struct RaidStats {
  std::uint64_t block_writes = 0;
  std::uint64_t small_write_patches = 0;  ///< writes served by parity delta
  std::uint64_t full_stripe_writes = 0;   ///< writes that re-encoded a stripe
  std::uint64_t degraded_reads = 0;
  std::uint64_t blocks_rebuilt = 0;
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::uint64_t units_repaired = 0;        ///< units rewritten by scrub
};

class RaidArray : public StripeLayout {
 public:
  /// block_size must be a positive multiple of 8*w. Throws
  /// std::invalid_argument on bad geometry.
  RaidArray(const ec::CodeParams& params, std::size_t block_size,
            std::size_t stripes);

  std::size_t num_devices() const noexcept { return engine_.num_nodes(); }
  std::size_t block_size() const noexcept { return engine_.unit_size(); }
  /// Logical capacity in blocks (k per stripe).
  std::size_t capacity_blocks() const noexcept {
    return engine_.params().k * stripes_;
  }
  std::size_t num_stripes() const noexcept { return stripes_; }
  const RaidStats& stats() const noexcept;

  using StripeLayout::set_plan_cache;

  /// Writes one logical block. When every device is online this is a
  /// RAID small write (1 data read + 1 data write + r parity
  /// read-modify-writes); with failures it falls back to a full-stripe
  /// read-reconstruct-re-encode. Throws std::invalid_argument on a bad
  /// lba or size, std::runtime_error when the stripe is unrecoverable.
  void write_block(std::size_t lba, std::span<const std::uint8_t> data);

  /// Reads one logical block, reconstructing if its device is down or
  /// its contents fail the checksum after retries.
  std::vector<std::uint8_t> read_block(std::size_t lba);

  /// Takes a device offline, losing its contents.
  void fail_device(std::size_t device);
  /// Installs a blank replacement for a failed device (does not rebuild).
  /// Also clears any crash the attached fault injector recorded.
  void replace_device(std::size_t device);
  bool device_failed(std::size_t device) const;

  /// Reconstructs every block of every online-but-blank device.
  /// Returns blocks rebuilt. Throws std::runtime_error if some stripe
  /// has more than r unavailable units.
  std::size_t rebuild();

  /// Verifies parity of every stripe; returns the number of inconsistent
  /// stripes (0 on a healthy array).
  std::size_t verify();

  /// Verifies and repairs one stripe (see StripeEngine::scrub_stripe).
  /// Throws std::invalid_argument on a bad stripe index.
  StripeScrubResult scrub_stripe(std::size_t stripe);

  /// Test/chaos hook: flips one byte of the stored copy of unit `unit`
  /// in `stripe` without touching the CRC table. Returns false if the
  /// device is failed or the slot invalid.
  bool corrupt_unit(std::size_t stripe, std::size_t unit);

 private:
  friend class Scrubber;

  /// Unit u of stripe s lives on device (u + s) % n (rotated layout).
  StripeEngine::Stripe& stripe_at(std::size_t s) {
    return *engine_.find_stripe("", s);
  }

  std::size_t stripes_;
  mutable RaidStats stats_;
};

}  // namespace tvmec::storage
