#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "ec/code_params.h"
#include "storage/object_layout.h"

/// An in-memory erasure-coded object store: the "real storage system"
/// integration target the paper's future work calls for ("integrate our
/// prototype into real storage systems"). Objects survive up to r node
/// failures per stripe.
///
/// Object striping and rotated placement are the shared ObjectLayout,
/// and the unit pipeline under it (fault injection, CRC-32C per unit,
/// retries with backoff, verified reconstruction, scrub) is the shared
/// StripeEngine. This class adds the local degraded read and the
/// whole-store repair and scrub passes.
namespace tvmec::storage {

/// Health/state counters exposed for tests and examples.
struct StoreStats : ObjectStats {
  std::size_t units_repaired = 0;     ///< units rebuilt by repair()/scrub
  std::size_t failed_nodes = 0;
  std::size_t corruptions_detected = 0;  ///< checksum mismatches caught
};

class StripeStore final : public ObjectLayout {
 public:
  /// num_nodes must be >= k + r so each stripe's units land on distinct
  /// nodes (throws std::invalid_argument otherwise). unit_size must be a
  /// positive multiple of 8*w.
  StripeStore(const ec::CodeParams& params, std::size_t unit_size,
              std::size_t num_nodes)
      : ObjectLayout(params, unit_size, num_nodes) {}

  const StoreStats& stats() const noexcept;

  /// Brings a failed node back empty (a replacement disk). Also clears
  /// any crash the attached fault injector recorded for the node.
  /// Out-of-range nodes throw std::invalid_argument here and below.
  void revive_node(std::size_t node) { engine_.revive_node(node); }
  bool node_failed(std::size_t node) const {
    return engine_.node_failed(node);
  }

  /// Rebuilds every unit lost to failed-then-revived nodes (or found
  /// corrupt) onto live nodes. Returns the number of units rebuilt.
  /// Throws std::runtime_error if some stripe is unrecoverable.
  std::size_t repair();

  /// Full integrity pass over every stripe (CRC-32C per unit + parity
  /// consistency), rebuilding any unit that fails either check from the
  /// stripe's survivors. Returns the number of corrupt units found (0 on
  /// a healthy store). Unrecoverable stripes are skipped, not thrown.
  std::size_t scrub();

  /// Verifies and repairs one stripe of one object (see
  /// StripeEngine::scrub_stripe). Throws std::invalid_argument on an
  /// unknown object or stripe index.
  StripeScrubResult scrub_stripe(const std::string& name, std::size_t s);

 private:
  /// The degraded read: every unit through the engine, the unreadable
  /// ones rebuilt from the survivors.
  bool read_stripe(StripeEngine::Stripe& st,
                   std::span<std::uint8_t> stripe) override {
    return !engine_.read_stripe(st, stripe, "StripeStore::get").empty();
  }

  mutable StoreStats stats_;
};

}  // namespace tvmec::storage
