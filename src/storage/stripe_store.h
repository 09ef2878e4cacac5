#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/stripe_engine.h"

/// An in-memory erasure-coded object store: the "real storage system"
/// integration target the paper's future work calls for ("integrate our
/// prototype into real storage systems"). Objects are striped over k
/// data units + r parity units, placed across simulated storage nodes
/// with rotation, and survive up to r node failures per stripe.
///
/// All coding runs through the GEMM-backed Codec, exercising exactly the
/// contiguous-layout integration path §5 prescribes.
///
/// The unit pipeline (fault injection, CRC-32C per unit, retries with
/// backoff, verified reconstruction, scrub) is the shared StripeEngine;
/// this class is the object layout over it: striping, padding, and
/// rotated placement.
namespace tvmec::storage {

/// Health/state counters exposed for tests and examples.
struct StoreStats {
  std::size_t objects = 0;
  std::size_t stripes_written = 0;
  std::size_t degraded_reads = 0;     ///< reads that needed reconstruction
  std::size_t units_repaired = 0;     ///< units rebuilt by repair()/scrub
  std::size_t failed_nodes = 0;
  std::size_t corruptions_detected = 0;  ///< checksum mismatches caught
};

class StripeStore : public StripeLayout {
 public:
  /// num_nodes must be >= k + r so each stripe's units land on distinct
  /// nodes (throws std::invalid_argument otherwise). unit_size must be a
  /// positive multiple of 8*w.
  StripeStore(const ec::CodeParams& params, std::size_t unit_size,
              std::size_t num_nodes);

  std::size_t num_nodes() const noexcept { return engine_.num_nodes(); }
  std::size_t unit_size() const noexcept { return engine_.unit_size(); }
  const ec::CodeParams& params() const noexcept { return engine_.params(); }
  const StoreStats& stats() const noexcept;

  using StripeLayout::set_plan_cache;

  /// Stores (or overwrites) an object: splits it into stripes of
  /// k*unit_size bytes (last stripe zero-padded), encodes, places units.
  /// Empty objects are allowed.
  void put(const std::string& name, std::span<const std::uint8_t> bytes);

  /// Retrieves an object, reconstructing through parities when nodes are
  /// down (degraded read). Returns nullopt if the object does not exist;
  /// throws std::runtime_error if too many of a stripe's nodes are down.
  std::optional<std::vector<std::uint8_t>> get(const std::string& name);

  bool exists(const std::string& name) const;
  void remove(const std::string& name);

  /// Marks a node failed and drops everything it stored.
  void fail_node(std::size_t node);
  /// Brings a failed node back empty (a replacement disk). Also clears
  /// any crash the attached fault injector recorded for the node.
  void revive_node(std::size_t node);
  bool node_failed(std::size_t node) const;

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

  /// Cursor helpers for resumable scrub passes (objects iterate in name
  /// order).
  std::optional<std::string> object_at_or_after(const std::string& name) const;
  std::optional<std::string> object_after(const std::string& name) const;
  /// Stripe count of an object (0 when absent or empty).
  std::size_t object_stripe_count(const std::string& name) const;
  /// Total stripes across all objects (scrub-progress denominator).
  std::size_t total_stripes() const noexcept;

  /// Test/chaos hook: silently flips one byte of a stored unit without
  /// updating its checksum (a simulated latent disk error). Returns
  /// false if that unit is not currently stored on a live node.
  bool corrupt_unit(const std::string& name, std::size_t stripe,
                    std::size_t unit);

 private:
  friend class Scrubber;

  std::map<std::string, std::size_t> objects_;  ///< name -> size in bytes
  mutable StoreStats stats_;
  std::size_t next_rotation_ = 0;
};

}  // namespace tvmec::storage
