#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/crc32c.h"
#include "storage/fault_injector.h"
#include "storage/retry.h"
#include "storage/scrub_types.h"

/// An in-memory erasure-coded object store: the "real storage system"
/// integration target the paper's future work calls for ("integrate our
/// prototype into real storage systems"). Objects are striped over k
/// data units + r parity units, placed across simulated storage nodes
/// with rotation, and survive up to r node failures per stripe.
///
/// All coding runs through the GEMM-backed Codec, exercising exactly the
/// contiguous-layout integration path §5 prescribes.
///
/// Fault model: every simulated unit read/write consults an attached
/// FaultInjector (silent bit flips, torn writes, transient read errors,
/// crashes, latency). Unit payloads carry CRC-32C checksums both on the
/// node and in object metadata, so corruption is detected on read,
/// transient errors are retried with exponential backoff (RetryPolicy),
/// and reconstruction is itself checksum-verified before any bytes are
/// returned or persisted.
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

class StripeStore {
 public:
  /// num_nodes must be >= k + r so each stripe's units land on distinct
  /// nodes (throws std::invalid_argument otherwise). unit_size must be a
  /// positive multiple of 8*w.
  StripeStore(const ec::CodeParams& params, std::size_t unit_size,
              std::size_t num_nodes);

  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t unit_size() const noexcept { return unit_size_; }
  const ec::CodeParams& params() const noexcept { return params_; }
  const StoreStats& stats() const noexcept { return stats_; }

  /// Attaches (or detaches, with nullptr) a fault injector consulted on
  /// every simulated unit read and write. Non-owning; the injector must
  /// outlive the store.
  void attach_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }

  /// Retry policy applied to transiently failing unit reads before the
  /// store falls back to degraded reconstruction.
  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_ = policy;
  }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }

  /// Shares a decode-plan cache with other plan consumers (the serve
  /// workers, other stores, direct Codec users): degraded reads and the
  /// scrubber's repair path skip matrix inversion for loss patterns any
  /// of them has already planned. Null detaches.
  void set_plan_cache(std::shared_ptr<core::PlanCache> cache) {
    codec_.set_plan_cache(std::move(cache));
  }

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

  /// Verifies and repairs one stripe of one object: reads every unit
  /// (through faults and retries), CRC-checks, rebuilds missing/corrupt
  /// units via the GEMM decode path, cross-checks parity consistency,
  /// and rewrites bad units onto live nodes. The Scrubber drives this
  /// incrementally. Throws std::invalid_argument on an unknown object
  /// or stripe index.
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
  struct StripeLocation {
    /// Node holding each of the stripe's n units.
    std::vector<std::size_t> nodes;
    /// Metadata-level checksum of each unit's intended contents, kept
    /// with the object (not the node) so even a unit that is *gone* can
    /// have its reconstruction verified.
    std::vector<std::uint32_t> unit_crcs;
  };
  struct ObjectMeta {
    std::size_t size = 0;
    std::vector<StripeLocation> stripes;
  };
  /// A stored unit: payload plus the checksum that guards it. Parities
  /// protect against loss; the CRC catches silent corruption.
  struct StoredUnit {
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc = 0;
  };
  struct Node {
    bool failed = false;
    /// Unit payloads keyed by (object, stripe index, unit index).
    std::map<std::tuple<std::string, std::size_t, std::size_t>, StoredUnit>
        units;
  };

  /// Per-unit read outcome after faults, retries, and CRC verification.
  enum class UnitRead {
    Ok,       ///< bytes in dest, checksum verified
    Missing,  ///< node down/crashed, unit absent, or retries exhausted
    Corrupt,  ///< present but checksum-bad even after re-reads
  };

  /// Reads unit u of stripe s into dest (unit_size_ bytes) through the
  /// fault injector with retries. Counts corruption in stats_.
  UnitRead read_unit(const std::string& name, const StripeLocation& loc,
                     std::size_t s, std::size_t u, std::uint8_t* dest);

  /// Persists `src` (unit_size_ bytes) as unit u of stripe s on its
  /// node, through the fault injector (which may corrupt the stored copy
  /// or crash the node). The recorded checksum is `loc.unit_crcs[u]`,
  /// which the caller has set to the CRC of the *intended* bytes, so
  /// injected write faults stay detectable.
  /// Returns false when the node is down and nothing was stored.
  bool store_unit(const std::string& name, const StripeLocation& loc,
                  std::size_t s, std::size_t u, const std::uint8_t* src);

  /// fail_node without range checks, for crash handling mid-operation.
  void mark_node_failed(std::size_t node);

  /// Reads stripe `s` of `meta`, reconstructing erased units (verified
  /// against metadata CRCs); returns the full n-unit stripe buffer.
  std::vector<std::uint8_t> read_stripe(const std::string& name,
                                        const ObjectMeta& meta,
                                        std::size_t s, bool* degraded);

  ec::CodeParams params_;
  std::size_t unit_size_;
  core::Codec codec_;
  std::vector<Node> nodes_;
  std::map<std::string, ObjectMeta> objects_;
  StoreStats stats_;
  std::size_t next_rotation_ = 0;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  RetryStats retry_stats_;
};

}  // namespace tvmec::storage
