#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ec/code_params.h"
#include "storage/stripe_engine.h"
#include "tensor/buffer.h"

/// The object striping StripeStore and cluster::Cluster share: named
/// objects split into stripes of k*unit_size bytes (the last
/// zero-padded), encoded through the GEMM-backed Codec, and placed with
/// rotation. A full stripe encodes zero-copy (Codec::encode_scattered
/// reads its data units in place in the caller's bytes, the paper's §5);
/// only the tail stripe and the parity units go through staging. Each
/// stripe's n units go on consecutive nodes from a start that advances by
/// one per stripe, so with n nodes this is the rotated (left-symmetric)
/// RAID layout, and one fixed-size object written in place through
/// write() is a RAID array. A subclass supplies only the stripe read
/// (read_stripe).
namespace tvmec::storage {

/// ObjectLayout's counters; StoreStats and ClusterStats extend them.
struct ObjectStats {
  std::size_t objects = 0;
  std::size_t stripes_written = 0;
  std::size_t degraded_reads = 0;  ///< stripes that needed reconstruction
};

class ObjectLayout : public StripeLayout {
 public:
  /// The summed modeled hop latency of a put's unit stores, and the
  /// stripes with a unit that was not stored.
  struct PutResult {
    std::uint64_t latency_us = 0;
    std::vector<std::size_t> failed_stripes;
  };

  const ec::CodeParams& params() const noexcept { return engine_.params(); }
  std::size_t unit_size() const noexcept { return engine_.unit_size(); }
  std::size_t num_nodes() const noexcept { return engine_.num_nodes(); }
  using StripeLayout::set_plan_cache;

  /// Marks a node failed and drops everything it stored (a dead
  /// machine). Throws std::invalid_argument for a node out of range.
  void fail_node(std::size_t node) { engine_.fail_node(node); }

  /// Stores (or overwrites) an object; empty objects are allowed. Units
  /// destined to failed or crashed nodes are lost, as on real hardware,
  /// and repair rebuilds them later.
  PutResult put(const std::string& name, std::span<const std::uint8_t> bytes);

  /// Overwrites bytes [offset, offset + bytes.size()) of an existing
  /// object in place; the object never grows. Each stripe the range
  /// touches is rewritten one of two ways:
  ///  - the RAID small write, when the range lies in one data unit and
  ///    that unit and the r parity units are held and read clean: the new
  ///    bytes are overlaid on the old unit, Codec::patch_parity folds the
  ///    delta into the parity, and 1 + r units are stored;
  ///  - otherwise the stripe is read through read_stripe (degraded when it
  ///    must be, counted in degraded_reads), overlaid, re-encoded, and all
  ///    n units are stored.
  /// Throws std::invalid_argument for an unknown name or a range past the
  /// object's size, and std::runtime_error (from read_stripe) when a
  /// stripe has more than r units unreadable; stripes before it are
  /// already rewritten.
  PutResult write(const std::string& name, std::size_t offset,
                  std::span<const std::uint8_t> bytes);

  /// Retrieves an object, stripe by stripe through read_stripe. Returns
  /// nullopt for unknown names; throws std::runtime_error when a stripe
  /// has more than r units unreadable.
  std::optional<std::vector<std::uint8_t>> get(const std::string& name);

  bool exists(const std::string& name) const {
    return objects_.contains(name);
  }
  /// Drops an object and its stripes; a no-op for unknown names.
  void remove(const std::string& name);

  /// Stripe count of an object (0 when absent or empty).
  std::size_t object_stripe_count(const std::string& name) const;
  /// Stored object names, in name order.
  std::vector<std::string> object_names() const;
  /// Nodes holding each unit of object `name`'s stripe `s` (n entries).
  /// Throws std::invalid_argument on unknown object/stripe.
  const std::vector<std::size_t>& placement(const std::string& name,
                                            std::size_t s) const;

  /// Test/chaos hook: flips one bit of a stored unit, its checksum left
  /// stale (a simulated latent disk error). Returns false when that unit
  /// is not stored on a live node.
  bool corrupt_unit(const std::string& name, std::size_t stripe,
                    std::size_t unit);

 protected:
  /// num_nodes must be >= k + r so each stripe's units land on distinct
  /// nodes (throws std::invalid_argument otherwise).
  ObjectLayout(const ec::CodeParams& params, std::size_t unit_size,
               std::size_t num_nodes,
               StripeEngine::Transport* transport = nullptr);

  /// Reads stripe `st` into `stripe` (n units), rebuilding the units it
  /// could not read. Returns true when the read was degraded; throws
  /// std::runtime_error past r erasures.
  virtual bool read_stripe(StripeEngine::Stripe& st,
                           std::span<std::uint8_t> stripe) = 0;

  ObjectStats object_stats_;

 private:
  /// Stripes an object of `bytes` bytes spans (k data units each).
  std::size_t stripe_count(std::size_t bytes) const noexcept {
    return (bytes + params().k * unit_size() - 1) / (params().k * unit_size());
  }
  /// write's small-write path for bytes `src` at byte `at` of data unit
  /// u. False, with nothing stored, when a needed unit is not held or
  /// does not read clean.
  bool patch_unit(StripeEngine::Stripe& st, std::size_t u, std::size_t at,
                  std::span<const std::uint8_t> src, PutResult& res);
  /// Encodes the `len` data bytes at `src` into stripe_'s parity units,
  /// in place when they fill k units, else zero-padded in stripe_.
  /// Returns where the k data units are.
  const std::uint8_t* encode_stripe(const std::uint8_t* src, std::size_t len);
  /// Stores data units [first, last) from `data` (unit u at data +
  /// u*unit_size) and the r parity units from stripe_, recording the
  /// stripe in res.failed_stripes when a unit was not stored.
  void store_units(StripeEngine::Stripe& st, const std::uint8_t* data,
                   std::size_t first, std::size_t last, PutResult& res);
  std::map<std::string, std::size_t> objects_;  ///< name -> size in bytes
  std::size_t next_rotation_ = 0;               ///< first node of next stripe
  /// One stripe of staging for put (parity units, and the whole tail
  /// stripe), get and write (none reenters another), allocated once: a
  /// buffer per call fragments the heap between units.
  tensor::AlignedBuffer<std::uint8_t> stripe_;
};

}  // namespace tvmec::storage
