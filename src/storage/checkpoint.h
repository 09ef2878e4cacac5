#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/stripe_engine.h"

/// In-memory erasure-coded checkpointing for accelerator-native training —
/// the motivating application of the paper's §3: "High-performance
/// checkpointing libraries often leverage in-memory erasure coding across
/// multiple nodes to reduce the time-overhead of writing checkpoints to
/// stable storage."
///
/// Each of k training ranks contributes its state shard; the manager
/// encodes r parity shards so training survives up to r simultaneous rank
/// failures without touching stable storage. Checkpoints are versioned;
/// recovery reconstructs exactly the bytes a lost rank contributed.
///
/// Each checkpoint version is one stripe of the shared StripeEngine with
/// rank `u` as node `u`, so shard units pass through the same fault
/// injection, CRC-32C, retries and verified rebuild as every other
/// storage layout.
namespace tvmec::storage {

struct CheckpointStats {
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t shards_recovered = 0;      ///< recover_shard calls served
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::uint64_t units_repaired = 0;        ///< shard units rebuilt in place
};

class CheckpointManager : public StripeLayout {
 public:
  /// `params.k` = number of training ranks. `shard_capacity` is the
  /// fixed per-rank shard buffer size (a multiple of 8*w; shorter shards
  /// are zero-padded). Throws std::invalid_argument on bad sizes.
  CheckpointManager(const ec::CodeParams& params, std::size_t shard_capacity);

  const ec::CodeParams& params() const noexcept { return engine_.params(); }
  std::size_t shard_capacity() const noexcept { return engine_.unit_size(); }
  const CheckpointStats& stats() const noexcept;

  /// Takes a checkpoint from all k ranks (shards[i] is rank i's state,
  /// size <= shard_capacity). Returns the new checkpoint version. Any
  /// rank losses recorded against the previous checkpoint are cleared —
  /// a fresh checkpoint is a fresh failure domain. Throws
  /// std::invalid_argument on a wrong shard count or oversize.
  std::uint64_t checkpoint(
      const std::vector<std::span<const std::uint8_t>>& shards);

  std::optional<std::uint64_t> latest_version() const noexcept;

  /// Simulates losing a rank's in-memory state for the latest checkpoint.
  /// Losing more than r ranks is permitted (failures don't consult
  /// quotas); the unrecoverable condition is reported by recover_shard.
  void lose_rank(std::size_t rank);
  bool rank_lost(std::size_t rank) const;
  std::size_t ranks_lost() const noexcept;

  /// Reconstructs the exact bytes rank `rank` checkpointed last, whether
  /// or not its shard is lost (lost or corrupt shards are rebuilt via
  /// parity, and the rebuild is CRC-verified, healing the stored stripe
  /// in place). Throws std::runtime_error with a clear message when more
  /// than r units are lost/corrupt, or std::logic_error when no
  /// checkpoint was ever taken.
  std::vector<std::uint8_t> recover_shard(std::size_t rank);

 private:
  /// The latest checkpoint's stripe (unit u lives on rank u), or null
  /// before the first checkpoint.
  StripeEngine::Stripe* latest() {
    return engine_.find_stripe("ckpt", latest_id_);
  }

  std::uint64_t latest_id_ = 0;           ///< 0 until the first checkpoint
  std::vector<std::size_t> shard_sizes_;  ///< latest per-rank shard sizes
  mutable CheckpointStats stats_;
};

}  // namespace tvmec::storage
