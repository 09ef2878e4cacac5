#include "storage/checkpoint.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/buffer.h"

namespace tvmec::storage {

CheckpointManager::CheckpointManager(const ec::CodeParams& params,
                                     std::size_t shard_capacity)
    : StripeLayout(params, shard_capacity, params.n()) {}

const CheckpointStats& CheckpointManager::stats() const noexcept {
  stats_.corruptions_detected = engine_.stats().corruptions_detected;
  return stats_;
}

std::uint64_t CheckpointManager::checkpoint(
    const std::vector<std::span<const std::uint8_t>>& shards) {
  const std::size_t k = params().k;
  const std::size_t n = params().n();
  const std::size_t cap = shard_capacity();
  if (shards.size() != k)
    throw std::invalid_argument("checkpoint: expected one shard per rank");
  std::vector<std::size_t> sizes(k);
  tensor::AlignedBuffer<std::uint8_t> stripe(n * cap);  // zero padding
  for (std::size_t i = 0; i < k; ++i) {
    if (shards[i].size() > cap)
      throw std::invalid_argument("checkpoint: shard exceeds capacity");
    sizes[i] = shards[i].size();
    if (!shards[i].empty())  // empty spans may carry a null data()
      std::memcpy(stripe.data() + i * cap, shards[i].data(), shards[i].size());
  }
  engine_.encode(stripe.data());

  // A fresh checkpoint is a fresh failure domain: the previous version
  // goes, and every rank whose crash has been repaired takes units again.
  engine_.remove_stripe("ckpt", latest_id_);
  const FaultInjector* injector = fault_injector();
  std::vector<std::size_t> ranks(n);
  for (std::size_t u = 0; u < n; ++u) {
    ranks[u] = u;
    if (!(injector && injector->crashed(u))) engine_.revive_node(u);
  }
  // Persist each unit into "rank memory"; a rank that dies mid-checkpoint
  // loses its unit, and recovery rebuilds it.
  StripeEngine::Stripe& st = engine_.add_stripe("ckpt", ++latest_id_, ranks);
  for (std::size_t u = 0; u < n; ++u)
    engine_.store_unit(st, u, stripe.data() + u * cap);
  shard_sizes_ = std::move(sizes);
  ++stats_.checkpoints_taken;
  return latest_id_;
}

std::optional<std::uint64_t> CheckpointManager::latest_version()
    const noexcept {
  if (latest_id_ == 0) return std::nullopt;
  return latest_id_;
}

void CheckpointManager::lose_rank(std::size_t rank) {
  StripeEngine::Stripe* st = latest();
  if (st == nullptr) throw std::logic_error("lose_rank: no checkpoint taken");
  if (rank >= params().k)
    throw std::invalid_argument("lose_rank: rank out of range");
  engine_.drop_unit(*st, rank);  // the rank's memory is gone
}

bool CheckpointManager::rank_lost(std::size_t rank) const {
  if (latest_id_ == 0) return false;
  if (rank >= params().k)
    throw std::invalid_argument("rank_lost: rank out of range");
  return !engine_.holds_unit(engine_.stripes().at({"ckpt", latest_id_}), rank);
}

std::size_t CheckpointManager::ranks_lost() const noexcept {
  std::size_t lost = 0;
  for (std::size_t rank = 0; latest_id_ != 0 && rank < params().k; ++rank)
    lost += rank_lost(rank) ? 1 : 0;
  return lost;
}

std::vector<std::uint8_t> CheckpointManager::recover_shard(std::size_t rank) {
  StripeEngine::Stripe* st = latest();
  if (st == nullptr)
    throw std::logic_error("recover_shard: no checkpoint taken");
  if (rank >= params().k)
    throw std::invalid_argument("recover_shard: rank out of range");

  // Every unit is read through faults, retries and its CRC; lost or
  // corrupt ones are rebuilt (CRC-verified) and healed in place.
  const std::size_t cap = shard_capacity();
  tensor::AlignedBuffer<std::uint8_t> stripe(params().n() * cap);
  const std::vector<std::size_t> rebuilt = engine_.read_stripe(
      *st, stripe.span(), "CheckpointManager::recover_shard");
  for (const std::size_t u : rebuilt)
    engine_.store_unit(*st, u, stripe.data() + u * cap);
  stats_.units_repaired += rebuilt.size();
  ++stats_.shards_recovered;
  const std::uint8_t* shard = stripe.data() + rank * cap;
  return std::vector<std::uint8_t>(shard, shard + shard_sizes_[rank]);
}

}  // namespace tvmec::storage
