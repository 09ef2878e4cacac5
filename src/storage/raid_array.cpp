#include "storage/raid_array.h"

#include <cstring>
#include <stdexcept>

#include "tensor/buffer.h"

namespace tvmec::storage {

RaidArray::RaidArray(const ec::CodeParams& params, std::size_t block_size,
                     std::size_t stripes)
    : StripeLayout(params, block_size, params.n()), stripes_(stripes) {
  if (stripes == 0) throw std::invalid_argument("RaidArray: zero stripes");
  // Zero blocks of zero data are a valid, consistent stripe.
  const std::vector<std::uint8_t> zero(block_size, 0);
  for (std::size_t s = 0; s < stripes; ++s) {
    std::vector<std::size_t> devices(params.n());
    for (std::size_t u = 0; u < params.n(); ++u)
      devices[u] = (u + s) % params.n();
    StripeEngine::Stripe& st = engine_.add_stripe("", s, std::move(devices));
    for (std::size_t u = 0; u < params.n(); ++u)
      engine_.store_unit(st, u, zero.data());
  }
}

const RaidStats& RaidArray::stats() const noexcept {
  stats_.corruptions_detected = engine_.stats().corruptions_detected;
  stats_.units_repaired = engine_.stats().units_repaired;
  return stats_;
}

void RaidArray::write_block(std::size_t lba,
                            std::span<const std::uint8_t> data) {
  if (lba >= capacity_blocks())
    throw std::invalid_argument("write_block: lba out of range");
  const std::size_t block = block_size();
  if (data.size() != block)
    throw std::invalid_argument("write_block: data must be one block");
  ++stats_.block_writes;

  const std::size_t k = engine_.params().k;
  const std::size_t r = engine_.params().r;
  const std::size_t unit = lba % k;
  StripeEngine::Stripe& st = stripe_at(lba / k);

  // Fast path: the old data block and all r parity blocks read back
  // clean -> RAID small write via parity patching. Any missing or
  // corrupt operand falls back to the full-stripe path, which repairs
  // through the decode machinery instead of patching garbage forward.
  tensor::AlignedBuffer<std::uint8_t> parity(r * block);
  tensor::AlignedBuffer<std::uint8_t> old_block(block);
  bool fast = engine_.read_unit(st, unit, old_block.data()) == UnitRead::Ok;
  for (std::size_t p = 0; fast && p < r; ++p)
    fast = engine_.read_unit(st, k + p, parity.data() + p * block) ==
           UnitRead::Ok;

  if (fast) {
    ++stats_.small_write_patches;
    tensor::AlignedBuffer<std::uint8_t> new_block(block);
    std::memcpy(new_block.data(), data.data(), block);
    engine_.codec().patch_parity(unit, old_block.span(), new_block.span(),
                                 parity.span(), block);
    engine_.store_unit(st, unit, data.data());
    for (std::size_t p = 0; p < r; ++p)
      engine_.store_unit(st, k + p, parity.data() + p * block);
    return;
  }

  // Degraded path: reconstruct the stripe, replace the block, re-encode.
  ++stats_.full_stripe_writes;
  tensor::AlignedBuffer<std::uint8_t> full(num_devices() * block);
  engine_.read_stripe(st, full.span(), "RaidArray::write_block");
  std::memcpy(full.data() + unit * block, data.data(), block);
  engine_.encode(full.data());
  for (std::size_t u = 0; u < num_devices(); ++u)
    engine_.store_unit(st, u, full.data() + u * block);
}

std::vector<std::uint8_t> RaidArray::read_block(std::size_t lba) {
  if (lba >= capacity_blocks())
    throw std::invalid_argument("read_block: lba out of range");
  const std::size_t k = engine_.params().k;
  const std::size_t block = block_size();
  StripeEngine::Stripe& st = stripe_at(lba / k);
  std::vector<std::uint8_t> out(block);
  if (engine_.read_unit(st, lba % k, out.data()) == UnitRead::Ok) return out;
  ++stats_.degraded_reads;
  tensor::AlignedBuffer<std::uint8_t> full(num_devices() * block);
  engine_.read_stripe(st, full.span(), "RaidArray::read_block");
  std::memcpy(out.data(), full.data() + (lba % k) * block, block);
  return out;
}

std::size_t RaidArray::rebuild() {
  std::size_t rebuilt = 0;
  const std::size_t block = block_size();
  tensor::AlignedBuffer<std::uint8_t> full(num_devices() * block);
  // A unit is owed to its device when the device is online but blank.
  const auto blank = [&](const StripeEngine::Stripe& st, std::size_t u) {
    return !engine_.node_failed(st.nodes[u]) && !engine_.holds_unit(st, u);
  };
  for (std::size_t s = 0; s < stripes_; ++s) {
    StripeEngine::Stripe& st = stripe_at(s);
    bool missing = false;
    for (std::size_t u = 0; u < num_devices() && !missing; ++u)
      missing = blank(st, u);
    if (!missing) continue;
    engine_.read_stripe(st, full.span(), "RaidArray::rebuild");
    for (std::size_t u = 0; u < num_devices(); ++u)
      if (blank(st, u) && engine_.store_unit(st, u, full.data() + u * block))
        ++rebuilt;
  }
  stats_.blocks_rebuilt += rebuilt;
  return rebuilt;
}

std::size_t RaidArray::verify() {
  std::size_t bad = 0;
  const std::size_t block = block_size();
  const std::size_t data = engine_.params().k * block;
  tensor::AlignedBuffer<std::uint8_t> full(num_devices() * block);
  tensor::AlignedBuffer<std::uint8_t> expect(engine_.params().r * block);
  for (std::size_t s = 0; s < stripes_; ++s) {
    try {
      engine_.read_stripe(stripe_at(s), full.span(), "RaidArray::verify");
    } catch (const std::runtime_error&) {
      ++bad;
      continue;
    }
    engine_.codec().encode({full.data(), data}, expect.span(), block);
    if (std::memcmp(expect.data(), full.data() + data, expect.size()) != 0)
      ++bad;
  }
  return bad;
}

StripeScrubResult RaidArray::scrub_stripe(std::size_t stripe) {
  if (stripe >= stripes_)
    throw std::invalid_argument("scrub_stripe: stripe out of range");
  return engine_.scrub_stripe(stripe_at(stripe));
}

bool RaidArray::corrupt_unit(std::size_t stripe, std::size_t unit) {
  if (stripe >= stripes_ || unit >= num_devices()) return false;
  return engine_.corrupt_unit(stripe_at(stripe), unit);
}

}  // namespace tvmec::storage
