#include "storage/object_layout.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace tvmec::storage {

ObjectLayout::ObjectLayout(const ec::CodeParams& params, std::size_t unit_size,
                           std::size_t num_nodes,
                           StripeEngine::Transport* transport)
    : StripeLayout(params, unit_size, num_nodes, transport),
      stripe_(params.n() * unit_size) {
  if (num_nodes < params.n())
    throw std::invalid_argument(
        "ObjectLayout: need at least k + r nodes for distinct placement");
}

ObjectLayout::PutResult ObjectLayout::put(const std::string& name,
                                          std::span<const std::uint8_t> bytes) {
  remove(name);
  const std::size_t n = params().n();
  const std::size_t unit = unit_size();
  const std::size_t stripe_data = params().k * unit;
  const std::size_t num_stripes = stripe_count(bytes.size());

  // Parity always lands in the staging stripe's parity units; a full
  // stripe's data units are read in place from the caller's bytes.
  std::vector<const std::uint8_t*> data(params().k);
  std::vector<std::uint8_t*> parity(params().r);
  for (std::size_t i = 0; i < parity.size(); ++i)
    parity[i] = stripe_.data() + (params().k + i) * unit;

  PutResult res;
  for (std::size_t s = 0; s < num_stripes; ++s) {
    std::vector<std::size_t> nodes(n);
    for (std::size_t u = 0; u < n; ++u)
      nodes[u] = (next_rotation_ + u) % num_nodes();
    next_rotation_ = (next_rotation_ + 1) % num_nodes();

    const std::size_t off = s * stripe_data;
    const std::size_t len = std::min(stripe_data, bytes.size() - off);
    const std::uint8_t* src = bytes.data() + off;
    if (len == stripe_data) {
      for (std::size_t u = 0; u < data.size(); ++u) data[u] = src + u * unit;
      engine_.codec().encode_scattered(data, parity, unit);
    } else {
      // The tail stripe: zero-padded in staging, encoded contiguously.
      std::memcpy(stripe_.data(), src, len);
      std::memset(stripe_.data() + len, 0, stripe_data - len);
      engine_.encode(stripe_.data());
      src = stripe_.data();
    }

    StripeEngine::Stripe& st = engine_.add_stripe(name, s, std::move(nodes));
    bool stored = true;
    for (std::size_t u = 0; u < n; ++u) {
      const std::uint8_t* unit_src =
          u < params().k ? src + u * unit : stripe_.data() + u * unit;
      stored &= engine_.store_unit(st, u, unit_src, &res.latency_us);
    }
    if (!stored) res.failed_stripes.push_back(s);
  }
  objects_[name] = bytes.size();
  object_stats_.objects = objects_.size();
  object_stats_.stripes_written += num_stripes;
  return res;
}

std::optional<std::vector<std::uint8_t>> ObjectLayout::get(
    const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  const std::size_t size = it->second;
  const std::size_t stripe_data = params().k * unit_size();

  std::vector<std::uint8_t> out;
  out.reserve(size);
  for (std::size_t s = 0; s < stripe_count(size); ++s) {
    if (read_stripe(*engine_.find_stripe(name, s), stripe_.span()))
      ++object_stats_.degraded_reads;
    const std::size_t take = std::min(stripe_data, size - out.size());
    out.insert(out.end(), stripe_.data(), stripe_.data() + take);
  }
  return out;
}

void ObjectLayout::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return;
  for (std::size_t s = 0; s < stripe_count(it->second); ++s)
    engine_.remove_stripe(name, s);
  objects_.erase(it);
  object_stats_.objects = objects_.size();
}

std::size_t ObjectLayout::object_stripe_count(const std::string& name) const {
  const auto it = objects_.find(name);
  return it == objects_.end() ? 0 : stripe_count(it->second);
}

std::vector<std::string> ObjectLayout::object_names() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, size] : objects_) names.push_back(name);
  return names;
}

const std::vector<std::size_t>& ObjectLayout::placement(const std::string& name,
                                                        std::size_t s) const {
  const auto it = engine_.stripes().find({name, s});
  if (it == engine_.stripes().end())
    throw std::invalid_argument("placement: unknown object/stripe");
  return it->second.nodes;
}

bool ObjectLayout::corrupt_unit(const std::string& name, std::size_t stripe,
                                std::size_t unit) {
  StripeEngine::Stripe* st = engine_.find_stripe(name, stripe);
  return st != nullptr && unit < params().n() &&
         engine_.corrupt_unit(*st, unit);
}

}  // namespace tvmec::storage
