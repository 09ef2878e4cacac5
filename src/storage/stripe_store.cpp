#include "storage/stripe_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/buffer.h"

namespace tvmec::storage {

StripeStore::StripeStore(const ec::CodeParams& params, std::size_t unit_size,
                         std::size_t num_nodes)
    : StripeLayout(params, unit_size, num_nodes) {
  if (num_nodes < params.n())
    throw std::invalid_argument("StripeStore: need at least k+r nodes");
}

const StoreStats& StripeStore::stats() const noexcept {
  stats_.corruptions_detected = engine_.stats().corruptions_detected;
  stats_.units_repaired = engine_.stats().units_repaired;
  stats_.failed_nodes = engine_.stats().failed_nodes;
  return stats_;
}

void StripeStore::put(const std::string& name,
                      std::span<const std::uint8_t> bytes) {
  remove(name);
  const std::size_t n = params().n();
  const std::size_t unit = unit_size();
  const std::size_t stripe_data = params().k * unit;
  const std::size_t num_stripes = engine_.stripe_count(bytes.size());

  tensor::AlignedBuffer<std::uint8_t> stripe(n * unit);
  for (std::size_t s = 0; s < num_stripes; ++s) {
    const std::size_t off = s * stripe_data;
    const std::size_t len = std::min(stripe_data, bytes.size() - off);
    std::memcpy(stripe.data(), bytes.data() + off, len);
    std::memset(stripe.data() + len, 0, stripe_data - len);
    engine_.encode(stripe.data());

    // Rotate placement so load (and failure impact) spreads over nodes.
    std::vector<std::size_t> nodes(n);
    for (std::size_t u = 0; u < n; ++u)
      nodes[u] = (next_rotation_ + u) % num_nodes();
    next_rotation_ = (next_rotation_ + 1) % num_nodes();
    StripeEngine::Stripe& st = engine_.add_stripe(name, s, std::move(nodes));
    // Units destined to failed/crashed nodes are simply lost, as they
    // would be on real hardware; repair() can rebuild them later.
    for (std::size_t u = 0; u < n; ++u)
      engine_.store_unit(st, u, stripe.data() + u * unit);
  }

  objects_[name] = bytes.size();
  ++stats_.objects;
  stats_.stripes_written += num_stripes;
}

bool StripeStore::exists(const std::string& name) const {
  return objects_.contains(name);
}

void StripeStore::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return;
  for (std::size_t s = 0; s < engine_.stripe_count(it->second); ++s)
    engine_.remove_stripe(name, s);
  objects_.erase(it);
  --stats_.objects;
}

std::optional<std::vector<std::uint8_t>> StripeStore::get(
    const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  const std::size_t size = it->second;
  const std::size_t stripe_data = params().k * unit_size();

  std::vector<std::uint8_t> out;
  out.reserve(size);
  tensor::AlignedBuffer<std::uint8_t> stripe(params().n() * unit_size());
  bool degraded = false;
  for (std::size_t s = 0; s < engine_.stripe_count(size); ++s) {
    StripeEngine::Stripe& st = *engine_.find_stripe(name, s);
    degraded |= !engine_.read_stripe(st, stripe.span(), "StripeStore::get")
                     .empty();
    const std::size_t want = std::min(stripe_data, size - out.size());
    out.insert(out.end(), stripe.data(), stripe.data() + want);
  }
  if (degraded) ++stats_.degraded_reads;
  return out;
}

void StripeStore::fail_node(std::size_t node) {
  if (node >= num_nodes())
    throw std::invalid_argument("fail_node: node out of range");
  engine_.fail_node(node);
}

void StripeStore::revive_node(std::size_t node) {
  if (node >= num_nodes())
    throw std::invalid_argument("revive_node: node out of range");
  engine_.revive_node(node);
}

bool StripeStore::node_failed(std::size_t node) const {
  if (node >= num_nodes())
    throw std::invalid_argument("node_failed: node out of range");
  return engine_.node_failed(node);
}

StripeScrubResult StripeStore::scrub_stripe(const std::string& name,
                                            std::size_t s) {
  StripeEngine::Stripe* st = engine_.find_stripe(name, s);
  if (st == nullptr)
    throw std::invalid_argument("scrub_stripe: no stripe " +
                                std::to_string(s) + " of object " + name);
  return engine_.scrub_stripe(*st);
}

std::size_t StripeStore::repair() {
  std::size_t repaired = 0;
  for (const auto& [key, st] : engine_.stripes()) {
    const StripeScrubResult res = scrub_stripe(key.first, key.second);
    if (res.unrecoverable)
      throw std::runtime_error("StripeStore::repair: stripe " +
                               std::to_string(key.second) + " of " +
                               key.first + " is unrecoverable");
    repaired += res.units_repaired;
  }
  return repaired;
}

std::size_t StripeStore::scrub() {
  std::size_t corrupt = 0;
  for (const auto& [key, st] : engine_.stripes())
    corrupt += scrub_stripe(key.first, key.second).errors();
  return corrupt;
}

std::optional<std::string> StripeStore::object_at_or_after(
    const std::string& name) const {
  const auto it = objects_.lower_bound(name);
  if (it == objects_.end()) return std::nullopt;
  return it->first;
}

std::optional<std::string> StripeStore::object_after(
    const std::string& name) const {
  const auto it = objects_.upper_bound(name);
  if (it == objects_.end()) return std::nullopt;
  return it->first;
}

std::size_t StripeStore::object_stripe_count(const std::string& name) const {
  const auto it = objects_.find(name);
  return it == objects_.end() ? 0 : engine_.stripe_count(it->second);
}

std::size_t StripeStore::total_stripes() const noexcept {
  return engine_.stripes().size();
}

bool StripeStore::corrupt_unit(const std::string& name, std::size_t stripe,
                               std::size_t unit) {
  StripeEngine::Stripe* st = engine_.find_stripe(name, stripe);
  return st != nullptr && unit < params().n() &&
         engine_.corrupt_unit(*st, unit);
}

}  // namespace tvmec::storage
