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
  const std::size_t stripe_data = params().k * unit_size();
  const std::size_t num_stripes = stripe_count(bytes.size());

  PutResult res;
  for (std::size_t s = 0; s < num_stripes; ++s) {
    std::vector<std::size_t> nodes(n);
    for (std::size_t u = 0; u < n; ++u)
      nodes[u] = (next_rotation_ + u) % num_nodes();
    next_rotation_ = (next_rotation_ + 1) % num_nodes();

    const std::size_t off = s * stripe_data;
    const std::size_t len = std::min(stripe_data, bytes.size() - off);
    const std::uint8_t* src = encode_stripe(bytes.data() + off, len);
    store_units(engine_.add_stripe(name, s, std::move(nodes)), src, 0,
                params().k, res);
  }
  objects_[name] = bytes.size();
  object_stats_.objects = objects_.size();
  object_stats_.stripes_written += num_stripes;
  return res;
}

ObjectLayout::PutResult ObjectLayout::write(
    const std::string& name, std::size_t offset,
    std::span<const std::uint8_t> bytes) {
  const auto it = objects_.find(name);
  if (it == objects_.end())
    throw std::invalid_argument("ObjectLayout::write: unknown object " + name);
  if (offset > it->second || bytes.size() > it->second - offset)
    throw std::invalid_argument("ObjectLayout::write: range past the end of " +
                                name);
  const std::size_t unit = unit_size();
  const std::size_t stripe_data = params().k * unit;

  PutResult res;
  for (std::size_t done = 0; done < bytes.size();) {
    const std::size_t s = (offset + done) / stripe_data;
    const std::size_t at = offset + done - s * stripe_data;
    const std::size_t len = std::min(stripe_data - at, bytes.size() - done);
    const auto src = bytes.subspan(done, len);
    done += len;
    StripeEngine::Stripe& st = *engine_.find_stripe(name, s);
    if (len == stripe_data) {  // every data unit is new: nothing to read
      store_units(st, encode_stripe(src.data(), len), 0, params().k, res);
      continue;
    }
    const std::size_t u = at / unit;
    if (u == (at + len - 1) / unit && patch_unit(st, u, at % unit, src, res))
      continue;
    if (read_stripe(st, stripe_.span())) ++object_stats_.degraded_reads;
    std::memcpy(stripe_.data() + at, src.data(), len);
    engine_.encode(stripe_.data());
    store_units(st, stripe_.data(), 0, params().k, res);
  }
  return res;
}

bool ObjectLayout::patch_unit(StripeEngine::Stripe& st, std::size_t u,
                              std::size_t at, std::span<const std::uint8_t> src,
                              PutResult& res) {
  const std::size_t k = params().k;
  const std::size_t n = params().n();
  const std::size_t unit = unit_size();
  // The old unit is kept in a spare data slot of the staging stripe. With
  // k == 1 there is none, and the patch would move all n units anyway.
  if (k == 1 || !engine_.holds_unit(st, u)) return false;
  for (std::size_t p = k; p < n; ++p)
    if (!engine_.holds_unit(st, p)) return false;
  std::uint8_t* const fresh = stripe_.data() + u * unit;
  std::uint8_t* const old = stripe_.data() + (u + 1) % k * unit;
  if (engine_.read_unit(st, u, fresh) != UnitRead::Ok) return false;
  for (std::size_t p = k; p < n; ++p)
    if (engine_.read_unit(st, p, stripe_.data() + p * unit) != UnitRead::Ok)
      return false;
  std::memcpy(old, fresh, unit);
  std::memcpy(fresh + at, src.data(), src.size());
  engine_.codec().patch_parity(u, {old, unit}, {fresh, unit},
                               stripe_.span().subspan(k * unit), unit);
  store_units(st, stripe_.data(), u, u + 1, res);
  return true;
}

const std::uint8_t* ObjectLayout::encode_stripe(const std::uint8_t* src,
                                                std::size_t len) {
  const std::size_t k = params().k;
  const std::size_t unit = unit_size();
  if (len < k * unit) {  // the tail stripe: zero-padded in staging
    std::memcpy(stripe_.data(), src, len);
    std::memset(stripe_.data() + len, 0, k * unit - len);
    src = stripe_.data();
  }
  std::vector<const std::uint8_t*> data(k);
  std::vector<std::uint8_t*> parity(params().r);
  for (std::size_t u = 0; u < k; ++u) data[u] = src + u * unit;
  for (std::size_t i = 0; i < parity.size(); ++i)
    parity[i] = stripe_.data() + (k + i) * unit;
  engine_.codec().encode_scattered(data, parity, unit);
  return src;
}

void ObjectLayout::store_units(StripeEngine::Stripe& st,
                               const std::uint8_t* data, std::size_t first,
                               std::size_t last, PutResult& res) {
  const std::size_t k = params().k;
  const std::size_t unit = unit_size();
  bool stored = true;
  for (std::size_t u = first; u < last; ++u)
    stored &= engine_.store_unit(st, u, data + u * unit, &res.latency_us);
  for (std::size_t u = k; u < params().n(); ++u)
    stored &= engine_.store_unit(st, u, stripe_.data() + u * unit,
                                 &res.latency_us);
  if (!stored) res.failed_stripes.push_back(st.index);
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
