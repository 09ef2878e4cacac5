#include "storage/stripe_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/buffer.h"

namespace tvmec::storage {

StripeStore::StripeStore(const ec::CodeParams& params, std::size_t unit_size,
                         std::size_t num_nodes)
    : params_(params), unit_size_(unit_size), codec_(params) {
  ec::packet_bytes(params, unit_size);  // validates unit_size
  if (num_nodes < params.n())
    throw std::invalid_argument("StripeStore: need at least k+r nodes");
  nodes_.resize(num_nodes);
}

void StripeStore::mark_node_failed(std::size_t node) {
  if (nodes_[node].failed) return;
  nodes_[node].failed = true;
  nodes_[node].units.clear();  // data is gone with the node
  ++stats_.failed_nodes;
}

bool StripeStore::store_unit(const std::string& name,
                             const StripeLocation& loc, std::size_t s,
                             std::size_t u, const std::uint8_t* src) {
  const std::size_t node_id = loc.nodes[u];
  if (injector_ && injector_->crashed(node_id)) mark_node_failed(node_id);
  Node& node = nodes_[node_id];
  if (node.failed) return false;

  StoredUnit stored;
  stored.bytes.assign(src, src + unit_size_);
  // The caller's checksum of the intended bytes, taken *before* fault
  // injection: a torn or flipped persisted copy must disagree with it.
  stored.crc = loc.unit_crcs[u];
  if (injector_ &&
      !injector_->on_write(node_id, FaultInjector::key(name, s, u),
                           stored.bytes)) {
    mark_node_failed(node_id);  // crash: the write (and the node) is lost
    return false;
  }
  node.units[{name, s, u}] = std::move(stored);
  return true;
}

StripeStore::UnitRead StripeStore::read_unit(const std::string& name,
                                             const StripeLocation& loc,
                                             std::size_t s, std::size_t u,
                                             std::uint8_t* dest) {
  const std::size_t node_id = loc.nodes[u];
  const std::uint64_t key = FaultInjector::key(name, s, u);
  UnitRead verdict = UnitRead::Missing;
  with_retries(retry_, retry_stats_, key, [&]() -> Attempt {
    if (injector_ && injector_->crashed(node_id)) {
      mark_node_failed(node_id);
      verdict = UnitRead::Missing;
      return Attempt::Abort;
    }
    Node& node = nodes_[node_id];
    if (node.failed) {
      verdict = UnitRead::Missing;
      return Attempt::Abort;
    }
    const auto it = node.units.find({name, s, u});
    if (it == node.units.end()) {
      verdict = UnitRead::Missing;
      return Attempt::Abort;
    }
    std::memcpy(dest, it->second.bytes.data(), unit_size_);
    if (injector_) {
      switch (injector_->on_read(node_id, key, {dest, unit_size_})) {
        case ReadFault::Crash:
          mark_node_failed(node_id);
          verdict = UnitRead::Missing;
          return Attempt::Abort;
        case ReadFault::Transient:
          verdict = UnitRead::Missing;  // if the budget runs out here
          return Attempt::Retry;
        case ReadFault::None:
          break;
      }
    }
    if (crc32c({dest, unit_size_}) != it->second.crc) {
      // Could be a transient read-side flip: re-read. If it keeps
      // mismatching, the stored copy itself is corrupt.
      verdict = UnitRead::Corrupt;
      return Attempt::Retry;
    }
    verdict = UnitRead::Ok;
    return Attempt::Success;
  });
  if (verdict == UnitRead::Corrupt) ++stats_.corruptions_detected;
  return verdict;
}

void StripeStore::put(const std::string& name,
                      std::span<const std::uint8_t> bytes) {
  remove(name);

  ObjectMeta meta;
  meta.size = bytes.size();
  const std::size_t stripe_data = params_.k * unit_size_;
  const std::size_t num_stripes =
      bytes.empty() ? 0 : (bytes.size() + stripe_data - 1) / stripe_data;

  tensor::AlignedBuffer<std::uint8_t> data_buf(stripe_data);
  tensor::AlignedBuffer<std::uint8_t> parity_buf(params_.r * unit_size_);

  for (std::size_t s = 0; s < num_stripes; ++s) {
    const std::size_t off = s * stripe_data;
    const std::size_t len = std::min(stripe_data, bytes.size() - off);
    std::memcpy(data_buf.data(), bytes.data() + off, len);
    if (len < stripe_data)
      std::memset(data_buf.data() + len, 0, stripe_data - len);
    codec_.encode(data_buf.span(), parity_buf.span(), unit_size_);

    // Rotate placement so load (and failure impact) spreads over nodes.
    StripeLocation loc;
    loc.nodes.resize(params_.n());
    loc.unit_crcs.resize(params_.n());
    for (std::size_t u = 0; u < params_.n(); ++u) {
      loc.nodes[u] = (next_rotation_ + u) % nodes_.size();
      const std::uint8_t* src = u < params_.k
                                    ? data_buf.data() + u * unit_size_
                                    : parity_buf.data() +
                                          (u - params_.k) * unit_size_;
      loc.unit_crcs[u] = crc32c({src, unit_size_});
      // Units destined to failed/crashed nodes are simply lost, as they
      // would be on real hardware; repair() can rebuild them later.
      store_unit(name, loc, s, u, src);
    }
    next_rotation_ = (next_rotation_ + 1) % nodes_.size();
    meta.stripes.push_back(std::move(loc));
  }

  objects_[name] = std::move(meta);
  ++stats_.objects;
  stats_.stripes_written += num_stripes;
}

bool StripeStore::exists(const std::string& name) const {
  return objects_.contains(name);
}

void StripeStore::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return;
  for (std::size_t s = 0; s < it->second.stripes.size(); ++s)
    for (std::size_t u = 0; u < params_.n(); ++u)
      nodes_[it->second.stripes[s].nodes[u]].units.erase({name, s, u});
  objects_.erase(it);
  --stats_.objects;
}

std::vector<std::uint8_t> StripeStore::read_stripe(const std::string& name,
                                                   const ObjectMeta& meta,
                                                   std::size_t s,
                                                   bool* degraded) {
  const StripeLocation& loc = meta.stripes[s];
  const std::size_t n = params_.n();
  tensor::AlignedBuffer<std::uint8_t> stripe(n * unit_size_);
  std::vector<std::size_t> erased;
  for (std::size_t u = 0; u < n; ++u) {
    if (read_unit(name, loc, s, u, stripe.data() + u * unit_size_) !=
        UnitRead::Ok)
      erased.push_back(u);
  }
  if (!erased.empty()) {
    *degraded = true;
    codec_.decode(stripe.span(), erased, unit_size_);  // throws if > r lost
    // Never hand back unverified reconstruction: every rebuilt unit must
    // match the checksum recorded in object metadata.
    for (const std::size_t u : erased) {
      if (crc32c({stripe.data() + u * unit_size_, unit_size_}) !=
          loc.unit_crcs[u]) {
        ++stats_.corruptions_detected;
        throw std::runtime_error(
            "StripeStore: reconstructed unit failed checksum verification");
      }
    }
  }
  return std::vector<std::uint8_t>(stripe.data(),
                                   stripe.data() + n * unit_size_);
}

std::optional<std::vector<std::uint8_t>> StripeStore::get(
    const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  const ObjectMeta& meta = it->second;

  std::vector<std::uint8_t> out;
  out.reserve(meta.size);
  bool degraded = false;
  for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
    const std::vector<std::uint8_t> stripe =
        read_stripe(name, meta, s, &degraded);
    const std::size_t want =
        std::min(params_.k * unit_size_, meta.size - out.size());
    out.insert(out.end(), stripe.begin(),
               stripe.begin() + static_cast<std::ptrdiff_t>(want));
  }
  if (degraded) ++stats_.degraded_reads;
  return out;
}

void StripeStore::fail_node(std::size_t node) {
  if (node >= nodes_.size())
    throw std::invalid_argument("fail_node: node out of range");
  mark_node_failed(node);
}

void StripeStore::revive_node(std::size_t node) {
  if (node >= nodes_.size())
    throw std::invalid_argument("revive_node: node out of range");
  if (injector_) injector_->repair_node(node);
  if (!nodes_[node].failed) return;
  nodes_[node].failed = false;
  --stats_.failed_nodes;
}

bool StripeStore::node_failed(std::size_t node) const {
  if (node >= nodes_.size())
    throw std::invalid_argument("node_failed: node out of range");
  return nodes_[node].failed;
}

StripeScrubResult StripeStore::scrub_stripe(const std::string& name,
                                            std::size_t s) {
  const auto it = objects_.find(name);
  if (it == objects_.end())
    throw std::invalid_argument("scrub_stripe: unknown object " + name);
  ObjectMeta& meta = it->second;
  if (s >= meta.stripes.size())
    throw std::invalid_argument("scrub_stripe: stripe index out of range");
  StripeLocation& loc = meta.stripes[s];
  const std::size_t n = params_.n();

  StripeScrubResult res;
  tensor::AlignedBuffer<std::uint8_t> stripe(n * unit_size_);
  // Transient read errors must not defeat the scrubber: a unit whose
  // retry budget ran out (chained transient bursts can exhaust it) is
  // re-attempted in a fresh pass before the stripe is declared
  // unrecoverable. Without this, one latent corruption plus one
  // transient burst pushes the apparent erasure count past r, scrub
  // skips the stripe, and the corruption stays on disk — found by the
  // cross-backend differential fuzzer (see DESIGN.md §6).
  constexpr int kReadPasses = 3;
  std::vector<UnitRead> state(n, UnitRead::Missing);
  for (int pass = 0; pass < kReadPasses; ++pass) {
    bool any_missing = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (pass > 0 && state[u] != UnitRead::Missing) continue;
      state[u] = read_unit(name, loc, s, u, stripe.data() + u * unit_size_);
      any_missing |= state[u] == UnitRead::Missing;
    }
    if (!any_missing) break;
  }
  std::vector<std::size_t> erased;  // missing or corrupt: needs rebuild
  for (std::size_t u = 0; u < n; ++u) {
    switch (state[u]) {
      case UnitRead::Ok:
        ++res.units_verified;
        break;
      case UnitRead::Corrupt:
        ++res.crc_errors;
        erased.push_back(u);
        break;
      case UnitRead::Missing:
        erased.push_back(u);
        break;
    }
  }

  // Node-local disk check for units that read clean. A clean read only
  // proves the *returned* bytes: an injected read-side flip can land on
  // the very bit that is corrupt on disk and cancel it, so the CRC
  // passes while the persisted copy stays bad — and the latent
  // corruption later stacks with node failures past the r budget. CRC
  // the stored copy directly and rewrite it from the verified read when
  // it is stale. Found by the differential fuzzer
  // (s=store-fault w=16 u=16 seed=10867058663792815222 loss=3,5).
  std::vector<std::size_t> stale_disk;
  for (std::size_t u = 0; u < n; ++u) {
    if (state[u] != UnitRead::Ok) continue;
    Node& node = nodes_[loc.nodes[u]];
    const auto uit = node.units.find({name, s, u});
    if (uit == node.units.end()) continue;
    if (crc32c(uit->second.bytes) != uit->second.crc) {
      ++res.crc_errors;
      ++stats_.corruptions_detected;
      stale_disk.push_back(u);
    }
  }

  if (!erased.empty()) {
    if (erased.size() > params_.r) {
      res.unrecoverable = true;
      return res;
    }
    codec_.decode(stripe.span(), erased, unit_size_);
    // CRC-verify the reconstruction before persisting anything.
    for (const std::size_t u : erased) {
      if (crc32c({stripe.data() + u * unit_size_, unit_size_}) !=
          loc.unit_crcs[u]) {
        ++stats_.corruptions_detected;
        res.unrecoverable = true;  // survivors are lying; don't persist
        return res;
      }
    }
  }

  // Parity cross-check: the assembled stripe must be self-consistent.
  // (CRCs guard unit payloads; this guards against stale-but-valid units
  // and coder bugs.)
  tensor::AlignedBuffer<std::uint8_t> expect(params_.r * unit_size_);
  codec_.encode(
      std::span<const std::uint8_t>(stripe.data(), params_.k * unit_size_),
      expect.span(), unit_size_);
  std::vector<std::size_t> heal(erased);
  heal.insert(heal.end(), stale_disk.begin(), stale_disk.end());
  for (std::size_t p = 0; p < params_.r; ++p) {
    const std::size_t u = params_.k + p;
    if (std::find(erased.begin(), erased.end(), u) != erased.end()) continue;
    if (std::memcmp(stripe.data() + u * unit_size_,
                    expect.data() + p * unit_size_, unit_size_) != 0) {
      ++res.parity_errors;
      std::memcpy(stripe.data() + u * unit_size_,
                  expect.data() + p * unit_size_, unit_size_);
      loc.unit_crcs[u] = crc32c({expect.data() + p * unit_size_, unit_size_});
      heal.push_back(u);
    }
  }

  for (const std::size_t u : heal) {
    if (store_unit(name, loc, s, u, stripe.data() + u * unit_size_))
      ++res.units_repaired;
  }
  stats_.units_repaired += res.units_repaired;
  return res;
}

std::size_t StripeStore::repair() {
  std::size_t repaired = 0;
  for (const auto& [name, meta] : objects_) {
    for (std::size_t s = 0; s < meta.stripes.size(); ++s) {
      const StripeScrubResult res = scrub_stripe(name, s);
      if (res.unrecoverable)
        throw std::runtime_error("StripeStore::repair: stripe " +
                                 std::to_string(s) + " of " + name +
                                 " is unrecoverable");
      repaired += res.units_repaired;
    }
  }
  return repaired;
}

std::size_t StripeStore::scrub() {
  std::size_t corrupt = 0;
  for (const auto& [name, meta] : objects_)
    for (std::size_t s = 0; s < meta.stripes.size(); ++s)
      corrupt += scrub_stripe(name, s).errors();
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
  return it == objects_.end() ? 0 : it->second.stripes.size();
}

std::size_t StripeStore::total_stripes() const noexcept {
  std::size_t total = 0;
  for (const auto& [name, meta] : objects_) total += meta.stripes.size();
  return total;
}

bool StripeStore::corrupt_unit(const std::string& name, std::size_t stripe,
                               std::size_t unit) {
  const auto obj = objects_.find(name);
  if (obj == objects_.end()) return false;
  if (stripe >= obj->second.stripes.size() || unit >= params_.n())
    return false;
  Node& node = nodes_[obj->second.stripes[stripe].nodes[unit]];
  if (node.failed) return false;
  const auto it = node.units.find({name, stripe, unit});
  if (it == node.units.end()) return false;
  it->second.bytes[it->second.bytes.size() / 2] ^= 0x40;  // flip one bit
  return true;
}

}  // namespace tvmec::storage
