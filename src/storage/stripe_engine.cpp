#include "storage/stripe_engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "storage/crc32c.h"
#include "tensor/buffer.h"

namespace tvmec::storage {

StripeEngine::StripeEngine(const ec::CodeParams& params, std::size_t unit_size,
                           std::size_t num_nodes, Transport* transport)
    : params_(params),
      unit_size_(unit_size),
      codec_(params),
      transport_(transport),
      nodes_(num_nodes) {
  ec::packet_bytes(params, unit_size);  // validates unit_size
}

void StripeEngine::fail_node(std::size_t node) {
  Node& n = nodes_[node];
  if (n.failed) return;
  n.failed = true;
  n.lost.clear();
  for (auto& [key, st] : stripes_)
    for (std::size_t u = 0; u < st.nodes.size(); ++u)
      if (st.nodes[u] == node && !st.units[u].empty()) {
        n.lost.emplace_back(st.name, st.index, u);
        st.units[u] = {};  // data is gone with the node
      }
  ++stats_.failed_nodes;
}

std::vector<StripeEngine::UnitKey> StripeEngine::revive_node(
    std::size_t node) {
  if (injector_) injector_->repair_node(node);
  Node& n = nodes_[node];
  if (!n.failed) return {};
  n.failed = false;
  --stats_.failed_nodes;
  return std::exchange(n.lost, {});
}

StripeEngine::Stripe& StripeEngine::add_stripe(
    const std::string& name, std::size_t index,
    std::vector<std::size_t> nodes) {
  Stripe& st = stripes_[{name, index}];
  st.name = name;
  st.index = index;
  st.nodes = std::move(nodes);
  st.unit_crcs.assign(params_.n(), 0);
  st.units.assign(params_.n(), {});
  return st;
}

void StripeEngine::encode(std::uint8_t* stripe) {
  const std::size_t data = params_.k * unit_size_;
  codec_.encode({stripe, data}, {stripe + data, params_.r * unit_size_},
                unit_size_);
}

bool StripeEngine::store_unit(Stripe& st, std::size_t u,
                              const std::uint8_t* src, std::uint64_t* hop_us) {
  // The checksum of the intended bytes, taken *before* fault injection:
  // a torn or flipped persisted copy must disagree with it.
  st.unit_crcs[u] = crc32c({src, unit_size_});
  const std::size_t node = st.nodes[u];
  const std::uint64_t key = FaultInjector::key(st.name, st.index, u);
  if (transport_) {
    if (!transport_->usable(node)) return false;
    if (hop_us && !retry(key, [&] {
          return transport_->carry(node, true, *hop_us) ? Attempt::Success
                                                        : Attempt::Retry;
        }))
      return false;
  }
  if (injector_ && injector_->crashed(node)) fail_node(node);
  if (nodes_[node].failed) return false;
  std::vector<std::uint8_t> bytes(src, src + unit_size_);
  if (injector_ && !injector_->on_write(node, key, bytes)) {
    fail_node(node);  // crash: the write (and the node) is lost
    return false;
  }
  st.units[u] = std::move(bytes);
  return true;
}

UnitRead StripeEngine::read_unit(Stripe& st, std::size_t u, std::uint8_t* dest,
                                 std::uint64_t* hop_us) {
  const std::size_t node = st.nodes[u];
  if (transport_ && !transport_->usable(node)) return UnitRead::Missing;
  const std::uint64_t key = FaultInjector::key(st.name, st.index, u);
  UnitRead verdict = UnitRead::Missing;
  retry(key, [&]() -> Attempt {
    verdict = UnitRead::Missing;  // if the budget runs out here
    if (injector_ && injector_->crashed(node)) fail_node(node);
    if (nodes_[node].failed || st.units[u].empty()) return Attempt::Abort;
    std::memcpy(dest, st.units[u].data(), unit_size_);
    if (injector_) {
      switch (injector_->on_read(node, key, {dest, unit_size_})) {
        case ReadFault::Crash:
          fail_node(node);
          return Attempt::Abort;
        case ReadFault::Transient:
          return Attempt::Retry;
        case ReadFault::None:
          break;
      }
    }
    if (hop_us && transport_ && !transport_->carry(node, false, *hop_us))
      return Attempt::Retry;
    if (crc32c({dest, unit_size_}) != st.unit_crcs[u]) {
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

UnitRead StripeEngine::probe_unit(const Stripe& st, std::size_t u,
                                  bool count_corrupt) {
  const std::size_t node = st.nodes[u];
  if (transport_ ? !transport_->usable(node) : nodes_[node].failed)
    return UnitRead::Missing;
  if (st.units[u].empty()) return UnitRead::Missing;
  if (crc32c(st.units[u]) == st.unit_crcs[u]) return UnitRead::Ok;
  if (count_corrupt) ++stats_.corruptions_detected;
  return UnitRead::Corrupt;
}

bool StripeEngine::corrupt_unit(Stripe& st, std::size_t u) {
  const std::size_t node = st.nodes[u];
  if (injector_ && injector_->crashed(node)) return false;
  if (!holds_unit(st, u)) return false;
  st.units[u][unit_size_ / 2] ^= 0x40;  // flip one bit
  return true;
}

bool StripeEngine::decode_verified(const Stripe& st,
                                   std::span<std::uint8_t> stripe,
                                   const std::vector<std::size_t>& erased) {
  codec_.decode(stripe, erased, unit_size_);
  // Never trust unverified reconstruction: every rebuilt unit must match
  // the checksum recorded when it was stored.
  for (const std::size_t u : erased) {
    if (crc32c({unit_ptr(stripe, u), unit_size_}) != st.unit_crcs[u]) {
      ++stats_.corruptions_detected;
      return false;
    }
  }
  return true;
}

void StripeEngine::rebuild(const Stripe& st, std::span<std::uint8_t> stripe,
                           const std::vector<std::size_t>& erased,
                           const char* who) {
  if (erased.size() > params_.r)
    throw std::runtime_error(
        std::string(who) + ": " + std::to_string(erased.size()) +
        " units lost or corrupt, but the code only tolerates r=" +
        std::to_string(params_.r));
  if (!decode_verified(st, stripe, erased))
    throw std::runtime_error(std::string(who) +
                             ": reconstructed unit failed checksum");
}

std::vector<std::size_t> StripeEngine::read_stripe(
    Stripe& st, std::span<std::uint8_t> stripe, const char* who) {
  std::vector<std::size_t> erased;
  for (std::size_t u = 0; u < params_.n(); ++u)
    if (read_unit(st, u, unit_ptr(stripe, u)) != UnitRead::Ok)
      erased.push_back(u);
  if (!erased.empty()) rebuild(st, stripe, erased, who);
  return erased;
}

StripeScrubResult StripeEngine::scrub_stripe(Stripe& st) {
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
      state[u] = read_unit(st, u, unit_ptr(stripe.span(), u));
      any_missing |= state[u] == UnitRead::Missing;
    }
    if (!any_missing) break;
  }
  std::vector<std::size_t> erased;      // missing or corrupt: rebuild
  std::vector<std::size_t> stale_disk;  // read clean, stored copy bad
  for (std::size_t u = 0; u < n; ++u) {
    if (state[u] == UnitRead::Ok) {
      ++res.units_verified;
      // A clean read only proves the *returned* bytes: an injected
      // read-side flip can land on the very bit that is corrupt on disk
      // and cancel it, so the CRC passes while the persisted copy stays
      // bad — and the latent corruption later stacks with node failures
      // past the r budget. CRC the stored copy directly and rewrite it
      // from the verified read when it is stale. Found by the
      // differential fuzzer
      // (s=store-fault w=16 u=16 seed=10867058663792815222 loss=3,5).
      if (probe_unit(st, u) == UnitRead::Corrupt) {
        ++res.crc_errors;
        stale_disk.push_back(u);
      }
      continue;
    }
    if (state[u] == UnitRead::Corrupt) ++res.crc_errors;
    erased.push_back(u);
  }

  if (!erased.empty()) {
    // Past r, or survivors that are lying: persist nothing.
    if (erased.size() > params_.r ||
        !decode_verified(st, stripe.span(), erased)) {
      res.unrecoverable = true;
      return res;
    }
  }

  // Parity cross-check: the assembled stripe must be self-consistent.
  // (CRCs guard unit payloads; this guards against stale-but-valid units
  // and coder bugs.)
  tensor::AlignedBuffer<std::uint8_t> expect(params_.r * unit_size_);
  codec_.encode({stripe.data(), params_.k * unit_size_}, expect.span(),
                unit_size_);
  std::vector<std::size_t> heal(erased);
  heal.insert(heal.end(), stale_disk.begin(), stale_disk.end());
  for (std::size_t p = 0; p < params_.r; ++p) {
    const std::size_t u = params_.k + p;
    if (std::find(erased.begin(), erased.end(), u) != erased.end()) continue;
    std::uint8_t* got = unit_ptr(stripe.span(), u);
    const std::uint8_t* want = expect.data() + p * unit_size_;
    if (std::memcmp(got, want, unit_size_) != 0) {
      ++res.parity_errors;
      std::memcpy(got, want, unit_size_);
      heal.push_back(u);
    }
  }

  for (const std::size_t u : heal)
    if (store_unit(st, u, unit_ptr(stripe.span(), u))) ++res.units_repaired;
  stats_.units_repaired += res.units_repaired;
  return res;
}

}  // namespace tvmec::storage
