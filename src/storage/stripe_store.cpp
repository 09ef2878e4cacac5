#include "storage/stripe_store.h"

#include <stdexcept>

namespace tvmec::storage {

const StoreStats& StripeStore::stats() const noexcept {
  static_cast<ObjectStats&>(stats_) = object_stats_;
  stats_.corruptions_detected = engine_.stats().corruptions_detected;
  stats_.units_repaired = engine_.stats().units_repaired;
  stats_.failed_nodes = engine_.stats().failed_nodes;
  return stats_;
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

}  // namespace tvmec::storage
