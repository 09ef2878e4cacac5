#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ec/decoder.h"
#include "gf/gf.h"
#include "tensor/variant.h"

/// A process-wide decode-plan cache.
///
/// Building a DecodePlan means inverting a survivor submatrix (and, with
/// plan optimization on, searching survivor subsets) — orders of magnitude
/// more work than the GEMM that executes it at serving unit sizes. Loss
/// patterns repeat heavily in practice: a failed disk erases the same unit
/// id in every stripe, so the scrubber, the serve workers, and direct
/// Codec::decode callers keep asking for the same handful of plans. This
/// cache generalizes the per-codec-slot `naive_decode_cache` the serving
/// layer grew: one shared, thread-safe, LRU-bounded map from
/// (code identity, sorted loss pattern, survivor preference) to an
/// immutable plan that every consumer can hold by shared_ptr; Codec::plan
/// is the one place that builds keys and plans. Unrecoverable patterns
/// are cached negatively (a null plan), so repeated hopeless repairs
/// don't re-run the rank computation either.
namespace tvmec::core {

/// Cache key: the exact identity of the code plus everything the plan
/// depends on. `erased` is the canonical (sorted, deduplicated) loss
/// pattern. `survivors` is the caller's preferred-survivor list, in
/// order (the cluster's repair DAGs prefer failure-domain-local helpers,
/// so one loss pattern yields different plans per placement); empty
/// means "any survivors", the single-process default. `optimized`
/// separates sparse-searched plans from greedy ones. `variant` is the
/// kernel-variant knob of the consumer: the recovery matrix is pure
/// field math and identical across variants, but variant-pinned
/// consumers (differential tests and tuning sweeps that rebuild coders
/// per SIMD tier) must not alias each other's entries; Auto, the
/// default, shares one entry. The code itself is identified by its
/// field width and every generator coefficient, so two different codes
/// of the same shape (RS(12,4) and LRC(12,2,2)) never share a plan; it
/// is compared last, after the cheap fields.
struct PlanKey {
  std::vector<std::size_t> erased;
  std::vector<std::size_t> survivors;
  bool optimized = false;
  tensor::KernelVariant variant = tensor::KernelVariant::Auto;
  unsigned w = 0;
  std::size_t k = 0;
  std::vector<gf::elem_t> generator;  ///< n x k, row-major

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class PlanCache {
 public:
  /// `max_entries` bounds the cache; the least recently used entry is
  /// evicted past it. Disk-failure workloads touch O(n) patterns per
  /// incident, so the default is generous without being unbounded.
  explicit PlanCache(std::size_t max_entries = 4096);

  /// Returns nullopt for unrecoverable patterns; the result is cached
  /// either way.
  using Builder = std::function<std::optional<ec::DecodePlan>()>;

  /// Returns the cached plan for `key`, or invokes `build` and caches the
  /// result. A null return means the pattern is unrecoverable (negative
  /// result — also cached). The builder runs under the cache mutex, which
  /// deduplicates concurrent builds of the same pattern: the first caller
  /// inverts, everyone else hits.
  std::shared_ptr<const ec::DecodePlan> get_or_build(const PlanKey& key,
                                                     const Builder& build);

  PlanCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const ec::DecodePlan> plan;  // null = unrecoverable
  };

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<PlanKey, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace tvmec::core
