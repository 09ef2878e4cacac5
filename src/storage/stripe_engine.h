#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/fault_injector.h"
#include "storage/retry.h"
#include "storage/scrub_types.h"

/// The one stripe engine under every storage layout in this repo
/// (StripeStore, RaidArray, CheckpointManager, cluster::Cluster). It owns
/// the unit pipeline those layouts share:
///
///  - nodes that fail (dropping what they hold), revive empty, and take
///    injected corruption;
///  - stripes: each one's placement (node per unit), the CRC-32C of each
///    unit's intended bytes, and the persisted copy of each unit;
///  - the single unit read (fault checks, retries, CRC) and unit store
///    (CRC taken before fault injection, so injected write faults stay
///    detectable);
///  - CRC-verified degraded decode, and the one per-stripe scrub.
///
/// Every FaultInjector read/write consult happens here, so one seeded
/// fault stream drives every layout the same way. A layout decides only
/// where stripes go and what they mean (objects, LBAs, checkpoint ranks,
/// failure domains).
namespace tvmec::storage {

/// Outcome of one unit read after faults, retries and CRC verification.
enum class UnitRead {
  Ok,       ///< bytes in dest, checksum verified
  Missing,  ///< node down or unusable, unit absent, or retries exhausted
  Corrupt,  ///< present but checksum-bad even after re-reads
};

struct EngineStats {
  std::size_t corruptions_detected = 0;  ///< once per unit found corrupt
  std::size_t units_repaired = 0;        ///< units rewritten by scrub
  std::size_t failed_nodes = 0;          ///< nodes currently failed
};

class StripeEngine {
 public:
  /// The owning layout's link to its nodes; null for the local stores.
  /// The cluster passes one that routes through its membership view and
  /// moves unit payloads over its modeled network.
  class Transport {
   public:
    virtual ~Transport() = default;
    /// Routing gate, checked before a unit read or store touches `node`.
    virtual bool usable(std::size_t node) = 0;
    /// One attempt at carrying a unit between the caller and `node`: the
    /// request of a store (`to_node`) or the response of a read. Adds the
    /// modeled latency to `latency_us`; false = lost on the way.
    virtual bool carry(std::size_t node, bool to_node,
                       std::uint64_t& latency_us) = 0;
  };

  struct Stripe {
    std::string name;
    std::size_t index = 0;
    std::vector<std::size_t> nodes;        ///< node holding each unit
    std::vector<std::uint32_t> unit_crcs;  ///< CRC of each intended unit
    /// Persisted copy of each unit on its node; empty = absent.
    std::vector<std::vector<std::uint8_t>> units;
  };
  using StripeKey = std::pair<std::string, std::size_t>;
  using UnitKey = std::tuple<std::string, std::size_t, std::size_t>;

  StripeEngine(const ec::CodeParams& params, std::size_t unit_size,
               std::size_t num_nodes, Transport* transport = nullptr);

  const ec::CodeParams& params() const noexcept { return params_; }
  std::size_t unit_size() const noexcept { return unit_size_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  core::Codec& codec() noexcept { return codec_; }
  const core::Codec& codec() const noexcept { return codec_; }
  const EngineStats& stats() const noexcept { return stats_; }

  void attach_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }
  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_ = policy;
  }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  /// with_retries under this engine's policy and stats.
  bool retry(std::uint64_t salt, const std::function<Attempt()>& attempt) {
    return with_retries(retry_, retry_stats_, salt, attempt);
  }

  /// Marks a node failed; everything it held is dropped and remembered
  /// as its lost units. Idempotent.
  void fail_node(std::size_t node);
  /// Clears any injector crash for the node and, if it was failed, brings
  /// it back empty. Returns the units it lost when it failed.
  std::vector<UnitKey> revive_node(std::size_t node);
  bool node_failed(std::size_t node) const { return nodes_[node].failed; }

  /// Registers stripe (name, index) placed on `nodes` (n entries), with
  /// no unit stored yet. Replaces any stripe of that key.
  Stripe& add_stripe(const std::string& name, std::size_t index,
                     std::vector<std::size_t> nodes);
  Stripe* find_stripe(const std::string& name, std::size_t index) {
    const auto it = stripes_.find({name, index});
    return it == stripes_.end() ? nullptr : &it->second;
  }
  /// First stripe at or after (name, index) in key order, or null.
  Stripe* stripe_at_or_after(const std::string& name, std::size_t index) {
    const auto it = stripes_.lower_bound({name, index});
    return it == stripes_.end() ? nullptr : &it->second;
  }
  void remove_stripe(const std::string& name, std::size_t index) {
    stripes_.erase({name, index});
  }
  const std::map<StripeKey, Stripe>& stripes() const noexcept {
    return stripes_;
  }

  /// Stripes an object of `bytes` bytes spans (k data units each).
  std::size_t stripe_count(std::size_t bytes) const noexcept {
    return (bytes + params_.k * unit_size_ - 1) / (params_.k * unit_size_);
  }
  /// Fills the r parity units of an n-unit stripe buffer from its k data
  /// units.
  void encode(std::uint8_t* stripe);

  /// Records the CRC of `src` (one unit) as unit u's intended contents,
  /// then persists it on its node through the fault injector. With
  /// `hop_us` and a transport, the unit first crosses the request hop
  /// (retried; its modeled latency lands in *hop_us). False when nothing
  /// was stored.
  bool store_unit(Stripe& st, std::size_t u, const std::uint8_t* src,
                  std::uint64_t* hop_us = nullptr);
  /// Reads unit u into dest through fault checks, retries and the CRC;
  /// counts a Corrupt verdict once. With `hop_us` and a transport, each
  /// attempt also crosses the response hop after the injector's read and
  /// before the CRC; the summed modeled latency lands in *hop_us.
  UnitRead read_unit(Stripe& st, std::size_t u, std::uint8_t* dest,
                     std::uint64_t* hop_us = nullptr);
  /// Node-local check of the persisted copy: no faults, no payload
  /// moved. A Corrupt verdict is counted unless `count_corrupt` is false
  /// (damage assessment that re-probes the same units).
  UnitRead probe_unit(const Stripe& st, std::size_t u,
                      bool count_corrupt = true);
  /// True when unit u is stored on a node that has not failed.
  bool holds_unit(const Stripe& st, std::size_t u) const {
    return !nodes_[st.nodes[u]].failed && !st.units[u].empty();
  }
  /// Chaos hook: flips one bit of a stored unit, its CRC left stale.
  /// False when the unit is absent or its node is down.
  bool corrupt_unit(Stripe& st, std::size_t u);
  /// Drops the stored copy of unit u (a lost rank's memory).
  void drop_unit(Stripe& st, std::size_t u) { st.units[u] = {}; }

  /// Rebuilds the `erased` units of an n-unit stripe buffer from its
  /// survivors and checks each against its CRC. Throws
  /// std::runtime_error naming `who` when more than r units are erased or
  /// a rebuilt unit fails its checksum (counted as a corruption).
  void rebuild(const Stripe& st, std::span<std::uint8_t> stripe,
               const std::vector<std::size_t>& erased, const char* who);
  /// Reads all n units into `stripe` and rebuilds the unreadable ones
  /// (see rebuild). Returns the ids of the rebuilt units.
  std::vector<std::size_t> read_stripe(Stripe& st,
                                       std::span<std::uint8_t> stripe,
                                       const char* who);

  /// Verifies and repairs one stripe: reads every unit in up to three
  /// passes (so a transient burst cannot make a healthy unit look lost),
  /// CRCs the persisted copy of every unit that read clean, rebuilds
  /// missing and corrupt units, cross-checks parity by re-encoding, and
  /// rewrites every bad unit. Never throws on damage: a stripe past r
  /// erasures, or whose rebuild fails its CRC, is left as is and
  /// reported unrecoverable.
  StripeScrubResult scrub_stripe(Stripe& st);

 private:
  struct Node {
    bool failed = false;
    std::vector<UnitKey> lost;  ///< units dropped when it last failed
  };

  /// rebuild's decode and CRC check (at most r erased); false, counted,
  /// when a rebuilt unit is bad.
  bool decode_verified(const Stripe& st, std::span<std::uint8_t> stripe,
                       const std::vector<std::size_t>& erased);
  std::uint8_t* unit_ptr(std::span<std::uint8_t> stripe, std::size_t u) const {
    return stripe.data() + u * unit_size_;
  }

  ec::CodeParams params_;
  std::size_t unit_size_;
  core::Codec codec_;
  Transport* transport_;
  std::vector<Node> nodes_;
  std::map<StripeKey, Stripe> stripes_;
  EngineStats stats_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  RetryStats retry_stats_;
};

/// Base of the storage layouts (StripeStore, RaidArray,
/// CheckpointManager, cluster::Cluster): owns their engine and exposes
/// its fault-injection and retry knobs.
class StripeLayout {
 public:
  /// Attaches (or detaches, with nullptr) the fault injector consulted
  /// on every unit read and write. Non-owning; it must outlive the
  /// layout.
  void attach_fault_injector(FaultInjector* injector) noexcept {
    engine_.attach_fault_injector(injector);
  }
  FaultInjector* fault_injector() const noexcept {
    return engine_.fault_injector();
  }
  /// Retry policy for transiently failing unit reads, applied before a
  /// read falls back to degraded reconstruction.
  void set_retry_policy(const RetryPolicy& policy) noexcept {
    engine_.set_retry_policy(policy);
  }
  const RetryPolicy& retry_policy() const noexcept {
    return engine_.retry_policy();
  }
  const RetryStats& retry_stats() const noexcept {
    return engine_.retry_stats();
  }

 protected:
  StripeLayout(const ec::CodeParams& params, std::size_t unit_size,
               std::size_t num_nodes,
               StripeEngine::Transport* transport = nullptr)
      : engine_(params, unit_size, num_nodes, transport) {}
  /// Shares a decode-plan cache with other plan consumers (the serve
  /// workers, other stores, direct Codec users): degraded reads and
  /// scrub repairs skip matrix inversion for loss patterns any of them
  /// has already planned. Null detaches.
  void set_plan_cache(std::shared_ptr<core::PlanCache> cache) {
    engine_.codec().set_plan_cache(std::move(cache));
  }

  StripeEngine engine_;
};

}  // namespace tvmec::storage
