#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/net.h"
#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/object_layout.h"

/// A deterministic simulated multi-node erasure-coded cluster: the
/// shared storage::ObjectLayout (the same object striping as
/// StripeStore, over the same StripeEngine unit pipeline) whose units
/// move over the modeled Network, so traffic, latency and link faults
/// are accounted, and whose disk ops consult the shared FaultInjector,
/// so disk and wire chaos replay from one seed.
///
/// What this layout adds on top of the object layout:
///  - failure domains: node i is in domain i % num_domains, so the
///    rotated placement spreads a stripe over min(n, num_domains) of
///    them and one domain outage costs at most ceil(n/domains) units
///  - routing by the membership view: a unit on a node the failure
///    detector calls Dead reads as missing (RPC timeout == retry
///    exhaustion under storage::RetryPolicy), and reads degrade to
///    decode-through-survivors on the client
///  - hedged reads: a per-node EWMA latency tracker arms a hedge budget;
///    a straggling read past multiplier x EWMA triggers a second,
///    parity-backed request, and the modeled completion takes the
///    faster path (the recovered bytes are identical either way —
///    asserted against metadata CRCs)
///  - damage events for the healer, and DAG repair
///
/// Repair (DAG-based, partial aggregation at helpers) lives in
/// cluster/repair.h; Cluster::scrub() and Cluster::repair() drive it.
namespace tvmec::cluster {

class RepairCoordinator;
struct RepairConfig;
struct RepairStats;
class Membership;

/// Where a damage event came from — every path that discovers lost
/// redundancy names itself, so the healer's queue statistics decompose
/// by discovery channel.
enum class DamageKind {
  MissedHeartbeats,  ///< membership marked the stripe's node Dead
  ReadCorruption,    ///< CRC-corrupt or missing unit hit by a client get()
  WriteFailure,      ///< store_unit could not persist a unit during put()
  ScrubFinding,      ///< the integrity pass found a bad unit
  Revive,            ///< a revived node lost units; re-replicate them
  Rejoin,            ///< membership saw a Dead node ack again
  Requeue,           ///< a repair attempt aborted; re-assessed and retried
};

const char* to_string(DamageKind k) noexcept;

/// Consumer of damage events (the Healer). Non-owning observer: the
/// cluster reports (object, stripe) pairs that lost redundancy the
/// moment the loss is *discovered* — a CRC failure inside a degraded
/// read, a failed unit store, a scrub finding, a revive — instead of
/// leaving them for the next full-scan repair_all() walk.
class DamageSink {
 public:
  virtual ~DamageSink() = default;
  virtual void report_damage(DamageKind kind, const std::string& name,
                             std::size_t stripe) = 0;
};

/// Hedged-read policy. The EWMA is per source node over delivered read
/// latencies; hedging stays off for a node until it has min_samples.
struct HedgeConfig {
  bool enabled = true;
  double ewma_alpha = 0.2;     ///< new = alpha*sample + (1-alpha)*old
  double multiplier = 3.0;     ///< budget = multiplier * EWMA
  std::uint32_t min_samples = 8;
};

struct ClusterConfig {
  std::size_t num_nodes = 0;
  std::size_t num_domains = 1;
  NetConfig net;
  storage::RetryPolicy retry;
  HedgeConfig hedge;
  std::uint64_t seed = 0xC1457;  ///< network jitter stream
};

struct ClusterStats : storage::ObjectStats {
  std::size_t hedged_reads = 0;     ///< hedge requests issued
  std::size_t hedge_wins = 0;       ///< hedged path beat the straggler
  std::size_t corruptions_detected = 0;
  std::size_t units_repaired = 0;   ///< units rebuilt by repair()/scrub()
  std::size_t failed_nodes = 0;
  std::size_t units_lost_on_revive = 0;  ///< units a revived node came back
                                         ///< without (re-replication debt)
  std::size_t damage_events = 0;    ///< events emitted to the DamageSink
  std::uint64_t read_virtual_us = 0;  ///< summed modeled stripe-read latency
  std::uint64_t write_virtual_us = 0;
};

// Transport comes first: it must be constructed before the layout's
// engine is handed a pointer to it. The layout base is private so no
// caller can attach an injector to the disks but not the network.
class Cluster final : private storage::StripeEngine::Transport,
                      private storage::ObjectLayout {
 public:
  using ObjectLayout::corrupt_unit;
  using ObjectLayout::exists;
  using ObjectLayout::fail_node;
  using ObjectLayout::num_nodes;
  using ObjectLayout::object_names;
  using ObjectLayout::object_stripe_count;
  using ObjectLayout::params;
  using ObjectLayout::placement;
  using ObjectLayout::remove;
  using ObjectLayout::set_plan_cache;  // shared with the repair coordinator
  using ObjectLayout::unit_size;
  using StripeLayout::fault_injector;
  using StripeLayout::retry_policy;
  using StripeLayout::retry_stats;
  using StripeLayout::set_retry_policy;

  /// num_nodes must be >= k + r (distinct nodes per stripe). unit_size
  /// follows the codec contract (positive multiple of w bytes).
  Cluster(const ec::CodeParams& params, std::size_t unit_size,
          const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t num_domains() const noexcept { return net_.num_domains(); }
  std::size_t domain_of(std::size_t node) const noexcept {
    return net_.domain_of(node);
  }

  Network& net() noexcept { return net_; }
  const Network& net() const noexcept { return net_; }
  core::Codec& codec() noexcept { return engine_.codec(); }

  /// Attaches the one fault injector to both the disk ops and the
  /// network links. Non-owning; null detaches.
  void attach_fault_injector(storage::FaultInjector* injector) noexcept {
    engine_.attach_fault_injector(injector);
    net_.attach_fault_injector(injector);
  }

  const std::shared_ptr<core::PlanCache>& plan_cache() const noexcept {
    return engine_.codec().plan_cache();
  }

  /// ObjectLayout::put with units shipped over the network; a stripe
  /// with a unit not stored is reported (kind WriteFailure).
  void put(const std::string& name, std::span<const std::uint8_t> bytes);
  /// ObjectLayout::get; reads hedge around stragglers.
  std::optional<std::vector<std::uint8_t>> get(const std::string& name);

  /// Replacement hardware: the node rejoins empty; injector crash state
  /// for it is cleared. The units it held when it failed are its
  /// re-replication debt: each affected stripe is reported to the
  /// DamageSink (kind Revive) and counted in units_lost_on_revive, so a
  /// rejoin triggers rebuilding what was lost instead of silently
  /// rejoining empty.
  void revive_node(std::size_t node);
  /// Ground truth: the machine is physically down (explicitly failed, or
  /// the injector crashed it). The simulation uses this to decide how
  /// I/O *behaves*; routing decisions should use node_usable() instead,
  /// which consults the failure detector when one is attached.
  bool node_failed(std::size_t node) const;
  /// The routing view: should reads/repair treat this node as holding
  /// usable units right now? Without a Membership attached this is the
  /// omniscient !node_failed(). With one attached, the injector peek is
  /// replaced by the detector's verdict — a node is unusable when the
  /// cluster itself observed it fail, or when membership says Dead.
  bool node_usable(std::size_t node) const;

  /// Failure detector consumed by node_usable(). Non-owning; null
  /// detaches (back to the omniscient view).
  void set_membership(Membership* membership) noexcept {
    membership_ = membership;
  }
  Membership* membership() const noexcept { return membership_; }

  /// Damage-event consumer (the Healer). Non-owning; null detaches.
  /// With a sink attached, scrub() routes findings through the sink
  /// instead of repairing inline.
  void set_damage_sink(DamageSink* sink) noexcept { damage_sink_ = sink; }
  DamageSink* damage_sink() const noexcept { return damage_sink_; }

  /// Every (object, stripe) whose placement references `node` — the
  /// stripes a Dead verdict for that node puts at risk.
  std::vector<std::pair<std::string, std::size_t>> stripes_on_node(
      std::size_t node) const;

  /// Foreground (client get/put) payload bytes moved since the last
  /// call; the healer's load-aware deferral reads and resets this.
  std::uint64_t take_foreground_bytes() noexcept {
    const std::uint64_t b = foreground_bytes_;
    foreground_bytes_ = 0;
    return b;
  }

  /// DAG-based repair of everything lost or corrupt (see repair.h).
  /// Returns units rebuilt. Unrecoverable stripes are skipped.
  std::size_t repair();
  /// Integrity pass: local CRC verification on every node, DAG repair of
  /// every bad unit found. Returns corrupt-or-missing units detected.
  std::size_t scrub();

  RepairCoordinator& repairer() noexcept { return *repairer_; }
  void set_repair_config(const RepairConfig& config);
  const RepairStats& repair_stats() const;

  const ClusterStats& stats() const noexcept;
  const HedgeConfig& hedge_config() const noexcept { return config_.hedge; }
  /// Current EWMA read latency for a node (0 until sampled).
  double node_ewma_us(std::size_t node) const;

 private:
  friend class RepairCoordinator;
  using Stripe = storage::StripeEngine::Stripe;

  // The engine's transport: routing by node_usable(), unit payloads
  // carried client <-> node over net_.
  bool usable(std::size_t node) override { return node_usable(node); }
  bool carry(std::size_t node, bool to_node,
             std::uint64_t& latency_us) override;

  /// Reads a stripe with degradation + hedging into `stripe` and
  /// accumulates its modeled latency.
  bool read_stripe(Stripe& st, std::span<std::uint8_t> stripe) override;

  void update_ewma(std::size_t node, std::uint64_t latency_us);
  /// Emits a damage event when a sink is attached (no-op otherwise).
  void report_damage(DamageKind kind, const std::string& name,
                     std::size_t stripe);

  ClusterConfig config_;
  Network net_;
  mutable ClusterStats stats_;
  struct Ewma {
    double value = 0.0;
    std::uint32_t samples = 0;
  };
  std::vector<Ewma> ewma_;
  std::unique_ptr<RepairCoordinator> repairer_;
  Membership* membership_ = nullptr;
  DamageSink* damage_sink_ = nullptr;
  std::uint64_t foreground_bytes_ = 0;
};

}  // namespace tvmec::cluster
