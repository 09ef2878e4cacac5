#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "ec/decoder.h"

/// DAG-based repair with partial aggregation at helper nodes — the
/// ECDAG discipline: instead of hauling k full survivor units to one
/// repairer (the naive star), each helper applies its slice of the
/// recovery matrix locally (an e x 1 GF coefficient column, lowered
/// through the same bitmatrix->GEMM path as every other coding op and
/// cached in the shared PlanCache under a locality-keyed entry), ships
/// the e-unit partial one hop to its failure domain's aggregator, which
/// XORs its domain's partials into one e-unit message before crossing
/// domains to the repair root. GF-linearity makes the result
/// byte-identical to decoding at the root: the recovery matrix product
/// R * S is just a sum of per-column terms, and XOR is that sum.
///
/// Traffic shape (MDS, full-unit helpers): total payload bytes moved are
/// the same k column-terms either way — the win is *where* they move.
/// Cross-domain bytes drop from ~k units to ~(#helper domains) units,
/// repair-root ingress from k units to (#domains) units, and the
/// per-link maximum falls accordingly; the modeled makespan follows the
/// bottleneck stage instead of the root's serialized ingress. E22
/// quantifies all four against the naive fetch.
///
/// Robustness: each attempt is all-or-nothing. A helper that crashes,
/// times out (retry exhaustion), or serves corrupt bytes mid-DAG aborts
/// the attempt; the coordinator re-plans around the dead helper
/// (partials are discarded, so byte-identity is preserved — nothing
/// half-aggregated survives into the next attempt), up to max_replans,
/// then degrades gracefully to the naive k-unit fetch, and only then
/// abandons. Counter identity:
///   attempts_started == attempts_completed + attempts_replanned
///                       + attempts_abandoned.
namespace tvmec::cluster {

struct RepairConfig {
  std::size_t chunk_bytes = 64 * 1024;  ///< pipelining granularity on the wire
  std::size_t max_replans = 2;          ///< DAG re-plans before naive fallback
  std::uint64_t deadline_us = 0;        ///< modeled makespan budget (0 = none)
  bool prefer_domain_local = true;      ///< order survivors root-domain-first
  bool allow_naive_fallback = true;
  /// False skips the DAG entirely and repairs via the naive k-unit star —
  /// the baseline arm of the E22 traffic-shape comparison.
  bool dag_enabled = true;
};

struct RepairStats {
  std::uint64_t attempts_started = 0;
  std::uint64_t attempts_completed = 0;
  std::uint64_t attempts_replanned = 0;  ///< aborted, superseded by a re-plan
  std::uint64_t attempts_abandoned = 0;
  std::uint64_t naive_fallbacks = 0;     ///< completed via the k-unit fetch
  std::uint64_t stripes_repaired = 0;
  std::uint64_t units_repaired = 0;
  std::uint64_t bytes_on_wire = 0;       ///< payload bytes sent during repair
  std::uint64_t cross_domain_bytes = 0;
  std::uint64_t hops = 0;                ///< DAG edges traversed
  std::uint64_t deadline_overruns = 0;
  std::uint64_t makespan_us_total = 0;   ///< summed modeled repair makespan

  bool identity_holds() const noexcept {
    return attempts_started ==
           attempts_completed + attempts_replanned + attempts_abandoned;
  }
};

/// Outcome of one stripe repair, for tests and the bench.
struct RepairReport {
  bool completed = false;
  bool used_naive = false;
  std::size_t units_repaired = 0;
  std::size_t replans = 0;
  std::size_t hops = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t cross_domain_bytes = 0;
  std::uint64_t root_ingress_bytes = 0;
  std::uint64_t max_link_bytes = 0;
  std::uint64_t makespan_us = 0;
};

/// Cheap stripe risk probe for the healer's priority scoring: unit
/// counts only, no payload moved. `erased` counts units that are
/// missing, CRC-stale, or on unusable nodes (the routing view); the
/// stripe's distance from data loss is r - erased (negative when past
/// recovery without a rejoin).
struct StripeHealth {
  bool exists = false;
  std::size_t erased = 0;
  std::size_t survivors = 0;
};

/// The planned DAG for one attempt (exposed for tests/bench).
struct RepairPlan {
  struct Helper {
    std::size_t unit = 0;    ///< survivor unit id this helper contributes
    std::size_t node = 0;
    std::size_t domain = 0;
    std::size_t column = 0;  ///< its column in the recovery matrix
  };
  std::vector<std::size_t> erased;   ///< unit ids being rebuilt
  /// The locality-keyed decode plan; recovery column i belongs to
  /// helpers[i] (survivors ascending).
  std::shared_ptr<const ec::DecodePlan> decode;
  std::vector<Helper> helpers;       ///< the chosen k survivors
  std::vector<std::size_t> domains;  ///< distinct helper domains, in order
  /// Aggregator node per entry of `domains` (a helper in that domain).
  std::vector<std::size_t> aggregators;
  std::size_t root_node = 0;  ///< receives the aggregate, stores the rebuild
  /// DAG edges: helper->aggregator (non-aggregators) + aggregator->root.
  std::size_t hops() const noexcept;
};

class RepairCoordinator {
 public:
  explicit RepairCoordinator(Cluster& cluster, const RepairConfig& config = {});

  const RepairConfig& config() const noexcept { return config_; }
  void set_config(const RepairConfig& config) noexcept { config_ = config; }
  const RepairStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RepairStats{}; }

  /// Repairs every missing/corrupt unit of one stripe. Returns the
  /// report; report.completed == false means the stripe is currently
  /// unrecoverable (abandoned — survivors below k even for naive).
  /// A stripe with nothing to repair returns completed == true with
  /// units_repaired == 0.
  RepairReport repair_stripe(const std::string& name, std::size_t s);

  /// Walks every stripe of every object; repairs what it can. Returns
  /// total units rebuilt.
  std::size_t repair_all();

  /// Assesses one stripe's current damage without repairing it — the
  /// healer's (re-)prioritization hook. exists == false for unknown
  /// object/stripe (e.g. the object was removed while queued).
  StripeHealth stripe_health(const std::string& name, std::size_t s);

  /// Plans (without executing) the DAG the next attempt would run —
  /// test/bench introspection. Returns nullopt when no DAG-viable plan
  /// exists for the stripe's current losses.
  std::optional<RepairPlan> plan_stripe(const std::string& name,
                                        std::size_t s);

 private:
  using Stripe = storage::StripeEngine::Stripe;
  struct StripeDamage {
    std::vector<std::size_t> erased;     ///< missing or corrupt, ascending
    std::vector<std::size_t> survivors;  ///< readable-in-principle unit ids
  };

  /// Probes stripe metadata for losses (node down, unit absent, CRC
  /// stale) without moving payload bytes.
  StripeDamage assess_stripe(const Stripe& loc);

  /// Picks a live node per erased unit to host the rebuilt data
  /// (prefers the lost unit's domain, never a node already holding a
  /// unit of this stripe). Empty return = no capacity.
  std::vector<std::size_t> pick_replacements(
      const Stripe& loc, const std::vector<std::size_t>& erased);

  std::optional<RepairPlan> build_plan(const Stripe& loc,
                                       const StripeDamage& damage,
                                       const std::vector<bool>& excluded,
                                       std::size_t root_node);

  /// Runs one DAG attempt. Returns true on success; on false,
  /// `failed_node` names the helper to exclude from the re-plan.
  bool execute_attempt(Stripe& loc, const RepairPlan& plan,
                       std::vector<std::vector<std::uint8_t>>& recovered,
                       RepairReport& report, std::size_t* failed_node);

  /// The graceful-degradation path: root fetches k survivor units and
  /// decodes locally. Same verification and accounting.
  bool execute_naive(Stripe& loc, const StripeDamage& damage,
                     std::size_t root_node,
                     std::vector<std::vector<std::uint8_t>>& recovered,
                     RepairReport& report);

  /// Chunked transfer of `bytes` from src to dst with retries; fills
  /// serialized (sum of chunk latencies) for the makespan model.
  bool transfer(std::size_t src, std::size_t dst, std::size_t bytes,
                std::uint64_t salt, std::uint64_t* serialized_us);

  Cluster& cluster_;
  RepairConfig config_;
  RepairStats stats_;
};

}  // namespace tvmec::cluster
