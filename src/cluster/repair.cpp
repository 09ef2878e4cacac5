#include "cluster/repair.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/gemm_coder.h"
#include "storage/crc32c.h"

namespace tvmec::cluster {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace

std::size_t RepairPlan::hops() const noexcept {
  // Every non-aggregator helper sends one hop to its domain aggregator;
  // every aggregator sends one hop to the root. Final distribution to
  // replacement nodes other than the root is accounted at execution.
  return helpers.size();
}

RepairCoordinator::RepairCoordinator(Cluster& cluster,
                                     const RepairConfig& config)
    : cluster_(cluster), config_(config) {}

std::vector<std::size_t> RepairCoordinator::pick_replacements(
    const Stripe& loc, const std::vector<std::size_t>& erased) {
  std::vector<std::size_t> picks;
  std::vector<bool> taken(cluster_.num_nodes(), false);
  for (const std::size_t node : loc.nodes)
    if (node < taken.size()) taken[node] = true;
  for (const std::size_t uid : erased) {
    const std::size_t orig = loc.nodes[uid];
    // A live node with a corrupt copy is rebuilt in place.
    if (cluster_.node_usable(orig)) {
      picks.push_back(orig);
      continue;
    }
    // Otherwise find a spare: prefer the lost unit's failure domain so
    // the placement's domain spread survives the repair.
    const std::size_t want_domain = cluster_.domain_of(orig);
    std::size_t chosen = kNoNode;
    for (std::size_t node = 0; node < cluster_.num_nodes(); ++node) {
      if (taken[node] || !cluster_.node_usable(node)) continue;
      if (cluster_.domain_of(node) == want_domain) {
        chosen = node;
        break;
      }
      if (chosen == kNoNode) chosen = node;
    }
    if (chosen == kNoNode) return {};
    taken[chosen] = true;
    picks.push_back(chosen);
  }
  return picks;
}

std::optional<RepairPlan> RepairCoordinator::build_plan(
    const Stripe& loc, const StripeDamage& damage,
    const std::vector<bool>& excluded, std::size_t root_node) {
  // Survivor preference: the root's domain first, then the remaining
  // survivors grouped by domain — a plan drawn from few domains means
  // few cross-domain aggregate messages.
  const std::size_t root_domain = cluster_.domain_of(root_node);
  std::vector<std::size_t> pref;
  for (const std::size_t uid : damage.survivors) {
    const std::size_t node = loc.nodes[uid];
    if (!cluster_.node_usable(node) || excluded[node]) continue;
    pref.push_back(uid);
  }
  if (pref.size() < cluster_.params().k) return std::nullopt;
  if (config_.prefer_domain_local) {
    std::stable_sort(pref.begin(), pref.end(),
                     [&](std::size_t a, std::size_t b) {
                       const std::size_t da =
                           cluster_.domain_of(loc.nodes[a]);
                       const std::size_t db =
                           cluster_.domain_of(loc.nodes[b]);
                       if ((da == root_domain) != (db == root_domain))
                         return da == root_domain;
                       return da < db;
                     });
  }

  // The locality dimension of the cache key: same loss pattern, different
  // survivor preference (placement/exclusions) => different plan entry.
  std::uint64_t locality = root_domain + 1;
  for (const std::size_t uid : pref)
    locality = storage::FaultInjector::key(locality, uid + 1);

  const gf::Matrix& generator = cluster_.codec().code().generator();
  std::shared_ptr<const ec::DecodePlan> plan;
  if (cluster_.plan_cache() != nullptr) {
    core::PlanKey key{cluster_.params().k,
                      cluster_.params().r,
                      cluster_.params().w,
                      cluster_.codec().code().family(),
                      false,
                      damage.erased,
                      locality};
    plan = cluster_.plan_cache()->get_or_build(key, [&]() {
      return ec::make_decode_plan_with_survivors(generator, damage.erased,
                                                 pref);
    });
  } else {
    auto built =
        ec::make_decode_plan_with_survivors(generator, damage.erased, pref);
    if (built)
      plan = std::make_shared<const ec::DecodePlan>(std::move(*built));
  }
  if (plan == nullptr) return std::nullopt;

  RepairPlan out;
  out.erased = damage.erased;
  out.decode = plan;
  out.root_node = root_node;
  for (std::size_t i = 0; i < plan->survivors.size(); ++i) {
    const std::size_t uid = plan->survivors[i];
    const std::size_t node = loc.nodes[uid];
    out.helpers.push_back({uid, node, cluster_.domain_of(node), i});
  }
  for (const auto& h : out.helpers) {
    const auto it =
        std::find(out.domains.begin(), out.domains.end(), h.domain);
    if (it == out.domains.end()) {
      out.domains.push_back(h.domain);
      out.aggregators.push_back(h.node);
    }
  }
  return out;
}

bool RepairCoordinator::transfer(std::size_t src, std::size_t dst,
                                 std::size_t bytes, std::uint64_t salt,
                                 std::uint64_t* serialized_us) {
  const std::size_t chunk = std::max<std::size_t>(1, config_.chunk_bytes);
  std::size_t off = 0;
  std::size_t index = 0;
  while (off < bytes) {
    const std::size_t take = std::min(chunk, bytes - off);
    const std::uint64_t chunk_salt = storage::FaultInjector::key(salt, index);
    const bool ok = cluster_.engine_.retry(chunk_salt, [&]() {
      const SendResult r = cluster_.net().send(src, dst, take);
      *serialized_us += r.latency_us;
      return r.delivered ? storage::Attempt::Success : storage::Attempt::Retry;
    });
    if (!ok) return false;
    off += take;
    ++index;
  }
  return true;
}

bool RepairCoordinator::execute_attempt(
    Stripe& loc, const RepairPlan& plan,
    std::vector<std::vector<std::uint8_t>>& recovered, RepairReport& report,
    std::size_t* failed_node) {
  *failed_node = kNoNode;
  const std::size_t e = plan.erased.size();
  const std::size_t unit = cluster_.unit_size();
  const gf::Matrix& recovery = plan.decode->recovery;
  const std::uint64_t root_in_before =
      cluster_.net().ingress_bytes(plan.root_node);

  // One e-unit aggregate buffer per helper domain, XOR-accumulated.
  std::vector<std::vector<std::uint8_t>> agg(
      plan.domains.size(), std::vector<std::uint8_t>(e * unit, 0));
  std::vector<std::uint64_t> agg_ingress_us(plan.domains.size(), 0);

  std::vector<std::uint8_t> unit_buf(unit);
  std::vector<std::uint8_t> partial(e * unit);
  for (const auto& helper : plan.helpers) {
    // Local read at the helper (disk faults + CRC, retried).
    if (cluster_.engine_.read_unit(loc, helper.unit, unit_buf.data()) !=
        storage::UnitRead::Ok) {
      *failed_node = helper.node;
      return false;
    }
    // The helper's slice of the recovery matrix: an e x 1 coefficient
    // column, lowered through the same bitmatrix->GEMM path as every
    // other coding op and applied zero-copy to its local unit.
    gf::Matrix column(recovery.field(), e, 1);
    for (std::size_t i = 0; i < e; ++i)
      column.set(i, 0, recovery.at(i, helper.column));
    core::GemmCoder coder(column);
    const std::uint8_t* in_ptr = unit_buf.data();
    std::vector<std::uint8_t*> out_ptrs(e);
    for (std::size_t i = 0; i < e; ++i) out_ptrs[i] = partial.data() + i * unit;
    const core::ScatteredCoderItem item{{&in_ptr, 1}, out_ptrs, unit};
    coder.apply_scattered({&item, 1});

    const std::size_t d = static_cast<std::size_t>(
        std::find(plan.domains.begin(), plan.domains.end(), helper.domain) -
        plan.domains.begin());
    if (helper.node != plan.aggregators[d]) {
      // Ship the partial one (intra-domain) hop. Duplicate deliveries
      // are idempotent: the aggregator folds each helper's partial in
      // exactly once, however many copies arrive.
      std::uint64_t ser = 0;
      if (!transfer(
              helper.node, plan.aggregators[d], e * unit,
              storage::FaultInjector::key(loc.name, loc.index, helper.unit),
              &ser)) {
        *failed_node = helper.node;
        return false;
      }
      agg_ingress_us[d] += ser;
      ++report.hops;
    }
    xor_into(agg[d].data(), partial.data(), e * unit);
  }

  // Cross-domain stage: each domain aggregate crosses to the root, whose
  // ingress link serializes the arrivals.
  std::vector<std::uint8_t> total(e * unit, 0);
  std::uint64_t root_ingress_us = 0;
  for (std::size_t d = 0; d < plan.domains.size(); ++d) {
    std::uint64_t ser = 0;
    if (!transfer(plan.aggregators[d], plan.root_node, e * unit,
                  storage::FaultInjector::key(loc.name, loc.index, 500 + d),
                  &ser)) {
      *failed_node = plan.aggregators[d];
      return false;
    }
    root_ingress_us += ser;
    ++report.hops;
    xor_into(total.data(), agg[d].data(), e * unit);
  }

  // Pipelined makespan: intra-domain aggregation overlaps the root's
  // ingress chunk by chunk, so the modeled wall-clock follows the
  // bottleneck stage plus a pipeline fill (see DESIGN.md).
  const std::uint64_t stage1 =
      agg_ingress_us.empty()
          ? 0
          : *std::max_element(agg_ingress_us.begin(), agg_ingress_us.end());
  std::uint64_t makespan = std::max(stage1, root_ingress_us) +
                           2 * cluster_.net().config().base_latency_us;

  // GF-linearity delivered the decode: total == recovery * survivors,
  // byte-identical to decoding at the root. Verify against the metadata
  // checksums before anything is persisted.
  recovered.assign(e, std::vector<std::uint8_t>(unit));
  for (std::size_t i = 0; i < e; ++i) {
    std::memcpy(recovered[i].data(), total.data() + i * unit, unit);
    if (storage::crc32c(recovered[i]) != loc.unit_crcs[plan.erased[i]]) {
      *failed_node = kNoNode;  // nothing to exclude; re-plan retries clean
      return false;
    }
  }
  report.makespan_us += makespan;
  report.root_ingress_bytes +=
      cluster_.net().ingress_bytes(plan.root_node) - root_in_before;
  return true;
}

bool RepairCoordinator::execute_naive(
    Stripe& loc, const StripeDamage& damage, std::size_t root_node,
    std::vector<std::vector<std::uint8_t>>& recovered, RepairReport& report) {
  const std::size_t k = cluster_.params().k;
  const std::size_t unit = cluster_.unit_size();
  const std::uint64_t root_in_before = cluster_.net().ingress_bytes(root_node);

  // Haul whole survivor units to the root until k are in hand. The
  // root's ingress link serializes every transfer — the star-topology
  // cost the DAG exists to avoid.
  std::vector<std::size_t> fetched_ids;
  std::vector<std::vector<std::uint8_t>> fetched;
  std::uint64_t root_ingress_us = 0;
  for (const std::size_t uid : damage.survivors) {
    if (fetched_ids.size() == k) break;
    std::vector<std::uint8_t> buf(unit);
    if (cluster_.engine_.read_unit(loc, uid, buf.data()) !=
        storage::UnitRead::Ok)
      continue;
    std::uint64_t ser = 0;
    if (!transfer(loc.nodes[uid], root_node, unit,
                  storage::FaultInjector::key(loc.name, loc.index, 2000 + uid),
                  &ser))
      continue;
    root_ingress_us += ser;
    ++report.hops;
    fetched_ids.push_back(uid);
    fetched.push_back(std::move(buf));
  }
  if (fetched_ids.size() < k) return false;

  // Decode only the erased units, from exactly the fetched survivors.
  const auto plan = ec::make_decode_plan_with_survivors(
      cluster_.codec().code().generator(), damage.erased, fetched_ids);
  if (!plan) return false;

  const std::size_t e = damage.erased.size();
  std::vector<const std::uint8_t*> in_ptrs;
  for (const std::size_t uid : plan->survivors) {
    const auto it = std::find(fetched_ids.begin(), fetched_ids.end(), uid);
    in_ptrs.push_back(
        fetched[static_cast<std::size_t>(it - fetched_ids.begin())].data());
  }
  recovered.assign(e, std::vector<std::uint8_t>(unit));
  std::vector<std::uint8_t*> out_ptrs(e);
  for (std::size_t i = 0; i < e; ++i) out_ptrs[i] = recovered[i].data();
  core::GemmCoder coder(plan->recovery);
  const core::ScatteredCoderItem item{in_ptrs, out_ptrs, unit};
  coder.apply_scattered({&item, 1});

  for (std::size_t i = 0; i < e; ++i)
    if (storage::crc32c(recovered[i]) != loc.unit_crcs[damage.erased[i]])
      return false;
  report.makespan_us += root_ingress_us +
                        2 * cluster_.net().config().base_latency_us;
  report.root_ingress_bytes +=
      cluster_.net().ingress_bytes(root_node) - root_in_before;
  return true;
}

RepairReport RepairCoordinator::repair_stripe(const std::string& name,
                                              std::size_t s) {
  Stripe* found = cluster_.engine_.find_stripe(name, s);
  if (found == nullptr)
    throw std::invalid_argument(
        "RepairCoordinator::repair_stripe: unknown object/stripe");
  Stripe& loc = *found;

  RepairReport report;
  StripeDamage damage = assess_stripe(loc);
  if (damage.erased.empty()) {
    report.completed = true;
    return report;
  }

  const NetStats net_before = cluster_.net().stats();
  const auto links_before = cluster_.net().link_bytes_map();

  // Persists `recovered` (CRC-verified) onto the replacement nodes,
  // shipping each unit root -> replacement when they differ; updates
  // placement metadata. Returns false when a replacement dies receiving
  // its unit (the outer loop then re-plans — re-assessment drops any
  // units already persisted).
  const auto store_recovered =
      [&](const std::vector<std::size_t>& erased,
          const std::vector<std::size_t>& replacements, std::size_t root,
          std::vector<std::vector<std::uint8_t>>& recovered) {
        for (std::size_t i = 0; i < erased.size(); ++i) {
          const std::size_t uid = erased[i];
          const std::size_t target = replacements[i];
          if (target != root) {
            std::uint64_t ser = 0;
            if (!transfer(root, target, cluster_.unit_size(),
                          storage::FaultInjector::key(name, s, 3000 + uid),
                          &ser))
              return false;
            ++report.hops;
            report.makespan_us += ser;
          }
          // Re-place the unit on its replacement, persisted through the
          // engine (write faults apply; no client hop — it arrived above).
          const std::size_t prev = loc.nodes[uid];
          loc.nodes[uid] = target;
          if (!cluster_.engine_.store_unit(loc, uid, recovered[i].data())) {
            loc.nodes[uid] = prev;
            return false;
          }
          ++report.units_repaired;
          ++stats_.units_repaired;
          ++cluster_.stats_.units_repaired;
        }
        return true;
      };

  std::vector<bool> excluded(cluster_.num_nodes(), false);
  std::size_t replans = 0;
  bool completed = false;
  bool any_attempt = false;

  while (config_.dag_enabled) {
    damage = assess_stripe(loc);
    if (damage.erased.empty()) {
      // A re-planned pass found earlier partial stores finished the job.
      completed = true;
      break;
    }
    const auto replacements = pick_replacements(loc, damage.erased);
    if (damage.survivors.size() < cluster_.params().k ||
        replacements.empty())
      break;  // not DAG-viable; naive can't help either -> abandon below

    const auto plan =
        build_plan(loc, damage, excluded, replacements[0]);
    if (!plan) break;  // constrained survivors lack rank -> naive

    ++stats_.attempts_started;
    any_attempt = true;
    std::size_t failed_node = kNoNode;
    std::vector<std::vector<std::uint8_t>> recovered;
    if (execute_attempt(loc, *plan, recovered, report,
                        &failed_node) &&
        store_recovered(damage.erased, replacements, plan->root_node,
                        recovered)) {
      ++stats_.attempts_completed;
      completed = true;
      break;
    }
    // Mid-DAG failure: discard partials (nothing half-aggregated
    // survives), exclude the dead helper, re-plan.
    if (failed_node != kNoNode) excluded[failed_node] = true;
    ++report.replans;
    if (replans < config_.max_replans) {
      ++stats_.attempts_replanned;
      ++replans;
      continue;
    }
    // Out of re-plan budget: this attempt is superseded by the naive
    // plan (still a re-plan for the identity) — or abandoned outright.
    if (config_.allow_naive_fallback) {
      ++stats_.attempts_replanned;
    } else {
      ++stats_.attempts_abandoned;
    }
    break;
  }

  if (!completed && config_.allow_naive_fallback) {
    damage = assess_stripe(loc);
    if (damage.erased.empty()) {
      completed = true;
    } else {
      const auto replacements = pick_replacements(loc, damage.erased);
      if (!replacements.empty() &&
          damage.survivors.size() >= cluster_.params().k) {
        ++stats_.attempts_started;
        any_attempt = true;
        std::vector<std::vector<std::uint8_t>> recovered;
        if (execute_naive(loc, damage, replacements[0], recovered,
                          report) &&
            store_recovered(damage.erased, replacements, replacements[0],
                            recovered)) {
          ++stats_.attempts_completed;
          ++stats_.naive_fallbacks;
          report.used_naive = true;
          completed = true;
        } else {
          ++stats_.attempts_abandoned;
        }
      }
    }
  }
  if (!completed && !any_attempt) {
    // A damaged stripe we could not even plan for: account it so every
    // repair request shows up in the identity.
    ++stats_.attempts_started;
    ++stats_.attempts_abandoned;
  }

  const NetStats net_after = cluster_.net().stats();
  report.bytes_on_wire = net_after.bytes_sent - net_before.bytes_sent;
  report.cross_domain_bytes =
      net_after.cross_domain_bytes - net_before.cross_domain_bytes;
  std::uint64_t max_link = 0;
  for (const auto& [link, bytes] : cluster_.net().link_bytes_map()) {
    const auto it = links_before.find(link);
    const std::uint64_t before = it == links_before.end() ? 0 : it->second;
    max_link = std::max(max_link, bytes - before);
  }
  report.max_link_bytes = max_link;
  stats_.bytes_on_wire += report.bytes_on_wire;
  stats_.cross_domain_bytes += report.cross_domain_bytes;
  stats_.hops += report.hops;
  stats_.makespan_us_total += report.makespan_us;
  if (config_.deadline_us > 0 && report.makespan_us > config_.deadline_us)
    ++stats_.deadline_overruns;

  report.completed = completed;
  if (completed && report.units_repaired > 0) ++stats_.stripes_repaired;
  return report;
}

std::size_t RepairCoordinator::repair_all() {
  std::size_t units = 0;
  for (const auto& [key, st] : cluster_.engine_.stripes())
    units += repair_stripe(key.first, key.second).units_repaired;
  return units;
}

StripeHealth RepairCoordinator::stripe_health(const std::string& name,
                                              std::size_t s) {
  StripeHealth h;
  const Stripe* loc = cluster_.engine_.find_stripe(name, s);
  if (loc == nullptr) return h;
  h.exists = true;
  const StripeDamage damage = assess_stripe(*loc);
  h.erased = damage.erased.size();
  h.survivors = damage.survivors.size();
  return h;
}

std::optional<RepairPlan> RepairCoordinator::plan_stripe(
    const std::string& name, std::size_t s) {
  const Stripe* found = cluster_.engine_.find_stripe(name, s);
  if (found == nullptr) return std::nullopt;
  const Stripe& loc = *found;
  const StripeDamage damage = assess_stripe(loc);
  if (damage.erased.empty() ||
      damage.survivors.size() < cluster_.params().k)
    return std::nullopt;
  const auto replacements = pick_replacements(loc, damage.erased);
  if (replacements.empty()) return std::nullopt;
  const std::vector<bool> excluded(cluster_.num_nodes(), false);
  return build_plan(loc, damage, excluded, replacements[0]);
}

RepairCoordinator::StripeDamage RepairCoordinator::assess_stripe(
    const Stripe& loc) {
  StripeDamage damage;
  for (std::size_t u = 0; u < loc.nodes.size(); ++u) {
    // Unusable node, absent unit, or stale CRC; re-assessment is not a
    // new detection, so corruption is not counted here.
    const bool bad = cluster_.engine_.probe_unit(loc, u, false) !=
                     storage::UnitRead::Ok;
    (bad ? damage.erased : damage.survivors).push_back(u);
  }
  return damage;
}

}  // namespace tvmec::cluster
