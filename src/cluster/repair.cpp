#include "cluster/repair.h"

#include <algorithm>
#include <stdexcept>

#include "core/gemm_coder.h"
#include "storage/crc32c.h"

namespace tvmec::cluster {

namespace {

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
/// Pipelining granularity of every repair transfer on the wire.
constexpr std::size_t kChunkBytes = 64 * 1024;

}  // namespace

std::size_t RepairPlan::hops() const noexcept {
  // Every non-aggregator helper sends one hop to its domain aggregator;
  // every aggregator sends one hop to the root. Final distribution to
  // replacement nodes other than the root is accounted at execution.
  return helpers.size();
}

RepairCoordinator::RepairCoordinator(Cluster& cluster,
                                     const RepairConfig& config)
    : cluster_(cluster),
      config_(config),
      slots_(cluster.params().n() * cluster.unit_size()) {}

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
  std::stable_sort(pref.begin(), pref.end(),
                   [&](std::size_t a, std::size_t b) {
                     const std::size_t da = cluster_.domain_of(loc.nodes[a]);
                     const std::size_t db = cluster_.domain_of(loc.nodes[b]);
                     if ((da == root_domain) != (db == root_domain))
                       return da == root_domain;
                     return da < db;
                   });

  // Keyed by the preference list itself: same loss pattern, different
  // placement or exclusions => a different plan entry.
  const auto plan = cluster_.codec().plan(damage.erased, pref);
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
  std::size_t off = 0;
  std::size_t index = 0;
  while (off < bytes) {
    const std::size_t take = std::min(kChunkBytes, bytes - off);
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

bool RepairCoordinator::execute_attempt(Stripe& loc, const RepairPlan& plan,
                                        RepairReport& report,
                                        std::size_t* failed_node) {
  *failed_node = kNoNode;
  const std::size_t msg = plan.erased.size() * cluster_.unit_size();
  const std::uint64_t root_in_before =
      cluster_.net().ingress_bytes(plan.root_node);

  std::vector<std::uint64_t> agg_ingress_us(plan.domains.size(), 0);
  for (const auto& helper : plan.helpers) {
    // Local read at the helper (disk faults + CRC, retried).
    if (cluster_.engine_.read_unit(loc, helper.unit,
                                   slot(helper.column)) !=
        storage::UnitRead::Ok) {
      *failed_node = helper.node;
      return false;
    }
    const std::size_t d = static_cast<std::size_t>(
        std::find(plan.domains.begin(), plan.domains.end(), helper.domain) -
        plan.domains.begin());
    if (helper.node != plan.aggregators[d]) {
      // Ship the e-unit partial one (intra-domain) hop. Duplicate
      // deliveries are idempotent: the aggregator folds each helper's
      // partial in exactly once, however many copies arrive.
      std::uint64_t ser = 0;
      if (!transfer(
              helper.node, plan.aggregators[d], msg,
              storage::FaultInjector::key(loc.name, loc.index, helper.unit),
              &ser)) {
        *failed_node = helper.node;
        return false;
      }
      agg_ingress_us[d] += ser;
      ++report.hops;
    }
  }

  // Cross-domain stage: each domain aggregate crosses to the root, whose
  // ingress link serializes the arrivals.
  std::uint64_t root_ingress_us = 0;
  for (std::size_t d = 0; d < plan.domains.size(); ++d) {
    std::uint64_t ser = 0;
    if (!transfer(plan.aggregators[d], plan.root_node, msg,
                  storage::FaultInjector::key(loc.name, loc.index, 500 + d),
                  &ser)) {
      *failed_node = plan.aggregators[d];
      return false;
    }
    root_ingress_us += ser;
    ++report.hops;
  }

  // Pipelined makespan: intra-domain aggregation overlaps the root's
  // ingress chunk by chunk, so the modeled wall-clock follows the
  // bottleneck stage plus a pipeline fill (see DESIGN.md).
  const std::uint64_t stage1 =
      agg_ingress_us.empty()
          ? 0
          : *std::max_element(agg_ingress_us.begin(), agg_ingress_us.end());
  const std::uint64_t makespan = std::max(stage1, root_ingress_us) +
                                 2 * cluster_.net().config().base_latency_us;

  // The sum of the helpers' partials, computed once: by GF-linearity it
  // is the root decode itself.
  if (!decode_verified(loc, *plan.decode))
    return false;  // nothing to exclude; re-plan retries clean
  report.makespan_us += makespan;
  report.root_ingress_bytes +=
      cluster_.net().ingress_bytes(plan.root_node) - root_in_before;
  return true;
}

bool RepairCoordinator::execute_naive(Stripe& loc, const StripeDamage& damage,
                                      std::size_t root_node,
                                      RepairReport& report) {
  const std::size_t k = cluster_.params().k;
  const std::size_t unit = cluster_.unit_size();
  const std::uint64_t root_in_before = cluster_.net().ingress_bytes(root_node);

  // Haul whole survivor units to the root until k are in hand. The
  // root's ingress link serializes every transfer — the star-topology
  // cost the DAG exists to avoid.
  std::vector<std::size_t> fetched;  // unit id in each filled slot
  std::uint64_t root_ingress_us = 0;
  for (const std::size_t uid : damage.survivors) {
    if (fetched.size() == k) break;
    if (cluster_.engine_.read_unit(loc, uid, slot(fetched.size())) !=
        storage::UnitRead::Ok)
      continue;
    std::uint64_t ser = 0;
    if (!transfer(loc.nodes[uid], root_node, unit,
                  storage::FaultInjector::key(loc.name, loc.index, 2000 + uid),
                  &ser))
      continue;
    root_ingress_us += ser;
    ++report.hops;
    fetched.push_back(uid);
  }
  if (fetched.size() < k) return false;

  // Decode only the erased units, from exactly the fetched survivors
  // (an MDS plan reads all k, so slot j holds plan->survivors[j]).
  const auto plan = cluster_.codec().plan(damage.erased, fetched);
  if (!plan || plan->survivors != fetched || !decode_verified(loc, *plan))
    return false;
  report.makespan_us += root_ingress_us +
                        2 * cluster_.net().config().base_latency_us;
  report.root_ingress_bytes +=
      cluster_.net().ingress_bytes(root_node) - root_in_before;
  return true;
}

bool RepairCoordinator::decode_verified(const Stripe& loc,
                                        const ec::DecodePlan& plan) {
  const std::size_t unit = cluster_.unit_size();
  const std::size_t k = cluster_.params().k;
  std::vector<const std::uint8_t*> in;
  for (std::size_t j = 0; j < plan.survivors.size(); ++j)
    in.push_back(slot(j));
  std::vector<std::uint8_t*> out;
  for (std::size_t i = 0; i < plan.erased.size(); ++i)
    out.push_back(slot(k + i));
  const core::ScatteredCoderItem item{in, out, unit};
  core::GemmCoder(plan.recovery).apply_scattered({&item, 1});
  // Verify against the metadata checksums before anything is persisted.
  for (std::size_t i = 0; i < plan.erased.size(); ++i)
    if (storage::crc32c({out[i], unit}) != loc.unit_crcs[plan.erased[i]])
      return false;
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

  // Persists the rebuilt units (CRC-verified) onto the replacement
  // nodes, shipping each unit root -> replacement when they differ;
  // updates placement metadata. Returns false when a replacement dies
  // receiving its unit (the outer loop then re-plans — re-assessment
  // drops any units already persisted).
  const auto store_recovered =
      [&](const std::vector<std::size_t>& erased,
          const std::vector<std::size_t>& replacements, std::size_t root) {
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
          if (!cluster_.engine_.store_unit(loc, uid,
                                           slot(cluster_.params().k + i))) {
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
  // `damage` is the last assessment. An attempt may change the stripe (a
  // partial store, a crashed helper), so the step after one re-assesses.
  bool stale = false;
  const auto damaged = [&] {
    if (stale) damage = assess_stripe(loc);
    stale = false;
    return !damage.erased.empty();
  };

  while (config_.dag_enabled) {
    if (!damaged()) {
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
    stale = true;
    std::size_t failed_node = kNoNode;
    if (execute_attempt(loc, *plan, report, &failed_node) &&
        store_recovered(damage.erased, replacements, plan->root_node)) {
      ++stats_.attempts_completed;
      completed = true;
      break;
    }
    // Mid-DAG failure: discard the attempt's reads (the next attempt
    // refills every slot it uses), exclude the dead helper, re-plan.
    if (failed_node != kNoNode) excluded[failed_node] = true;
    ++report.replans;
    if (replans < config_.max_replans) {
      ++stats_.attempts_replanned;
      ++replans;
      continue;
    }
    // Out of re-plan budget: this attempt is superseded by the naive
    // plan (still a re-plan for the identity).
    ++stats_.attempts_replanned;
    break;
  }

  if (!completed) {
    if (!damaged()) {
      completed = true;
    } else {
      const auto replacements = pick_replacements(loc, damage.erased);
      if (!replacements.empty() &&
          damage.survivors.size() >= cluster_.params().k) {
        ++stats_.attempts_started;
        any_attempt = true;
        if (execute_naive(loc, damage, replacements[0], report) &&
            store_recovered(damage.erased, replacements, replacements[0])) {
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
