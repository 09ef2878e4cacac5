#include "cluster/cluster.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "cluster/membership.h"
#include "cluster/repair.h"

namespace tvmec::cluster {

const char* to_string(DamageKind k) noexcept {
  switch (k) {
    case DamageKind::MissedHeartbeats:
      return "missed-heartbeats";
    case DamageKind::ReadCorruption:
      return "read-corruption";
    case DamageKind::WriteFailure:
      return "write-failure";
    case DamageKind::ScrubFinding:
      return "scrub-finding";
    case DamageKind::Revive:
      return "revive";
    case DamageKind::Rejoin:
      return "rejoin";
    case DamageKind::Requeue:
      return "requeue";
  }
  return "?";
}

Cluster::Cluster(const ec::CodeParams& params, std::size_t unit_size,
                 const ClusterConfig& config)
    : StripeLayout(params, unit_size, config.num_nodes, this),
      config_(config),
      net_(config.num_nodes, config.num_domains, config.net, config.seed),
      ewma_(config.num_nodes) {
  if (config.num_nodes < params.n())
    throw std::invalid_argument(
        "Cluster: need at least k + r nodes for distinct placement");
  engine_.set_retry_policy(config.retry);
  repairer_ = std::make_unique<RepairCoordinator>(*this);
}

Cluster::~Cluster() = default;

const ClusterStats& Cluster::stats() const noexcept {
  stats_.corruptions_detected = engine_.stats().corruptions_detected;
  stats_.failed_nodes = engine_.stats().failed_nodes;
  return stats_;
}

void Cluster::set_repair_config(const RepairConfig& config) {
  repairer_->set_config(config);
}

const RepairStats& Cluster::repair_stats() const {
  return repairer_->stats();
}

bool Cluster::carry(std::size_t node, bool to_node,
                    std::uint64_t& latency_us) {
  const SendResult r = to_node
                           ? net_.send(net_.client(), node, unit_size())
                           : net_.send(node, net_.client(), unit_size());
  latency_us += r.latency_us;
  return r.delivered;
}

void Cluster::put(const std::string& name,
                  std::span<const std::uint8_t> bytes) {
  remove(name);
  const std::size_t n = params().n();
  const std::size_t unit = unit_size();
  const std::size_t stripe_data = params().k * unit;
  const std::size_t num_stripes = engine_.stripe_count(bytes.size());

  std::vector<std::uint8_t> stripe(n * unit);
  std::vector<std::size_t> failed_stripes;
  for (std::size_t s = 0; s < num_stripes; ++s) {
    // Place this stripe's n units on consecutive nodes from a rotating
    // start: with domain_of(i) == i % D, consecutive node ids round-robin
    // the failure domains, so the stripe spreads over min(n, D) domains.
    std::vector<std::size_t> nodes(n);
    const std::size_t start = next_rotation_++;
    for (std::size_t u = 0; u < n; ++u) nodes[u] = (start + u) % num_nodes();

    const std::size_t off = s * stripe_data;
    const std::size_t take = std::min(stripe_data, bytes.size() - off);
    std::memcpy(stripe.data(), bytes.data() + off, take);
    std::memset(stripe.data() + take, 0, stripe_data - take);
    engine_.encode(stripe.data());

    // Each unit ships client -> node over the network, then persists.
    Stripe& st = engine_.add_stripe(name, s, std::move(nodes));
    bool stripe_ok = true;
    for (std::size_t u = 0; u < n; ++u) {
      std::uint64_t latency = 0;
      stripe_ok &= engine_.store_unit(st, u, stripe.data() + u * unit,
                                      &latency);
      stats_.write_virtual_us += latency;
      net_.advance(latency);
    }
    if (!stripe_ok) failed_stripes.push_back(s);
    ++stats_.stripes_written;
  }
  objects_[name] = bytes.size();
  stats_.objects = objects_.size();
  // Write failures become damage events only once the object metadata is
  // registered — the healer re-assesses the stripe through objects_.
  for (const std::size_t s : failed_stripes)
    report_damage(DamageKind::WriteFailure, name, s);
  foreground_bytes_ += bytes.size();
}

std::optional<std::vector<std::uint8_t>> Cluster::get(
    const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  const std::size_t size = it->second;
  std::vector<std::uint8_t> out;
  out.reserve(size);
  const std::size_t stripe_data = params().k * unit_size();
  for (std::size_t s = 0; s < engine_.stripe_count(size); ++s) {
    const auto stripe = read_stripe(name, s);
    const std::size_t take = std::min(stripe_data, size - out.size());
    out.insert(out.end(), stripe.data(), stripe.data() + take);
  }
  foreground_bytes_ += out.size();
  return out;
}

bool Cluster::exists(const std::string& name) const {
  return objects_.contains(name);
}

void Cluster::remove(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return;
  for (std::size_t s = 0; s < engine_.stripe_count(it->second); ++s)
    engine_.remove_stripe(name, s);
  objects_.erase(it);
  stats_.objects = objects_.size();
}

void Cluster::fail_node(std::size_t node) {
  if (node >= num_nodes())
    throw std::invalid_argument("Cluster: node out of range");
  engine_.fail_node(node);
}

void Cluster::revive_node(std::size_t node) {
  if (node >= num_nodes())
    throw std::invalid_argument("Cluster: node out of range");
  // The engine clears injector crash state even when the failure never
  // reached its bookkeeping (a crash observed by no op yet). The node
  // rejoins empty: everything it held is re-replication debt. Report
  // each affected stripe once; the healer re-assesses, so stripes repair
  // already re-placed elsewhere resolve as clean.
  const auto lost = engine_.revive_node(node);
  stats_.units_lost_on_revive += lost.size();
  std::set<std::pair<std::string, std::size_t>> seen;
  for (const auto& [name, s, u] : lost)
    if (seen.emplace(name, s).second)
      report_damage(DamageKind::Revive, name, s);
}

bool Cluster::node_failed(std::size_t node) const {
  const storage::FaultInjector* injector = fault_injector();
  return node < num_nodes() &&
         (engine_.node_failed(node) ||
          (injector != nullptr && injector->crashed(node)));
}

bool Cluster::node_usable(std::size_t node) const {
  if (node >= num_nodes()) return false;
  if (engine_.node_failed(node)) return false;  // locally observed death
  // With a failure detector attached its verdict replaces the omniscient
  // injector peek; undetected crashes are discovered the honest way, by
  // an op failing against the node.
  if (membership_ != nullptr) return membership_->routable(node);
  return !node_failed(node);
}

std::vector<std::pair<std::string, std::size_t>> Cluster::stripes_on_node(
    std::size_t node) const {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const auto& [key, st] : engine_.stripes())
    if (std::find(st.nodes.begin(), st.nodes.end(), node) != st.nodes.end())
      out.push_back(key);
  return out;
}

void Cluster::report_damage(DamageKind kind, const std::string& name,
                            std::size_t stripe) {
  if (damage_sink_ == nullptr) return;
  ++stats_.damage_events;
  damage_sink_->report_damage(kind, name, stripe);
}

const std::vector<std::size_t>& Cluster::placement(const std::string& name,
                                                   std::size_t s) const {
  const auto it = engine_.stripes().find({name, s});
  if (it == engine_.stripes().end())
    throw std::invalid_argument("Cluster::placement: unknown object/stripe");
  return it->second.nodes;
}

std::size_t Cluster::object_stripe_count(const std::string& name) const {
  const auto it = objects_.find(name);
  return it == objects_.end() ? 0 : engine_.stripe_count(it->second);
}

std::vector<std::string> Cluster::object_names() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, size] : objects_) names.push_back(name);
  return names;
}

bool Cluster::corrupt_unit(const std::string& name, std::size_t stripe,
                           std::size_t unit) {
  Stripe* st = engine_.find_stripe(name, stripe);
  return st != nullptr && unit < params().n() &&
         engine_.corrupt_unit(*st, unit);
}

std::size_t Cluster::repair() { return repairer_->repair_all(); }

std::size_t Cluster::scrub() {
  std::size_t bad_units = 0;
  for (const auto& [key, st] : engine_.stripes()) {
    // Node-local integrity pass: CRC every stored copy against the
    // metadata checksum; no payload bytes cross the network here.
    std::size_t bad = 0;
    for (std::size_t u = 0; u < st.nodes.size(); ++u)
      bad += engine_.probe_unit(st, u) != storage::UnitRead::Ok ? 1 : 0;
    if (bad == 0) continue;
    bad_units += bad;
    // With a healer attached the finding joins the risk-prioritized
    // queue; the legacy inline repair remains the sink-less path.
    if (damage_sink_ != nullptr)
      report_damage(DamageKind::ScrubFinding, key.first, key.second);
    else
      repairer_->repair_stripe(key.first, key.second);
  }
  return bad_units;
}

double Cluster::node_ewma_us(std::size_t node) const {
  return node < ewma_.size() ? ewma_[node].value : 0.0;
}

void Cluster::update_ewma(std::size_t node, std::uint64_t latency_us) {
  Ewma& e = ewma_[node];
  const double sample = static_cast<double>(latency_us);
  e.value = e.samples == 0
                ? sample
                : config_.hedge.ewma_alpha * sample +
                      (1.0 - config_.hedge.ewma_alpha) * e.value;
  ++e.samples;
}

std::vector<std::uint8_t> Cluster::read_stripe(const std::string& name,
                                               std::size_t s) {
  const std::size_t k = params().k;
  const std::size_t n = params().n();
  const std::size_t unit = unit_size();
  Stripe& st = *engine_.find_stripe(name, s);
  std::vector<std::uint8_t> stripe(n * unit);
  std::vector<bool> have(n, false);
  std::vector<std::size_t> erased;
  std::uint64_t stripe_latency = 0;
  const HedgeConfig& hedge = config_.hedge;
  // One RPC: the unit read on its node plus the response hop, straight
  // into the stripe buffer.
  const auto fetch = [&](std::size_t u, std::uint64_t* latency) {
    return engine_.read_unit(st, u, stripe.data() + u * unit, latency) ==
           storage::UnitRead::Ok;
  };

  // Fan out the k data-unit reads (modeled as parallel: the stripe's
  // latency is the slowest unit's effective latency).
  for (std::size_t u = 0; u < k; ++u) {
    std::uint64_t latency = 0;
    if (!fetch(u, &latency)) {
      erased.push_back(u);
      continue;
    }
    have[u] = true;
    std::uint64_t effective = latency;
    const std::size_t node = st.nodes[u];
    const Ewma ewma_before = ewma_[node];
    update_ewma(node, latency);
    // Hedge: the straggler blew its EWMA budget, so a second request
    // for a parity unit was (virtually) issued at the budget mark. The
    // recovered bytes are identical either way — both paths verify the
    // same metadata CRC — only the modeled completion time differs.
    if (hedge.enabled && ewma_before.samples >= hedge.min_samples) {
      const auto budget = static_cast<std::uint64_t>(hedge.multiplier *
                                                     ewma_before.value);
      if (latency > budget) {
        for (std::size_t p = k; p < n; ++p) {
          if (have[p] || !node_usable(st.nodes[p])) continue;
          ++stats_.hedged_reads;
          std::uint64_t hedge_latency = 0;
          if (fetch(p, &hedge_latency)) {
            have[p] = true;
            update_ewma(st.nodes[p], hedge_latency);
            if (budget + hedge_latency < latency) {
              ++stats_.hedge_wins;
              effective = budget + hedge_latency;
            }
          }
          break;
        }
      }
    }
    stripe_latency = std::max(stripe_latency, effective);
  }

  if (!erased.empty()) {
    // Degraded read: pull every remaining live unit, then decode the
    // holes through the survivors on the client.
    for (std::size_t u = k; u < n; ++u) {
      if (have[u]) continue;
      std::uint64_t latency = 0;
      if (fetch(u, &latency)) {
        have[u] = true;
        update_ewma(st.nodes[u], latency);
        stripe_latency = std::max(stripe_latency, latency);
      } else {
        erased.push_back(u);
      }
    }
    // The degraded read *discovered* lost redundancy: report it before
    // deciding recoverability, so even a stripe that turns out to be
    // past r reaches the healer's ledger.
    report_damage(DamageKind::ReadCorruption, name, s);
    engine_.rebuild(st, stripe, erased, "Cluster::get");
    ++stats_.degraded_reads;
  }

  stats_.read_virtual_us += stripe_latency;
  net_.advance(stripe_latency);  // stripes of a get() serialize on the client
  return stripe;
}

}  // namespace tvmec::cluster
