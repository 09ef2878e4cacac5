// E24 (extension; robustness follow-up to E22) — the autonomous
// self-healing control plane: kill nodes under foreground load and let
// the membership detector + risk-prioritized healer bring the cluster
// back to full redundancy. Four tables:
//   E24a  detection-to-redundancy campaign per code shape (detection
//         ticks, drain ticks, units re-placed, wire bytes) with zero
//         data loss and zero unhealed recoverable stripes gated.
//   E24b  priority vs FIFO on the time-at-risk integral: stripe-ticks
//         spent at >= 2 erasures while the queue drains. Priority must
//         measurably beat FIFO on the same damage schedule.
//   E24c  token-bucket compliance: observed repair bytes over the busy
//         window must stay within 10% of the configured budget (plus
//         the burst allowance).
//   E24d  foreground interaction: deferral engages under load, the
//         healer still converges, and foreground get() p99 stays
//         bounded relative to the pre-damage baseline.
//
// --smoke: quick deterministic pass of all four tables, gated on the
// healer/membership/repair counter identities, the network byte ledger,
// convergence, and byte-identical post-heal reads; exits nonzero on any
// violation (CI runs this).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "cluster/healer.h"
#include "cluster/membership.h"
#include "cluster/repair.h"
#include "serve/stats.h"
#include "storage/fault_injector.h"

namespace {

using namespace tvmec;

bool g_smoke = false;
bool g_checks_ok = true;

std::size_t unit_bytes() { return g_smoke ? 16 * 1024 : 64 * 1024; }
std::size_t num_objects() { return g_smoke ? 4 : 16; }
constexpr std::size_t kStripesPerObject = 4;
constexpr std::size_t kDomains = 3;

cluster::ClusterConfig make_cluster_config(const ec::CodeParams& params) {
  cluster::ClusterConfig cc;
  cc.num_nodes = params.n() + 2;
  cc.num_domains = kDomains;
  cc.retry.max_attempts = 6;
  return cc;
}

void fill(cluster::Cluster& cl, const ec::CodeParams& params) {
  const std::size_t object_bytes = kStripesPerObject * params.k * unit_bytes();
  for (std::size_t i = 0; i < num_objects(); ++i) {
    const auto data = benchutil::random_data(object_bytes, 40 + i);
    cl.put("obj" + std::to_string(i),
           std::span<const std::uint8_t>(data.data(), data.size()));
  }
}

/// One foreground read, timed on the virtual clock (the only clock the
/// simulation has). A failed read is a check failure: the campaign's
/// damage never exceeds the parity budget.
std::uint64_t timed_get(cluster::Cluster& cl, std::size_t i) {
  const std::uint64_t t0 = cl.net().now_us();
  try {
    const auto got = cl.get("obj" + std::to_string(i % num_objects()));
    if (!got) {
      std::printf("  !! foreground get lost obj%zu\n", i % num_objects());
      g_checks_ok = false;
    }
  } catch (const std::exception& e) {
    std::printf("  !! foreground get failed within budget: %s\n", e.what());
    g_checks_ok = false;
  }
  return cl.net().now_us() - t0;
}

std::size_t stripes_at_risk(cluster::Cluster& cl) {
  std::size_t n = 0;
  for (const auto& name : cl.object_names())
    for (std::size_t s = 0; s < cl.object_stripe_count(name); ++s)
      if (cl.repairer().stripe_health(name, s).erased >= 2) ++n;
  return n;
}

struct CampaignResult {
  std::size_t detection_ticks = 0;  ///< crash -> Dead verdict
  std::size_t drain_ticks = 0;      ///< verdict -> empty queue
  double at_risk_integral = 0;      ///< stripe-ticks at >= 2 erasures
  std::uint64_t repair_bytes = 0;
  std::uint64_t busy_us = 0;  ///< virtual time of the drain window
  std::uint64_t baseline_p99 = 0;
  std::uint64_t repair_p99 = 0;
  cluster::HealerStats hstats;
};

/// The campaign every table shares: kill node 1 under foreground load,
/// escalate a few late-queued stripes to >= 2 erasures, then drain to
/// convergence while sampling risk and foreground latency each tick.
/// All gates (identities, convergence, full redundancy, byte-identical
/// reads) run at the end regardless of the arm.
CampaignResult run_heal_campaign(const ec::CodeParams& params, bool priority,
                                 std::uint64_t rate, std::uint64_t defer,
                                 std::uint64_t seed) {
  cluster::Cluster cl(params, unit_bytes(), make_cluster_config(params));
  fill(cl, params);
  storage::FaultInjector injector({}, seed);
  cl.attach_fault_injector(&injector);

  cluster::Membership membership(cl);
  cluster::HealerConfig hc;
  hc.priority_enabled = priority;
  hc.repair_bytes_per_sec = rate;
  hc.burst_bytes = 64 * 1024;
  hc.foreground_defer_bytes = defer;
  hc.max_repairs_per_tick = 1;  // drain length == queue depth, so the
                                // at-risk integral is comparable across arms
  cluster::Healer healer(cl, &membership, hc);
  for (int t = 0; t < 16; ++t) healer.tick();  // warm the gap estimators

  CampaignResult res;
  std::vector<double> baseline;
  for (std::size_t i = 0; i < 32; ++i) baseline.push_back(timed_get(cl, i));
  res.baseline_p99 =
      static_cast<std::uint64_t>(serve::sample_percentile(baseline, 99));

  // Kill under load: foreground reads keep flowing while phi accrues.
  injector.crash_node(1);
  std::size_t fg = 0;
  while (res.detection_ticks < 64 &&
         healer.stats().nodes_declared_dead == 0) {
    healer.tick();
    ++res.detection_ticks;
    if (res.detection_ticks % 2 == 0) timed_get(cl, fg++);
  }
  if (healer.stats().nodes_declared_dead == 0) {
    std::printf("  !! no Dead verdict within 64 heartbeat intervals\n");
    g_checks_ok = false;
  }

  // Escalate the last objects' stripes (late in FIFO arrival order) to
  // >= 2 erasures; scrub turns the latent corruption into damage
  // events. FIFO leaves them waiting behind the single-erasure backlog;
  // priority pulls them to the front.
  const std::size_t corrupt_units = std::min<std::size_t>(2, params.r - 1);
  const std::string last = "obj" + std::to_string(num_objects() - 1);
  for (std::size_t s = 0; s < kStripesPerObject; ++s)
    for (std::size_t u = 0; u < corrupt_units; ++u)
      cl.corrupt_unit(last, s, u);
  cl.scrub();

  const std::uint64_t busy_t0 = cl.net().now_us();
  const std::uint64_t bytes0 = healer.stats().repair_bytes;
  std::vector<double> under_repair;
  while (healer.pending() != 0 && res.drain_ticks < 20000) {
    healer.tick();
    ++res.drain_ticks;
    res.at_risk_integral += static_cast<double>(stripes_at_risk(cl));
    if (res.drain_ticks % 2 == 0)
      under_repair.push_back(timed_get(cl, fg++));
  }
  res.busy_us = cl.net().now_us() - busy_t0;
  res.repair_bytes = healer.stats().repair_bytes - bytes0;
  res.repair_p99 =
      static_cast<std::uint64_t>(serve::sample_percentile(under_repair, 99));
  res.hstats = healer.stats();

  // Gates. Convergence first: an unfinished drain poisons the rest.
  if (healer.pending() != 0 || healer.parked_now() != 0) {
    std::printf("  !! healer did not converge (pending=%zu parked=%zu)\n",
                healer.pending(), healer.parked_now());
    g_checks_ok = false;
  }
  // Zero unhealed recoverable stripes: full redundancy on the routing
  // view, the dead node re-placed around.
  for (const auto& name : cl.object_names())
    for (std::size_t s = 0; s < cl.object_stripe_count(name); ++s) {
      const cluster::StripeHealth h = cl.repairer().stripe_health(name, s);
      if (h.erased != 0) {
        std::printf("  !! %s/%zu left with %zu erasures\n", name.c_str(), s,
                    h.erased);
        g_checks_ok = false;
      }
    }
  // Zero data loss: every object byte-identical to what was written.
  const std::size_t object_bytes = kStripesPerObject * params.k * unit_bytes();
  for (std::size_t i = 0; i < num_objects(); ++i) {
    const auto want = benchutil::random_data(object_bytes, 40 + i);
    try {
      const auto got = cl.get("obj" + std::to_string(i));
      if (!got || got->size() != object_bytes ||
          std::memcmp(got->data(), want.data(), object_bytes) != 0) {
        std::printf("  !! obj%zu diverges after heal\n", i);
        g_checks_ok = false;
      }
    } catch (const std::exception& e) {
      std::printf("  !! obj%zu unreadable after heal: %s\n", i, e.what());
      g_checks_ok = false;
    }
  }
  // Identity sweep.
  if (!healer.identity_holds()) {
    std::printf("  !! healer accounting identity violated\n");
    g_checks_ok = false;
  }
  if (!membership.probe_identity_holds() ||
      !membership.transitions_balance()) {
    std::printf("  !! membership counter identities violated\n");
    g_checks_ok = false;
  }
  if (!cl.repair_stats().identity_holds()) {
    std::printf("  !! repair counter identity violated\n");
    g_checks_ok = false;
  }
  if (!cl.net().stats().balanced()) {
    std::printf("  !! network byte ledger does not balance\n");
    g_checks_ok = false;
  }
  return res;
}

void bm_heal_campaign(benchmark::State& state) {
  const ec::CodeParams params{6, 3, 8};
  std::uint64_t units = 0;
  for (auto _ : state) {
    const CampaignResult r =
        run_heal_campaign(params, /*priority=*/true, /*rate=*/0,
                          /*defer=*/0, 0x24);
    units += r.hstats.units_repaired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(units));
}
BENCHMARK(bm_heal_campaign)->Unit(benchmark::kMillisecond);

void print_campaign_table() {
  benchutil::print_header(
      "E24a: kill-under-load heal campaign — detection to full redundancy",
      "node killed under foreground reads; gates: zero data loss, zero "
      "unhealed recoverable stripes, all counter identities");

  std::printf("%-9s %8s %8s %8s %8s %10s %10s\n", "code", "detect", "drain",
              "repaired", "units", "wire MB", "risk-intg");
  const ec::CodeParams shapes[] = {{4, 2, 8}, {6, 3, 8}, {10, 4, 8}};
  for (const auto& params : shapes) {
    const CampaignResult r =
        run_heal_campaign(params, /*priority=*/true, /*rate=*/0,
                          /*defer=*/0, 0x24A);
    std::printf("RS(%zu,%zu) %7zut %7zut %8llu %8llu %10.2f %10.0f\n",
                params.k, params.r, r.detection_ticks, r.drain_ticks,
                static_cast<unsigned long long>(r.hstats.repaired),
                static_cast<unsigned long long>(r.hstats.units_repaired),
                static_cast<double>(r.repair_bytes) / 1e6,
                r.at_risk_integral);
  }
}

void print_priority_table() {
  benchutil::print_header(
      "E24b: risk priority vs FIFO — time-at-risk integral",
      "same damage schedule; integral counts stripe-ticks spent at >= 2 "
      "erasures while the queue drains (lower is safer)");

  std::printf("%-9s %8s %10s %10s\n", "arm", "drain", "risk-intg",
              "wire MB");
  const ec::CodeParams params{6, 3, 8};
  double integral[2] = {0, 0};
  for (const bool priority : {true, false}) {
    const CampaignResult r = run_heal_campaign(params, priority, /*rate=*/0,
                                               /*defer=*/0, 0x24B);
    integral[priority ? 0 : 1] = r.at_risk_integral;
    std::printf("%-9s %7zut %10.0f %10.2f\n",
                priority ? "priority" : "fifo", r.drain_ticks,
                r.at_risk_integral,
                static_cast<double>(r.repair_bytes) / 1e6);
  }
  if (!(integral[0] < integral[1])) {
    std::printf("  !! priority did not beat FIFO on time-at-risk "
                "(%.0f vs %.0f)\n",
                integral[0], integral[1]);
    g_checks_ok = false;
  }
}

void print_token_bucket_table() {
  benchutil::print_header(
      "E24c: token-bucket budget compliance over the busy window",
      "observed repair traffic must stay within 10% of budget x window "
      "plus the burst allowance; 0 = unlimited baseline");

  std::printf("%-12s %8s %10s %12s %12s %8s\n", "budget MB/s", "drain",
              "wire MB", "window ms", "obs MB/s", "thrott");
  const ec::CodeParams params{6, 3, 8};
  const std::uint64_t rates[] = {0, 1 << 20, 4 << 20};
  for (const std::uint64_t rate : rates) {
    const CampaignResult r = run_heal_campaign(params, /*priority=*/true,
                                               rate, /*defer=*/0, 0x24C);
    const double window_s = static_cast<double>(r.busy_us) / 1e6;
    const double observed =
        window_s > 0 ? static_cast<double>(r.repair_bytes) / window_s : 0;
    std::printf("%12.1f %7zut %10.2f %12.1f %12.2f %8llu\n",
                static_cast<double>(rate) / 1e6, r.drain_ticks,
                static_cast<double>(r.repair_bytes) / 1e6,
                static_cast<double>(r.busy_us) / 1e3, observed / 1e6,
                static_cast<unsigned long long>(r.hstats.throttled_ticks));
    if (rate != 0) {
      const double allowance =
          1.1 * (static_cast<double>(rate) * window_s + (64.0 * 1024));
      if (static_cast<double>(r.repair_bytes) > allowance) {
        std::printf("  !! budget exceeded: %.0f bytes > %.0f allowed\n",
                    static_cast<double>(r.repair_bytes), allowance);
        g_checks_ok = false;
      }
      if (r.hstats.throttled_ticks == 0) {
        std::printf("  !! rate-limited arm never throttled — budget "
                    "not exercised\n");
        g_checks_ok = false;
      }
    }
  }
}

void print_foreground_table() {
  benchutil::print_header(
      "E24d: foreground interaction — deferral and read p99",
      "healer pauses under foreground load (defer arm) yet still "
      "converges; foreground get() p99 stays bounded vs pre-damage");

  std::printf("%-10s %8s %8s %12s %12s\n", "arm", "drain", "defer",
              "base p99us", "heal p99us");
  const ec::CodeParams params{6, 3, 8};
  const std::size_t object_bytes =
      kStripesPerObject * params.k * unit_bytes();
  const std::uint64_t defers[] = {0, object_bytes / 2};
  for (const std::uint64_t defer : defers) {
    const CampaignResult r = run_heal_campaign(params, /*priority=*/true,
                                               /*rate=*/0, defer, 0x24D);
    std::printf("%-10s %7zut %8llu %12llu %12llu\n",
                defer == 0 ? "no-defer" : "defer",
                r.drain_ticks,
                static_cast<unsigned long long>(r.hstats.deferred_ticks),
                static_cast<unsigned long long>(r.baseline_p99),
                static_cast<unsigned long long>(r.repair_p99));
    if (defer != 0 && r.hstats.deferred_ticks == 0) {
      std::printf("  !! deferral never engaged under foreground load\n");
      g_checks_ok = false;
    }
    if (r.repair_p99 > 3 * std::max<std::uint64_t>(r.baseline_p99, 1)) {
      std::printf("  !! foreground p99 blew past 3x the baseline\n");
      g_checks_ok = false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees (and rejects) it.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (!g_smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  print_campaign_table();
  print_priority_table();
  print_token_bucket_table();
  print_foreground_table();
  if (!g_checks_ok)
    std::printf("\nE24: CHECK FAILURES above — see !! lines\n");
  return g_checks_ok ? 0 : 1;
}
