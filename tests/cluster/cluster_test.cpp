#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "../test_util.h"
#include "storage/fault_injector.h"

namespace tvmec::cluster {
namespace {

constexpr std::size_t kUnit = 512;

ClusterConfig make_config(std::size_t nodes, std::size_t domains) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_domains = domains;
  return cfg;
}

TEST(Cluster, RejectsTooFewNodesForPlacement) {
  // k + r = 6 distinct nodes per stripe; 5 can't host one.
  EXPECT_THROW(Cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(5, 1)),
               std::invalid_argument);
}

TEST(Cluster, PutGetRoundtripWithPadding) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  // Deliberately not a stripe multiple: exercises zero-padding and the
  // exact-size restore on get.
  const auto payload = testutil::random_vector(3 * 4 * kUnit + 137, 42);
  cluster.put("obj", payload);
  EXPECT_TRUE(cluster.exists("obj"));
  EXPECT_EQ(cluster.object_stripe_count("obj"), 4u);
  EXPECT_EQ(cluster.stats().stripes_written, 4u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.stats().degraded_reads, 0u);

  EXPECT_FALSE(cluster.get("nope").has_value());
  cluster.remove("obj");
  EXPECT_FALSE(cluster.exists("obj"));
  EXPECT_FALSE(cluster.get("obj").has_value());
}

TEST(Cluster, PlacementSpreadsUnitsAcrossFailureDomains) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(12, 3));
  const auto payload = testutil::random_vector(5 * 4 * kUnit, 7);
  cluster.put("obj", payload);
  for (std::size_t s = 0; s < cluster.object_stripe_count("obj"); ++s) {
    const auto& nodes = cluster.placement("obj", s);
    ASSERT_EQ(nodes.size(), 6u);
    // Distinct nodes per stripe.
    std::set<std::size_t> distinct(nodes.begin(), nodes.end());
    EXPECT_EQ(distinct.size(), nodes.size());
    // All min(n, D) = 3 failure domains covered, and no domain holds more
    // than ceil(n / D) = 2 units — one domain outage stays decodable.
    std::vector<std::size_t> per_domain(cluster.num_domains(), 0);
    for (const std::size_t node : nodes) ++per_domain[cluster.domain_of(node)];
    for (const std::size_t count : per_domain) {
      EXPECT_GE(count, 1u);
      EXPECT_LE(count, 2u);
    }
  }
  EXPECT_THROW(cluster.placement("obj", 99), std::invalid_argument);
  EXPECT_THROW(cluster.placement("nope", 0), std::invalid_argument);
}

TEST(Cluster, DegradedReadDecodesThroughSurvivors) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(2 * 4 * kUnit, 21);
  cluster.put("obj", payload);
  // Kill the node holding data unit 1 of stripe 0.
  cluster.fail_node(cluster.placement("obj", 0)[1]);
  EXPECT_EQ(cluster.stats().failed_nodes, 1u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);
}

TEST(Cluster, DegradedReadSurvivesUpToRLosses) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 33);
  cluster.put("obj", payload);
  const auto nodes = cluster.placement("obj", 0);
  cluster.fail_node(nodes[0]);
  cluster.fail_node(nodes[3]);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  // A third loss exceeds r: the stripe is unrecoverable.
  cluster.fail_node(nodes[1]);
  EXPECT_THROW(cluster.get("obj"), std::runtime_error);
}

TEST(Cluster, CorruptUnitIsDetectedAndReadDegrades) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 55);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 2));
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // CRC caught the flip; decode healed the read
  // Counted once per unit found corrupt, not once per failed re-read.
  EXPECT_EQ(cluster.stats().corruptions_detected, 1u);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);
}

TEST(Cluster, ReadsRideOutTransientFaultsAndDrops) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(6 * 4 * kUnit, 77);
  cluster.put("obj", payload);

  storage::FaultPolicy policy;
  policy.transient_read = 0.1;
  policy.link_drop = 0.1;
  storage::FaultInjector inj(policy, 0xBEEF);
  cluster.attach_fault_injector(&inj);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GT(cluster.retry_stats().retries, 0u);
  EXPECT_TRUE(cluster.net().stats().balanced());
}

TEST(Cluster, HedgedReadBeatsAStraggler) {
  ClusterConfig cfg = make_config(6, 3);
  cfg.hedge.min_samples = 1;
  cfg.hedge.multiplier = 1.5;
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, cfg);
  const auto payload = testutil::random_vector(4 * kUnit, 88);
  cluster.put("obj", payload);
  // Clean pass to arm the per-node EWMAs.
  ASSERT_EQ(*cluster.get("obj"), payload);
  const auto nodes = cluster.placement("obj", 0);
  EXPECT_GT(cluster.node_ewma_us(nodes[0]), 0.0);

  // Stall the response link of data unit 0's node: three response sends
  // vanish, so the fourth attempt lands at ~4x the EWMA — far past the
  // 1.5x hedge budget — and the parity-backed hedge read wins the race.
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  inj.partition_link(
      storage::FaultInjector::key("link", nodes[0], cluster.net().client()),
      3);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // bytes identical whichever path completes
  EXPECT_GE(cluster.stats().hedged_reads, 1u);
  EXPECT_GE(cluster.stats().hedge_wins, 1u);
}

TEST(Cluster, HedgingStaysOffBelowMinSamples) {
  ClusterConfig cfg = make_config(6, 3);
  cfg.hedge.min_samples = 100;  // never armed in this test
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, cfg);
  const auto payload = testutil::random_vector(4 * kUnit, 99);
  cluster.put("obj", payload);
  ASSERT_EQ(*cluster.get("obj"), payload);
  const auto nodes = cluster.placement("obj", 0);
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  inj.partition_link(
      storage::FaultInjector::key("link", nodes[0], cluster.net().client()),
      3);
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_EQ(cluster.stats().hedged_reads, 0u);
}

TEST(Cluster, ReviveNodeRejoinsEmptyAndClearsCrashState) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  const auto payload = testutil::random_vector(4 * kUnit, 13);
  cluster.put("obj", payload);
  const std::size_t victim = cluster.placement("obj", 0)[0];
  inj.crash_node(victim);
  EXPECT_TRUE(cluster.node_failed(victim));  // injector crash counts
  cluster.revive_node(victim);
  EXPECT_FALSE(cluster.node_failed(victim));  // crash state cleared
  // A node failed via the cluster API also revives clean.
  cluster.fail_node(victim);
  EXPECT_TRUE(cluster.node_failed(victim));
  cluster.revive_node(victim);
  EXPECT_FALSE(cluster.node_failed(victim));
  // Its units are gone (replacement hardware): the read degrades.
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);
}

TEST(Cluster, VirtualTimeAccumulatesOnReadsAndWrites) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 17);
  cluster.put("obj", payload);
  EXPECT_GT(cluster.stats().write_virtual_us, 0u);
  ASSERT_TRUE(cluster.get("obj").has_value());
  EXPECT_GT(cluster.stats().read_virtual_us, 0u);
}

}  // namespace
}  // namespace tvmec::cluster
