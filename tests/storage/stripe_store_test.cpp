#include "storage/stripe_store.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace tvmec::storage {
namespace {

constexpr std::size_t kUnit = 512;

StripeStore make_store(std::size_t nodes = 8) {
  return StripeStore(ec::CodeParams{4, 2, 8}, kUnit, nodes);
}

TEST(StripeStore, Construction) {
  EXPECT_NO_THROW(make_store());
  EXPECT_THROW(StripeStore(ec::CodeParams{4, 2, 8}, kUnit, 5),
               std::invalid_argument);
  EXPECT_THROW(StripeStore(ec::CodeParams{4, 2, 8}, 100, 8),
               std::invalid_argument);
}

TEST(StripeStore, PutGetRoundTrip) {
  StripeStore store = make_store();
  const auto payload = testutil::random_vector(10000, 1);  // multi-stripe
  store.put("obj", payload);
  EXPECT_TRUE(store.exists("obj"));
  const auto got = store.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(store.stats().degraded_reads, 0u);
}

TEST(StripeStore, SizesThatDontFillStripes) {
  StripeStore store = make_store();
  for (const std::size_t size : {1u, 511u, 512u, 2047u, 2048u, 2049u, 9999u}) {
    const auto payload = testutil::random_vector(size, size);
    store.put("o" + std::to_string(size), payload);
    const auto got = store.get("o" + std::to_string(size));
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(*got, payload) << size;
  }
}

TEST(StripeStore, EmptyObject) {
  StripeStore store = make_store();
  store.put("empty", {});
  const auto got = store.get("empty");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(StripeStore, MissingObjectReturnsNullopt) {
  StripeStore store = make_store();
  EXPECT_FALSE(store.get("nope").has_value());
  EXPECT_FALSE(store.exists("nope"));
}

TEST(StripeStore, OverwriteReplacesContent) {
  StripeStore store = make_store();
  store.put("obj", testutil::random_vector(3000, 2));
  const auto v2 = testutil::random_vector(1234, 3);
  store.put("obj", v2);
  EXPECT_EQ(*store.get("obj"), v2);
  EXPECT_EQ(store.stats().objects, 1u);
}

TEST(StripeStore, RemoveDeletesUnits) {
  StripeStore store = make_store();
  store.put("obj", testutil::random_vector(3000, 4));
  store.remove("obj");
  EXPECT_FALSE(store.exists("obj"));
  EXPECT_EQ(store.stats().objects, 0u);
  EXPECT_NO_THROW(store.remove("obj"));  // idempotent
}

TEST(StripeStore, DegradedReadSurvivesRFailures) {
  StripeStore store = make_store(6);  // n == nodes: every node holds a unit
  const auto payload = testutil::random_vector(20000, 5);
  store.put("obj", payload);

  store.fail_node(0);
  store.fail_node(3);
  EXPECT_TRUE(store.node_failed(0));
  const auto got = store.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GT(store.stats().degraded_reads, 0u);
}

TEST(StripeStore, TooManyFailuresThrows) {
  StripeStore store = make_store(6);
  store.put("obj", testutil::random_vector(5000, 6));
  store.fail_node(0);
  store.fail_node(1);
  store.fail_node(2);  // r = 2, three failures is fatal
  EXPECT_THROW(store.get("obj"), std::runtime_error);
}

TEST(StripeStore, RepairRestoresRedundancy) {
  StripeStore store = make_store(6);
  const auto payload = testutil::random_vector(20000, 7);
  store.put("obj", payload);

  store.fail_node(1);
  store.revive_node(1);  // back, but empty
  const std::size_t repaired = store.repair();
  EXPECT_GT(repaired, 0u);
  EXPECT_EQ(store.stats().units_repaired, repaired);

  // A later unrelated double failure is now survivable again.
  store.fail_node(0);
  store.fail_node(2);
  const auto got = store.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(StripeStore, RepairIsIdempotent) {
  StripeStore store = make_store(6);
  store.put("obj", testutil::random_vector(5000, 8));
  store.fail_node(1);
  store.revive_node(1);
  EXPECT_GT(store.repair(), 0u);
  EXPECT_EQ(store.repair(), 0u);
}

TEST(StripeStore, ScrubCleanOnHealthyStore) {
  StripeStore store = make_store();
  store.put("a", testutil::random_vector(5000, 9));
  store.put("b", testutil::random_vector(7000, 10));
  EXPECT_EQ(store.scrub(), 0u);
}

TEST(StripeStore, SilentCorruptionIsDetectedAndHealedOnRead) {
  StripeStore store = make_store();
  const auto payload = testutil::random_vector(5000, 30);
  store.put("obj", payload);

  ASSERT_TRUE(store.corrupt_unit("obj", 0, 1));
  const auto got = store.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // checksum caught it; parity rebuilt it
  EXPECT_GT(store.stats().corruptions_detected, 0u);
}

TEST(StripeStore, ScrubFindsAndRepairsCorruption) {
  StripeStore store = make_store();
  const auto payload = testutil::random_vector(9000, 31);
  store.put("obj", payload);

  // Corrupt a data unit and a parity unit in different stripes.
  ASSERT_TRUE(store.corrupt_unit("obj", 0, 2));
  ASSERT_TRUE(store.corrupt_unit("obj", 1, 5));  // unit 5 is parity (k=4)
  EXPECT_EQ(store.scrub(), 2u);
  // Healed: a second scrub is clean and reads are exact.
  EXPECT_EQ(store.scrub(), 0u);
  EXPECT_EQ(*store.get("obj"), payload);
}

TEST(StripeStore, CorruptUnitHookValidation) {
  StripeStore store = make_store();
  store.put("obj", testutil::random_vector(1000, 32));
  EXPECT_FALSE(store.corrupt_unit("missing", 0, 0));
  EXPECT_FALSE(store.corrupt_unit("obj", 99, 0));
  EXPECT_FALSE(store.corrupt_unit("obj", 0, 99));
}

TEST(StripeStore, NodeValidation) {
  StripeStore store = make_store();
  EXPECT_THROW(store.fail_node(100), std::invalid_argument);
  EXPECT_THROW(store.revive_node(100), std::invalid_argument);
  EXPECT_THROW(store.node_failed(100), std::invalid_argument);
  store.fail_node(2);
  store.fail_node(2);  // idempotent
  EXPECT_EQ(store.stats().failed_nodes, 1u);
  store.revive_node(2);
  store.revive_node(2);
  EXPECT_EQ(store.stats().failed_nodes, 0u);
}

/// The store must work over every supported field size (the codec's
/// bitmatrix machinery is w-generic).
class StripeStoreFieldTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StripeStoreFieldTest, RoundTripAndRepairAcrossFields) {
  const unsigned w = GetParam();
  const std::size_t unit = 16 * 8 * w;  // multiple of 8*w
  StripeStore store(ec::CodeParams{4, 2, w}, unit, 7);
  const auto payload = testutil::random_vector(3 * unit * 4 + 123, w);
  store.put("obj", payload);
  EXPECT_EQ(*store.get("obj"), payload);

  store.fail_node(1);
  store.fail_node(4);
  EXPECT_EQ(*store.get("obj"), payload);
  store.revive_node(1);
  store.revive_node(4);
  EXPECT_GT(store.repair(), 0u);
  EXPECT_EQ(store.scrub(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFields, StripeStoreFieldTest,
                         ::testing::Values(4u, 8u, 16u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(StripeStore, ManyObjectsAcrossRotations) {
  StripeStore store = make_store(9);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back(testutil::random_vector(1000 + 137 * i, 20 + i));
    store.put("obj" + std::to_string(i), payloads.back());
  }
  store.fail_node(4);
  for (int i = 0; i < 20; ++i) {
    const auto got = store.get("obj" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]) << i;
  }
}

}  // namespace
}  // namespace tvmec::storage
