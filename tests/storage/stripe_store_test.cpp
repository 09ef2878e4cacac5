#include "storage/stripe_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "../test_util.h"
#include "block_array.h"

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

// A RAID block array is one fixed-size object on n nodes (block_array.h):
// block writes are ranged writes, device failures are node failures, and
// rebuild and verify are repair and scrub.

using testutil::BlockArray;
constexpr std::size_t kBlock = 512;
const ec::CodeParams kArray{4, 2, 8};

/// The injector reads and writes made since `before`.
std::pair<std::uint64_t, std::uint64_t> io_since(const FaultInjector& inj,
                                                 const FaultStats& before) {
  return {inj.stats().reads - before.reads, inj.stats().writes - before.writes};
}

TEST(BlockArray, Geometry) {
  BlockArray a(kArray, kBlock, 10);
  EXPECT_EQ(a.store.num_nodes(), 6u);
  EXPECT_EQ(a.blocks, 40u);
  EXPECT_EQ(a.disk().size(), 40u * kBlock);
  EXPECT_EQ(a.store.unit_size(), kBlock);
  EXPECT_EQ(a.store.object_stripe_count(BlockArray::kDisk), 10u);
  // Stripe s starts on node s mod n: the rotated layout.
  for (std::size_t s = 0; s < 10; ++s)
    EXPECT_EQ(a.store.placement(BlockArray::kDisk, s)[0], s % 6);
  EXPECT_THROW(BlockArray(kArray, 100, 4), std::invalid_argument);
}

TEST(BlockArray, FreshArrayReadsZeros) {
  BlockArray a(kArray, kBlock, 16);
  EXPECT_EQ(a.read_block(7), std::vector<std::uint8_t>(kBlock, 0));
  EXPECT_EQ(a.store.scrub(), 0u);
}

TEST(BlockArray, WriteReadRoundTrip) {
  BlockArray a(kArray, kBlock, 16);
  FaultInjector inj;
  a.store.attach_fault_injector(&inj);
  const auto data = testutil::random_vector(kBlock, 1);
  EXPECT_TRUE(a.write_block(5, data).failed_stripes.empty());
  // The healthy one-block write is the small write: the block and the r
  // parity units are read and stored, nothing else.
  const std::pair<std::uint64_t, std::uint64_t> small{1 + kArray.r,
                                                      1 + kArray.r};
  EXPECT_EQ(io_since(inj, FaultStats{}), small);
  EXPECT_EQ(a.read_block(5), data);
  EXPECT_EQ(a.store.scrub(), 0u);
}

TEST(BlockArray, Validation) {
  BlockArray a(kArray, kBlock, 16);
  const auto data = testutil::random_vector(kBlock, 2);
  EXPECT_THROW(a.write_block(1000, data), std::invalid_argument);
  EXPECT_THROW(a.write_block(a.blocks, data), std::invalid_argument);
  // A range may end at the end of the array but not run past it.
  EXPECT_THROW(a.store.write(BlockArray::kDisk, (a.blocks - 1) * kBlock + 1,
                             data),
               std::invalid_argument);
  EXPECT_THROW(a.store.fail_node(99), std::invalid_argument);
  EXPECT_EQ(a.disk(), std::vector<std::uint8_t>(a.blocks * kBlock, 0));
}

TEST(BlockArray, DegradedReadAfterTwoFailures) {
  BlockArray a(kArray, kBlock, 16);
  std::vector<std::uint8_t> oracle;
  for (std::size_t lba = 0; lba < a.blocks; ++lba) {
    const auto block = testutil::random_vector(kBlock, 100 + lba);
    a.write_block(lba, block);
    oracle.insert(oracle.end(), block.begin(), block.end());
  }
  a.store.fail_node(0);
  a.store.fail_node(3);
  EXPECT_EQ(a.disk(), oracle);
  EXPECT_GT(a.store.stats().degraded_reads, 0u);
}

TEST(BlockArray, WritesWhileDegradedReencodeTheStripe) {
  BlockArray a(kArray, kBlock, 16);
  a.store.fail_node(2);
  FaultInjector inj;
  a.store.attach_fault_injector(&inj);
  const auto data = testutil::random_vector(kBlock, 4);
  const std::size_t n = kArray.n();
  std::size_t reencoded = 0;
  for (std::size_t lba = 0; lba < 24; ++lba) {
    const FaultStats before = inj.stats();
    const auto res = a.write_block(lba, data);
    const auto io = io_since(inj, before);
    if (res.failed_stripes.empty()) {  // node 2 holds no unit it needs
      EXPECT_EQ(io, std::make_pair(std::uint64_t{1 + kArray.r},
                                   std::uint64_t{1 + kArray.r}));
      continue;
    }
    // The block or a parity unit sits on node 2: the whole stripe is read
    // (degraded), re-encoded and stored, minus the unit the failed node
    // cannot take. No read is spent on a small write first.
    ++reencoded;
    EXPECT_EQ(res.failed_stripes, std::vector<std::size_t>{lba / kArray.k});
    EXPECT_EQ(io, std::make_pair(std::uint64_t{n - 1}, std::uint64_t{n - 1}));
  }
  // Stripe s puts unit u on node (u + s) % 6. Node 2 holds one data block
  // of stripes 0, 1, 2 and 5, and a parity unit of stripes 3 and 4.
  EXPECT_EQ(reencoded, 4u + 2 * kArray.k);
  const std::vector<std::uint8_t> disk = a.disk();
  for (std::size_t lba = 0; lba < 24; ++lba)
    ASSERT_TRUE(std::equal(data.begin(), data.end(),
                           disk.begin() + lba * kBlock));
}

TEST(BlockArray, RebuildRestoresRedundancy) {
  BlockArray a(kArray, kBlock, 16);
  std::vector<std::uint8_t> oracle;
  for (std::size_t lba = 0; lba < a.blocks; ++lba) {
    const auto block = testutil::random_vector(kBlock, 200 + lba);
    a.write_block(lba, block);
    oracle.insert(oracle.end(), block.begin(), block.end());
  }
  a.store.fail_node(1);
  a.store.revive_node(1);
  EXPECT_GT(a.store.repair(), 0u);
  EXPECT_EQ(a.store.scrub(), 0u);

  // Redundancy is back: a different double failure is survivable.
  a.store.fail_node(0);
  a.store.fail_node(4);
  EXPECT_EQ(a.disk(), oracle);
}

TEST(BlockArray, RebuildIsIdempotent) {
  BlockArray a(kArray, kBlock, 16);
  a.write_block(0, testutil::random_vector(kBlock, 5));
  a.store.fail_node(2);
  a.store.revive_node(2);
  EXPECT_GT(a.store.repair(), 0u);
  EXPECT_EQ(a.store.repair(), 0u);
}

TEST(BlockArray, TripleFailureIsFatalForReads) {
  BlockArray a(kArray, kBlock, 16);
  a.write_block(0, testutil::random_vector(kBlock, 6));
  a.store.fail_node(0);
  a.store.fail_node(1);
  a.store.fail_node(2);
  // Every stripe holds units on all six nodes: three failures beat r = 2.
  EXPECT_THROW(a.disk(), std::runtime_error);
}

struct RaidGeometry {
  ec::CodeParams params;
  std::size_t block;
};

class RaidGeometryTest : public ::testing::TestWithParam<RaidGeometry> {};

/// Full write-fail-rebuild cycle across code shapes and field sizes.
TEST_P(RaidGeometryTest, WriteFailRebuildCycle) {
  const auto& [params, block] = GetParam();
  BlockArray a(params, block, 6);
  std::vector<std::uint8_t> oracle;
  for (std::size_t lba = 0; lba < a.blocks; ++lba) {
    const auto data = testutil::random_vector(block, 1000 + lba);
    a.write_block(lba, data);
    oracle.insert(oracle.end(), data.begin(), data.end());
  }
  EXPECT_EQ(a.store.scrub(), 0u);

  // Fail r nodes, read everything degraded, repair, verify.
  for (std::size_t d = 0; d < params.r; ++d) a.store.fail_node(d);
  ASSERT_EQ(a.disk(), oracle);
  for (std::size_t d = 0; d < params.r; ++d) a.store.revive_node(d);
  EXPECT_GT(a.store.repair(), 0u);
  EXPECT_EQ(a.store.scrub(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RaidGeometryTest,
    ::testing::Values(RaidGeometry{{4, 2, 8}, 512},
                      RaidGeometry{{3, 3, 8}, 256},
                      RaidGeometry{{4, 1, 8}, 1024},   // RAID-5-like
                      RaidGeometry{{4, 2, 4}, 320},
                      RaidGeometry{{3, 2, 16}, 1024}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "r" +
             std::to_string(info.param.params.r) + "w" +
             std::to_string(info.param.params.w);
    });

/// Model-based fuzz: random block and ranged writes, reads, failures,
/// replacements and repairs against a flat in-memory oracle. Invariant:
/// while at most r nodes are failed, every read matches the oracle.
TEST(BlockArray, RandomizedWorkloadMatchesOracle) {
  const ec::CodeParams params{5, 2, 8};
  BlockArray a(params, kBlock, 12);
  std::vector<std::uint8_t> oracle(a.blocks * kBlock, 0);
  const std::size_t stripe_data = params.k * kBlock;

  std::mt19937_64 rng(2024);
  std::vector<std::size_t> failed;
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 50) {  // a whole block, or any range of up to three stripes
      std::size_t offset = (rng() % a.blocks) * kBlock;
      std::size_t len = kBlock;
      if (op % 2 == 1) {
        offset = rng() % oracle.size();
        len = 1 + rng() % std::min(oracle.size() - offset, 3 * stripe_data);
      }
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      a.store.write(BlockArray::kDisk, offset, data);
      std::copy(data.begin(), data.end(), oracle.begin() + offset);
    } else if (op < 85) {  // read
      ASSERT_EQ(a.disk(), oracle) << "step " << step;
    } else if (op < 93) {  // fail a node (keep <= r failed)
      if (failed.size() < params.r) {
        const std::size_t node = rng() % a.store.num_nodes();
        if (!a.store.node_failed(node)) {
          a.store.fail_node(node);
          failed.push_back(node);
        }
      }
    } else {  // replace + repair one failed node
      if (!failed.empty()) {
        const std::size_t node = failed.back();
        failed.pop_back();
        a.store.revive_node(node);
        a.store.repair();
      }
    }
  }
  // Drain failures and do a final full verification.
  for (const std::size_t node : failed) a.store.revive_node(node);
  a.store.repair();
  EXPECT_EQ(a.store.scrub(), 0u);
  EXPECT_EQ(a.disk(), oracle);
}

}  // namespace
}  // namespace tvmec::storage
