#include "storage/object_layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "core/gemm_coder.h"
#include "storage/stripe_store.h"
#include "tensor/kernel.h"

namespace tvmec::storage {
namespace {

constexpr std::size_t kUnit = 512;
constexpr std::size_t kNodes = 8;
const ec::CodeParams kParams{4, 2, 8};  // 2048 data bytes per stripe
/// Units at the scattered kernel's zero-copy threshold: smaller ones
/// stage by design (GemmCoder::kScatteredStageMaxBytes).
constexpr std::size_t kZeroCopyUnit = core::GemmCoder::kScatteredStageMaxBytes;

/// The object contract StripeStore and cluster::Cluster share through
/// ObjectLayout, run against each: every case body is a generic lambda,
/// instantiated once per store type.
class ObjectContract : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { make(kUnit); }

  /// Replaces the store with a fresh one of `unit`-byte units.
  void make(std::size_t unit) {
    if (std::string(GetParam()) == "StripeStore") {
      store_ = std::make_unique<StripeStore>(kParams, unit, kNodes);
    } else {
      cluster::ClusterConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.num_domains = 2;
      store_ = std::make_unique<cluster::Cluster>(kParams, unit, cfg);
    }
  }

  template <class Body>
  void on_store(Body body) {
    std::visit([&](auto& store) { body(*store); }, store_);
  }

  std::variant<std::unique_ptr<StripeStore>, std::unique_ptr<cluster::Cluster>>
      store_;
};

TEST_P(ObjectContract, SizesThatDontFillStripes) {
  on_store([](auto& store) {
    for (const std::size_t size :
         {1u, 511u, 512u, 2047u, 2048u, 2049u, 9999u}) {
      const auto payload = testutil::random_vector(size, size);
      store.put("o" + std::to_string(size), payload);
      const auto got = store.get("o" + std::to_string(size));
      ASSERT_TRUE(got.has_value()) << size;
      EXPECT_EQ(*got, payload) << size;
    }
  });
}

TEST_P(ObjectContract, EmptyObject) {
  on_store([](auto& store) {
    store.put("empty", {});
    EXPECT_TRUE(store.exists("empty"));
    EXPECT_EQ(store.object_stripe_count("empty"), 0u);
    const auto got = store.get("empty");
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->empty());
  });
}

TEST_P(ObjectContract, MissingObjectReturnsNullopt) {
  on_store([](auto& store) {
    EXPECT_FALSE(store.get("nope").has_value());
    EXPECT_FALSE(store.exists("nope"));
    EXPECT_EQ(store.object_stripe_count("nope"), 0u);
  });
}

TEST_P(ObjectContract, OverwriteReplacesContent) {
  on_store([](auto& store) {
    store.put("obj", testutil::random_vector(3000, 2));
    ASSERT_EQ(store.object_stripe_count("obj"), 2u);
    const auto v2 = testutil::random_vector(1234, 3);
    store.put("obj", v2);
    EXPECT_EQ(*store.get("obj"), v2);
    EXPECT_EQ(store.stats().objects, 1u);
    // The shorter object's stripe count drops, and the old tail stripe
    // is gone from the engine, not left behind.
    EXPECT_EQ(store.object_stripe_count("obj"), 1u);
    EXPECT_NO_THROW(store.placement("obj", 0));
    EXPECT_THROW(store.placement("obj", 1), std::invalid_argument);
    EXPECT_FALSE(store.corrupt_unit("obj", 1, 0));
  });
}

TEST_P(ObjectContract, RemoveDeletesUnits) {
  on_store([](auto& store) {
    store.put("obj", testutil::random_vector(3000, 4));
    store.remove("obj");
    EXPECT_FALSE(store.exists("obj"));
    EXPECT_FALSE(store.get("obj").has_value());
    EXPECT_TRUE(store.object_names().empty());
    EXPECT_THROW(store.placement("obj", 0), std::invalid_argument);
    EXPECT_EQ(store.stats().objects, 0u);
    EXPECT_NO_THROW(store.remove("obj"));  // idempotent
  });
}

TEST_P(ObjectContract, DegradedReadsCountStripes) {
  on_store([](auto& store) {
    // Three stripes from rotation start 0: nodes 0-5, 1-6 and 2-7. The
    // first two hold a unit on node 1, so one get degrades two stripes.
    const auto payload = testutil::random_vector(3 * 2048, 5);
    store.put("obj", payload);
    ASSERT_EQ(store.placement("obj", 2)[0], 2u);
    store.fail_node(1);
    EXPECT_EQ(*store.get("obj"), payload);
    EXPECT_EQ(store.stats().degraded_reads, 2u);
    EXPECT_EQ(store.stats().stripes_written, 3u);
  });
}

TEST_P(ObjectContract, FullStripesPutZeroCopy) {
  make(kZeroCopyUnit);
  on_store([](auto& store) {
    // Two full stripes read in place from the caller's bytes, and a tail
    // encoded in staging: the kernel stages nothing.
    const auto payload =
        testutil::random_vector(2 * kParams.k * kZeroCopyUnit + 5000, 40);
    const auto before = tensor::kernel_stage_stats().stage_bytes;
    store.put("obj", payload);
    EXPECT_EQ(tensor::kernel_stage_stats().stage_bytes, before);
    ASSERT_EQ(store.object_stripe_count("obj"), 3u);
    EXPECT_EQ(*store.get("obj"), payload);
  });
}

TEST_P(ObjectContract, MisalignedCallerBytesRoundTrip) {
  make(kZeroCopyUnit);
  on_store([](auto& store) {
    // An odd offset fails the kernel's word alignment, so the full
    // stripes take the staged fallback; the bytes must not change.
    const auto payload =
        testutil::random_vector(2 * kParams.k * kZeroCopyUnit + 77, 41);
    std::vector<std::uint8_t> shifted(payload.size() + 1);
    std::memcpy(shifted.data() + 1, payload.data(), payload.size());
    const auto before = tensor::kernel_stage_stats().stage_bytes;
    store.put("obj", std::span<const std::uint8_t>(shifted).subspan(1));
    EXPECT_GT(tensor::kernel_stage_stats().stage_bytes, before);
    EXPECT_EQ(*store.get("obj"), payload);
  });
}

TEST_P(ObjectContract, ZeroCopyParityRebuildsLostDataUnits) {
  make(kZeroCopyUnit);
  on_store([](auto& store) {
    // Fail the nodes under stripe 0's first r data units: the get must
    // rebuild them from the parity the zero-copy encode wrote.
    const auto payload =
        testutil::random_vector(2 * kParams.k * kZeroCopyUnit, 42);
    store.put("obj", payload);
    const std::vector<std::size_t> nodes = store.placement("obj", 0);
    for (std::size_t u = 0; u < kParams.r; ++u) store.fail_node(nodes[u]);
    EXPECT_EQ(*store.get("obj"), payload);
    EXPECT_EQ(store.stats().degraded_reads, 2u);
  });
}

TEST_P(ObjectContract, CorruptUnitHookValidation) {
  on_store([](auto& store) {
    store.put("obj", testutil::random_vector(1000, 32));
    EXPECT_FALSE(store.corrupt_unit("missing", 0, 0));
    EXPECT_FALSE(store.corrupt_unit("obj", 99, 0));
    EXPECT_FALSE(store.corrupt_unit("obj", 0, 99));
  });
}

TEST_P(ObjectContract, NodeValidation) {
  on_store([](auto& store) {
    EXPECT_THROW(store.fail_node(100), std::invalid_argument);
    EXPECT_THROW(store.revive_node(100), std::invalid_argument);
    if constexpr (std::is_same_v<std::decay_t<decltype(store)>, StripeStore>)
      EXPECT_THROW(store.node_failed(100), std::invalid_argument);
    else  // the cluster's ground-truth query: no such machine is down
      EXPECT_FALSE(store.node_failed(100));
    store.fail_node(2);
    store.fail_node(2);  // idempotent
    EXPECT_EQ(store.stats().failed_nodes, 1u);
    store.revive_node(2);
    store.revive_node(2);
    EXPECT_EQ(store.stats().failed_nodes, 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(Layouts, ObjectContract,
                         ::testing::Values("StripeStore", "Cluster"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// ObjectLayout::write, on StripeStore (Cluster keeps write private). Each
/// test writes through an injector that injects nothing but counts every
/// unit read and write, and ends with the store equal to its oracle and a
/// clean scrub.
class ObjectWrite : public ::testing::Test {
 protected:
  void SetUp() override { store_.attach_fault_injector(&inj_); }
  void TearDown() override {
    if (!store_.exists("obj")) return;
    EXPECT_EQ(*store_.get("obj"), oracle_);
    EXPECT_EQ(store_.scrub(), 0u);
  }

  /// Puts `size` random bytes as "obj", the oracle's first contents.
  void put(std::size_t size) {
    oracle_ = testutil::random_vector(size, size);
    store_.put("obj", oracle_);
  }
  /// Writes `len` fresh bytes at `offset` to the store and the oracle;
  /// returns the unit reads and writes it made.
  std::pair<std::uint64_t, std::uint64_t> write(
      std::size_t offset, std::size_t len,
      ObjectLayout::PutResult* result = nullptr) {
    const auto bytes = testutil::random_vector(len, ++seed_);
    const FaultStats before = inj_.stats();
    const ObjectLayout::PutResult res = store_.write("obj", offset, bytes);
    if (result != nullptr) *result = res;
    std::copy(bytes.begin(), bytes.end(), oracle_.begin() + offset);
    return {inj_.stats().reads - before.reads,
            inj_.stats().writes - before.writes};
  }
  /// `stripes` small writes (1 + r units each), re-encodes of a partly
  /// written stripe (n reads, n writes), or whole-stripe writes (nothing
  /// read: every data unit is new).
  static std::pair<std::uint64_t, std::uint64_t> patches(std::size_t stripes) {
    const std::uint64_t io = stripes * (1 + kParams.r);
    return {io, io};
  }
  static std::pair<std::uint64_t, std::uint64_t> reencodes(
      std::size_t stripes) {
    const std::uint64_t io = stripes * kParams.n();
    return {io, io};
  }
  static std::pair<std::uint64_t, std::uint64_t> rewrites(
      std::size_t stripes) {
    return {0, stripes * kParams.n()};
  }

  FaultInjector inj_;
  StripeStore store_{kParams, kUnit, kNodes};
  std::vector<std::uint8_t> oracle_;
  std::uint64_t seed_ = 1000;
};

TEST_F(ObjectWrite, SubUnitWriteIsOnePatch) {
  put(3 * 2048);
  EXPECT_EQ(write(700, 100), patches(1));  // inside unit 1 of stripe 0
  EXPECT_EQ(write(2048 + 3 * kUnit, kUnit), patches(1));  // a whole unit
  EXPECT_EQ(store_.stats().degraded_reads, 0u);
}

TEST_F(ObjectWrite, StripeBoundaryWritePatchesEachStripe) {
  put(3 * 2048);
  // Unit 3 of stripe 0 and unit 0 of stripe 1: one small write each.
  ObjectLayout::PutResult res;
  EXPECT_EQ(write(2048 - 100, 200, &res), patches(2));
  EXPECT_TRUE(res.failed_stripes.empty());
}

TEST_F(ObjectWrite, MultiUnitWriteReencodes) {
  put(3 * 2048);
  EXPECT_EQ(write(300, 600), reencodes(1));  // units 0 and 1
  EXPECT_EQ(write(2048, 2048), rewrites(1));  // all of stripe 1
  // Units 1-3 of stripe 0, all of stripe 1, and units 0-1 of stripe 2.
  const auto io = write(1000, 4000);
  EXPECT_EQ(io.first, reencodes(2).first);
  EXPECT_EQ(io.second, reencodes(2).second + rewrites(1).second);
}

TEST_F(ObjectWrite, TailStripeKeepsItsPadding) {
  put(5000);  // the tail stripe holds 904 bytes: unit 0 and 392 of unit 1
  EXPECT_EQ(write(4096 + 600, 100), patches(1));
  EXPECT_EQ(write(4999, 1), patches(1));        // the object's last byte
  EXPECT_EQ(write(4096 + 500, 20), reencodes(1));  // crosses units 0 and 1
  EXPECT_EQ(store_.get("obj")->size(), 5000u);
}

TEST_F(ObjectWrite, UnknownNameAndPastTheEndThrow) {
  const auto bytes = testutil::random_vector(101, 1);
  EXPECT_THROW(store_.write("obj", 0, bytes), std::invalid_argument);
  put(1000);
  EXPECT_THROW(store_.write("nope", 0, bytes), std::invalid_argument);
  EXPECT_THROW(store_.write("obj", 900, bytes), std::invalid_argument);
  EXPECT_THROW(store_.write("obj", 1001, {}), std::invalid_argument);
  EXPECT_THROW(store_.write("obj", SIZE_MAX, bytes), std::invalid_argument);
  // An empty range up to the end is a no-op.
  EXPECT_EQ(write(1000, 0), std::make_pair(std::uint64_t{0}, std::uint64_t{0}));
}

TEST_F(ObjectWrite, FailedNodeLosesItsUnitsNotTheWrite) {
  put(3 * 2048);
  // Stripes s sit on nodes s..s+5: node 1 holds units of stripes 0 and 1.
  store_.fail_node(1);
  ObjectLayout::PutResult res;
  // Whole stripes read nothing; node 1's two units are never written.
  EXPECT_EQ(write(0, 3 * 2048, &res),
            std::make_pair(std::uint64_t{0}, rewrites(3).second - 2));
  EXPECT_EQ(res.failed_stripes, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(store_.stats().degraded_reads, 0u);
  // A small write needing a unit on node 1 re-encodes (degraded) instead,
  // and the failed node's reads and writes never happen.
  EXPECT_EQ(store_.placement("obj", 0)[1], 1u);
  const std::uint64_t n = kParams.n();
  EXPECT_EQ(write(kUnit + 10, 10, &res), std::make_pair(n - 1, n - 1));
  EXPECT_EQ(res.failed_stripes, std::vector<std::size_t>{0});
  EXPECT_EQ(*store_.get("obj"), oracle_);
  store_.revive_node(1);
  EXPECT_GT(store_.repair(), 0u);
}

TEST_F(ObjectWrite, CorruptUnitIsNotPatchedForward) {
  put(3 * 2048);
  // The small write finds its old unit corrupt and re-encodes from a
  // degraded read instead of folding garbage into the parity.
  ASSERT_TRUE(store_.corrupt_unit("obj", 1, 2));
  write(2048 + 2 * kUnit + 5, 50);
  EXPECT_GT(store_.stats().corruptions_detected, 0u);
  EXPECT_EQ(store_.stats().degraded_reads, 1u);
}

TEST_F(ObjectWrite, WritesEqualOnePutOfTheOracle) {
  put(5 * 2048 + 777);
  std::mt19937_64 rng(17);
  for (int i = 0; i < 300; ++i) {
    const std::size_t offset = rng() % oracle_.size();
    const std::size_t cap = i % 3 == 0 ? 2 * 2048 : kUnit;
    write(offset, 1 + rng() % std::min(oracle_.size() - offset, cap));
  }
  StripeStore fresh(kParams, kUnit, kNodes);
  fresh.put("obj", oracle_);
  EXPECT_EQ(*store_.get("obj"), *fresh.get("obj"));
  EXPECT_EQ(fresh.scrub(), 0u);
}

/// The degenerate codes: with k == 1 the patch would move all n units
/// anyway, so the write re-encodes; with r == 0 it patches no parity.
TEST(ObjectWriteCodes, OneDataUnitAndNoParity) {
  for (const ec::CodeParams params :
       {ec::CodeParams{1, 2, 8}, ec::CodeParams{3, 0, 8}}) {
    StripeStore store(params, kUnit, params.n() + 1);
    auto oracle = testutil::random_vector(5 * kUnit, params.k);
    store.put("obj", oracle);
    const auto bytes = testutil::random_vector(100, 9);
    FaultInjector inj;
    store.attach_fault_injector(&inj);
    store.write("obj", kUnit + 30, bytes);
    std::copy(bytes.begin(), bytes.end(), oracle.begin() + kUnit + 30);
    EXPECT_EQ(inj.stats().reads, params.k == 1 ? params.n() : 1u);
    EXPECT_EQ(inj.stats().writes, params.k == 1 ? params.n() : 1u);
    EXPECT_EQ(*store.get("obj"), oracle);
    EXPECT_EQ(store.scrub(), 0u);
  }
}

}  // namespace
}  // namespace tvmec::storage
