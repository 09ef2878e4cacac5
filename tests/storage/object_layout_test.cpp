#include "storage/object_layout.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
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

}  // namespace
}  // namespace tvmec::storage
