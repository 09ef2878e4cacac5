#include "core/tvmec.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "ec/reed_solomon.h"

namespace tvmec::core {
namespace {

constexpr std::size_t kUnit = 2048;

ec::LrcParams azure() { return ec::LrcParams{12, 2, 2, 8}; }

tensor::AlignedBuffer<std::uint8_t> make_stripe(Codec& codec,
                                                std::uint64_t seed) {
  const auto& p = codec.params();
  tensor::AlignedBuffer<std::uint8_t> stripe(p.n() * kUnit);
  const auto data = testutil::random_bytes(p.k * kUnit, seed);
  std::copy(data.span().begin(), data.span().end(), stripe.data());
  codec.encode(
      std::span<const std::uint8_t>(stripe.data(), p.k * kUnit),
      std::span<std::uint8_t>(stripe.data() + p.k * kUnit, p.r * kUnit),
      kUnit);
  return stripe;
}

/// Local repair of one unit is a decode of that unit; the plan says how
/// many units it read.
std::size_t repair_local(Codec& codec, std::span<std::uint8_t> stripe,
                         std::size_t failed, std::size_t unit) {
  const std::vector<std::size_t> erased{failed};
  codec.decode(stripe, erased, unit);
  return codec.plan(erased)->survivors.size();
}

TEST(LrcCodec, EncodeMatchesBitmatrixReference) {
  Codec codec(azure());
  const ec::LrcParams p = azure();
  const auto data = testutil::random_bytes(p.k * kUnit, 1);
  tensor::AlignedBuffer<std::uint8_t> parity((p.l + p.g) * kUnit);
  codec.encode(data.span(), parity.span(), kUnit);

  std::vector<std::uint8_t> expect((p.l + p.g) * kUnit);
  ec::apply_matrix_reference_bitpacket(codec.code().parity_matrix(),
                                       data.span(), expect, kUnit);
  EXPECT_TRUE(
      std::equal(expect.begin(), expect.end(), parity.span().begin()));
}

TEST(LrcCodec, LocalRepairReadsOnlyGroupAndRestoresExactly) {
  Codec codec(azure());
  const ec::LrcParams p = azure();
  const auto pristine = make_stripe(codec, 2);

  for (const std::size_t failed : {0u, 5u, 7u, 11u, 12u, 13u}) {
    tensor::AlignedBuffer<std::uint8_t> stripe = pristine;
    std::fill_n(stripe.data() + failed * kUnit, kUnit, 0xBB);
    const std::size_t reads =
        repair_local(codec, stripe.span(), failed, kUnit);
    EXPECT_EQ(reads, p.group_size());  // locality: k/l reads, not k
    ASSERT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                           stripe.span().begin()))
        << "unit " << failed;
  }
}

TEST(LrcCodec, GlobalParityHasNoLocalRepair) {
  // A global parity has no group: its plan reads k units, and decoding
  // it restores the stripe like any other single loss.
  Codec codec(azure());
  const auto pristine = make_stripe(codec, 3);
  tensor::AlignedBuffer<std::uint8_t> stripe = pristine;
  std::fill_n(stripe.data() + 14 * kUnit, kUnit, 0xBB);
  EXPECT_EQ(repair_local(codec, stripe.span(), 14, kUnit), azure().k);
  EXPECT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         stripe.span().begin()));
  EXPECT_THROW(repair_local(codec, stripe.span(), 99, kUnit),
               std::invalid_argument);
}

TEST(LrcCodec, MultiFailureDecode) {
  Codec codec(azure());
  const auto pristine = make_stripe(codec, 4);

  // Up-to-g failures are always decodable; try data+global mixes.
  for (const std::vector<std::size_t>& pattern :
       {std::vector<std::size_t>{0, 6}, {3, 14}, {14, 15}, {2}, {12, 15}}) {
    tensor::AlignedBuffer<std::uint8_t> stripe = pristine;
    for (const std::size_t id : pattern)
      std::fill_n(stripe.data() + id * kUnit, kUnit, 0xCC);
    codec.decode(stripe.span(), pattern, kUnit);
    ASSERT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                           stripe.span().begin()));
  }
}

TEST(LrcCodec, UnrecoverablePatternThrows) {
  Codec codec(ec::LrcParams{4, 2, 1, 8});
  auto stripe = make_stripe(codec, 5);
  // Both units of group 0, its local parity, and the global: 4 erasures
  // with only 3 parities overall -> unrecoverable.
  const std::vector<std::size_t> fatal = {0, 1, 4, 6};
  EXPECT_THROW(codec.decode(stripe.span(), fatal, kUnit),
               std::runtime_error);
}

struct LrcConfig {
  ec::LrcParams params;
};

class LrcCodecConfigTest : public ::testing::TestWithParam<LrcConfig> {};

/// Encode + local repair of every repairable unit + a g-failure decode,
/// across group shapes and field sizes.
TEST_P(LrcCodecConfigTest, FullCycleAcrossConfigs) {
  Codec codec(GetParam().params);
  const ec::LrcParams& p = GetParam().params;
  const std::size_t unit = 8 * p.w * 4;
  tensor::AlignedBuffer<std::uint8_t> stripe(p.n() * unit);
  const auto data = testutil::random_bytes(p.k * unit, p.k * p.l);
  std::copy(data.span().begin(), data.span().end(), stripe.data());
  codec.encode(std::span<const std::uint8_t>(stripe.data(), p.k * unit),
               std::span<std::uint8_t>(stripe.data() + p.k * unit,
                                       (p.l + p.g) * unit),
               unit);
  const tensor::AlignedBuffer<std::uint8_t> pristine = stripe;

  // Local repair of every data and local-parity unit.
  for (std::size_t u = 0; u < p.k + p.l; ++u) {
    std::fill_n(stripe.data() + u * unit, unit, 0xEE);
    EXPECT_EQ(repair_local(codec, stripe.span(), u, unit), p.group_size());
    ASSERT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                           stripe.span().begin()))
        << "unit " << u;
  }

  // A g-sized failure burst of data units.
  std::vector<std::size_t> burst;
  for (std::size_t i = 0; i < p.g; ++i) burst.push_back(i);
  for (const std::size_t id : burst)
    std::fill_n(stripe.data() + id * unit, unit, 0);
  codec.decode(stripe.span(), burst, unit);
  ASSERT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         stripe.span().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LrcCodecConfigTest,
    ::testing::Values(LrcConfig{{12, 2, 2, 8}}, LrcConfig{{12, 3, 2, 8}},
                      LrcConfig{{8, 4, 3, 8}}, LrcConfig{{6, 2, 2, 4}},
                      LrcConfig{{10, 5, 2, 16}}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "l" +
             std::to_string(info.param.params.l) + "g" +
             std::to_string(info.param.params.g) + "w" +
             std::to_string(info.param.params.w);
    });

TEST(LrcCodec, ScheduleChangeKeepsResults) {
  Codec codec(azure());
  const auto pristine = make_stripe(codec, 6);
  tensor::Schedule s;
  s.tile_m = 8;
  s.tile_n = 16;
  s.block_n = 512;
  codec.set_schedule(s);

  tensor::AlignedBuffer<std::uint8_t> stripe = pristine;
  std::fill_n(stripe.data(), kUnit, 0);
  repair_local(codec, stripe.span(), 0, kUnit);
  EXPECT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         stripe.span().begin()));
  // Re-encode under the new schedule matches too.
  const auto again = make_stripe(codec, 6);
  EXPECT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         again.span().begin()));
}

}  // namespace
}  // namespace tvmec::core
