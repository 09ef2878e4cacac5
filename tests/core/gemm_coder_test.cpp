#include "core/gemm_coder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "baselines/naive.h"
#include "ec/reed_solomon.h"

namespace tvmec::core {
namespace {

using testutil::random_bytes;

struct GemmCase {
  ec::CodeParams params;
  std::size_t unit;
};

class GemmCoderTest : public ::testing::TestWithParam<GemmCase> {};

/// The GEMM path must agree byte-for-byte with the naive bitmatrix
/// reference (itself proven against GF arithmetic under the bitpacket
/// embedding) for every code shape in the paper's evaluation space.
TEST_P(GemmCoderTest, MatchesBitmatrixReference) {
  const auto& [params, unit] = GetParam();
  const ec::ReedSolomon rs(params);
  const GemmCoder coder(rs.parity_matrix());
  EXPECT_EQ(coder.in_units(), params.k);
  EXPECT_EQ(coder.out_units(), params.r);
  EXPECT_EQ(coder.w(), params.w);

  const auto data = random_bytes(params.k * unit, params.k * 1000 + unit);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  tensor::AlignedBuffer<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  baseline::NaiveBitmatrixCoder(rs.parity_matrix())
      .apply(data.span(), expect.span(), unit);
  ASSERT_TRUE(std::equal(expect.span().begin(), expect.span().end(),
                         got.span().begin()));
}

/// And the anchor itself: the GEMM path equals first-principles GF
/// arithmetic under the bitpacket embedding (small unit: the reference
/// is O(bits * w)).
TEST(GemmCoderReference, MatchesBitpacketGfArithmetic) {
  const ec::CodeParams params{6, 3, 8};
  const std::size_t unit = 2048;
  const ec::ReedSolomon rs(params);
  const GemmCoder coder(rs.parity_matrix());
  const auto data = random_bytes(params.k * unit, 2024);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  std::vector<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  ec::apply_matrix_reference_bitpacket(rs.parity_matrix(), data.span(),
                                       expect, unit);
  ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.span().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, GemmCoderTest,
    ::testing::Values(GemmCase{{8, 2, 8}, 128 * 1024},
                      GemmCase{{9, 3, 8}, 128 * 1024},
                      GemmCase{{10, 4, 8}, 128 * 1024},
                      GemmCase{{10, 4, 8}, 64}, GemmCase{{4, 2, 4}, 4096},
                      GemmCase{{6, 3, 16}, 8192}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "r" +
             std::to_string(info.param.params.r) + "w" +
             std::to_string(info.param.params.w) + "u" +
             std::to_string(info.param.unit);
    });

TEST(GemmCoder, EverySearchSpaceScheduleIsCorrect) {
  // Property: the schedule changes performance, never results.
  const ec::CodeParams params{6, 3, 8};
  const std::size_t unit = 1024;
  const ec::ReedSolomon rs(params);
  GemmCoder coder(rs.parity_matrix());
  const auto data = random_bytes(params.k * unit, 777);
  std::vector<std::uint8_t> expect(params.r * unit);
  ec::apply_matrix_reference_bitpacket(rs.parity_matrix(), data.span(),
                                       expect, unit);

  const tune::SearchSpace space(coder.task_shape(unit), 4);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  for (std::size_t i = 0; i < space.size(); ++i) {
    coder.set_schedule(space.at(i));
    got.fill_zero();
    coder.apply(data.span(), got.span(), unit);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.span().begin()))
        << "schedule " << space.at(i).to_string();
  }
}

TEST(GemmCoder, TaskShapeMatchesBitmatrixGemm) {
  const ec::ReedSolomon rs(ec::CodeParams{10, 4, 8});
  const GemmCoder coder(rs.parity_matrix());
  const tune::TaskShape shape = coder.task_shape(128 * 1024);
  EXPECT_EQ(shape.m, 32u);          // r * w
  EXPECT_EQ(shape.k, 80u);          // k * w
  EXPECT_EQ(shape.n, 2048u);        // unit / w / 8
}

TEST(GemmCoder, RejectsInvalidSchedule) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  GemmCoder coder(rs.parity_matrix());
  tensor::Schedule bad;
  bad.tile_m = 5;
  EXPECT_THROW(coder.set_schedule(bad), std::invalid_argument);
  EXPECT_THROW(GemmCoder(rs.parity_matrix(), bad), std::invalid_argument);
}

TEST(GemmCoder, SizeAndAlignmentValidation) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const GemmCoder coder(rs.parity_matrix());
  tensor::AlignedBuffer<std::uint8_t> data(4 * 64 + 1), parity(2 * 64);
  // 60 is not a multiple of w = 8: still rejected.
  EXPECT_THROW(coder.apply(data.span().subspan(0, 4 * 60), parity.span(), 60),
               std::invalid_argument);
  // Regression: a +1-offset (misaligned) input used to throw. It is now
  // staged through aligned scratch and matches the aligned result.
  for (std::size_t i = 0; i < data.span().size(); ++i)
    data.span()[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const auto in_off = data.span().subspan(1, 4 * 64);
  tensor::AlignedBuffer<std::uint8_t> data_aligned(4 * 64);
  std::copy(in_off.begin(), in_off.end(), data_aligned.span().begin());
  tensor::AlignedBuffer<std::uint8_t> expect(2 * 64);
  coder.apply(data_aligned.span(), expect.span(), 64);
  EXPECT_NO_THROW(coder.apply(in_off, parity.span(), 64));
  EXPECT_TRUE(std::equal(parity.span().begin(), parity.span().end(),
                         expect.span().begin()));
}

TEST(GemmCoder, TuneInstallsBestScheduleAndImproves) {
  const ec::CodeParams params{10, 4, 8};
  const std::size_t unit = 32 * 1024;
  const ec::ReedSolomon rs(params);
  GemmCoder coder(rs.parity_matrix());

  tune::TuneOptions opt;
  opt.policy = tune::Policy::Random;
  opt.trials = 12;
  opt.seed = 3;
  const tensor::Schedule incumbent = coder.schedule();
  const tune::TuneResult result = coder.tune(unit, opt, 1);
  EXPECT_EQ(result.history.size(), 12u);
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_EQ(coder.schedule(), result.best_schedule);
  // What is installed is the fastest of the trials and the schedule the
  // coder started from (measured outside the trial budget).
  bool from_history = false;
  for (const auto& rec : result.history) {
    EXPECT_GE(result.best_throughput, rec.throughput);
    from_history |= rec.schedule == result.best_schedule &&
                    rec.throughput == result.best_throughput;
  }
  EXPECT_TRUE(from_history || result.best_schedule == incumbent);

  // Tuned coder still encodes correctly.
  const auto data = random_bytes(params.k * unit, 31);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  tensor::AlignedBuffer<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  baseline::NaiveBitmatrixCoder(rs.parity_matrix())
      .apply(data.span(), expect.span(), unit);
  ASSERT_TRUE(std::equal(expect.span().begin(), expect.span().end(),
                         got.span().begin()));
}

TEST(GemmCoder, NameIsTvmEc) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  EXPECT_EQ(GemmCoder(rs.parity_matrix()).name(), "tvm-ec");
}

}  // namespace
}  // namespace tvmec::core
