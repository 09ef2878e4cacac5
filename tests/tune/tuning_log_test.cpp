#include "tune/tuning_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tensor/variant.h"

namespace tvmec::tune {
namespace {

/// RAII temp file path under the build tree.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TuneResult sample_result() {
  TuneResult r;
  tensor::Schedule a;
  a.tile_m = 4;
  a.tile_n = 16;
  a.block_n = 512;
  tensor::Schedule b;
  b.tile_m = 8;
  b.tile_n = 32;
  b.block_k = 16;
  r.history.push_back({a, 5.0e9});
  r.history.push_back({b, 7.5e9});
  r.best_schedule = b;
  r.best_throughput = 7.5e9;
  return r;
}

TEST(TuningLog, RoundTrip) {
  TempFile tmp("tuning_log_roundtrip.log");
  const TaskShape shape{32, 2048, 80};
  const TuneResult original = sample_result();
  append_log(tmp.path, shape, original);

  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), 2u);
  EXPECT_EQ(loaded->history[0].schedule, original.history[0].schedule);
  EXPECT_EQ(loaded->history[1].schedule, original.history[1].schedule);
  EXPECT_EQ(loaded->best_schedule, original.best_schedule);
  EXPECT_DOUBLE_EQ(loaded->best_throughput, 7.5e9);
}

TEST(TuningLog, FailedTrialsAreNotLogged) {
  TempFile tmp("tuning_log_failed.log");
  const TaskShape shape{32, 2048, 80};
  TuneResult result = sample_result();
  TrialRecord bad;
  bad.schedule = result.history[0].schedule;
  bad.throughput = 0.0;
  bad.failed = true;
  result.history.push_back(bad);
  result.failed_trials = 1;
  append_log(tmp.path, shape, result);

  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->history.size(), 2u);  // only the real measurements
  for (const auto& rec : loaded->history) EXPECT_GT(rec.throughput, 0.0);
}

TEST(TuningLog, KeptIncumbentIsLogged) {
  TempFile tmp("tuning_log_incumbent.log");
  const TaskShape shape{32, 2048, 80};
  TuneResult result = sample_result();
  result.best_schedule = tensor::Schedule{};  // no trial measured it
  result.best_throughput = 9.0e9;
  append_log(tmp.path, shape, result);

  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->history.size(), 3u);
  EXPECT_EQ(loaded->best_schedule, tensor::Schedule{});
  EXPECT_DOUBLE_EQ(loaded->best_throughput, 9.0e9);
}

TEST(TuningLog, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_log("/nonexistent/dir/nope.log", TaskShape{1, 1, 1})
                   .has_value());
}

TEST(TuningLog, ShapeFiltering) {
  TempFile tmp("tuning_log_shapes.log");
  const TaskShape a{32, 2048, 80};
  const TaskShape b{16, 2048, 64};
  append_log(tmp.path, a, sample_result());

  EXPECT_FALSE(load_log(tmp.path, b).has_value());
  EXPECT_TRUE(load_log(tmp.path, a).has_value());
}

TEST(TuningLog, AppendAccumulatesAcrossRuns) {
  TempFile tmp("tuning_log_append.log");
  const TaskShape shape{32, 2048, 80};
  append_log(tmp.path, shape, sample_result());
  append_log(tmp.path, shape, sample_result());
  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->history.size(), 4u);
}

TEST(TuningLog, CommentsAndBlankLinesIgnored) {
  TempFile tmp("tuning_log_comments.log");
  {
    std::ofstream out(tmp.path);
    out << "# tuning record file\n\n";
  }
  const TaskShape shape{32, 2048, 80};
  append_log(tmp.path, shape, sample_result());
  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->history.size(), 2u);
}

TEST(TuningLog, VariantPinnedRecordsRoundTrip) {
  TempFile tmp("tuning_log_variant.log");
  const TaskShape shape{32, 2048, 80};
  TuneResult result;
  for (const tensor::KernelVariant v : tensor::available_variants()) {
    tensor::Schedule s;
    s.tile_m = 4;
    s.tile_n = 16;
    s.variant = v;
    result.history.push_back({s, 4.0e9});
  }
  result.best_schedule = result.history.back().schedule;
  result.best_throughput = 4.0e9;
  append_log(tmp.path, shape, result);

  const auto loaded = load_log(tmp.path, shape);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), result.history.size());
  for (std::size_t i = 0; i < result.history.size(); ++i)
    EXPECT_EQ(loaded->history[i].schedule.variant,
              result.history[i].schedule.variant);
}

TEST(TuningLog, LegacyRecordsLoadWithAutoVariant) {
  TempFile tmp("tuning_log_legacy.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 | 5.0e9\n"         // 5-field
        << "32x2048x80 | mt8x32 kb0 nb1024 t4 pn g2 | 6.0e9\n";  // 7-field
  }
  LoadLogStats stats;
  const auto loaded = load_log(tmp.path, TaskShape{32, 2048, 80}, &stats);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), 2u);
  for (const auto& rec : loaded->history)
    EXPECT_EQ(rec.schedule.variant, tensor::KernelVariant::Auto);
  EXPECT_EQ(stats.dropped_unavailable_variant, 0u);
}

TEST(TuningLog, DropsRecordsPinnedToUnavailableVariants) {
  // A log copied from a host with a different ISA must not poison this
  // one: records pinned to a tier we can't run are skipped (counted),
  // records we can replay survive.
  tensor::KernelVariant missing = tensor::KernelVariant::Auto;
  for (const tensor::KernelVariant v :
       {tensor::KernelVariant::Neon, tensor::KernelVariant::Avx512,
        tensor::KernelVariant::Avx2}) {
    if (!tensor::variant_available(v)) {
      missing = v;
      break;
    }
  }
  ASSERT_NE(missing, tensor::KernelVariant::Auto)
      << "host claims every variant; cannot stage an unavailable record";

  TempFile tmp("tuning_log_foreign.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 v"
        << tensor::to_string(missing) << " | 9.0e9\n"
        << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 vscalar | 3.0e9\n";
  }
  LoadLogStats stats;
  const auto loaded = load_log(tmp.path, TaskShape{32, 2048, 80}, &stats);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->history.size(), 1u);
  EXPECT_EQ(loaded->history[0].schedule.variant,
            tensor::KernelVariant::Scalar);
  EXPECT_EQ(loaded->best_schedule.variant, tensor::KernelVariant::Scalar);
  EXPECT_EQ(stats.dropped_unavailable_variant, 1u);
}

TEST(TuningLog, MalformedRecordFailsLoudly) {
  TempFile tmp("tuning_log_bad.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | not a schedule | oops\n";
  }
  EXPECT_THROW(load_log(tmp.path, TaskShape{32, 2048, 80}),
               std::runtime_error);
}

TEST(TuningLog, AppendToUnwritablePathThrows) {
  EXPECT_THROW(
      append_log("/nonexistent/dir/x.log", TaskShape{1, 1, 1}, sample_result()),
      std::runtime_error);
}

TEST(TuningLog, LoadAllReturnsEveryShapeInFileOrder) {
  TempFile tmp("tuning_log_all.log");
  const TaskShape a{32, 2048, 80};
  const TaskShape b{16, 1024, 64};
  append_log(tmp.path, a, sample_result());
  append_log(tmp.path, b, sample_result());

  const std::vector<LogRecord> all = load_log_all(tmp.path);
  ASSERT_EQ(all.size(), 4u);  // 2 trials per shape
  EXPECT_EQ(all[0].shape.m, 32u);
  EXPECT_EQ(all[1].shape.k, 80u);
  EXPECT_EQ(all[2].shape.m, 16u);
  EXPECT_EQ(all[3].shape.n, 1024u);
  EXPECT_EQ(all[0].schedule, sample_result().history[0].schedule);
  EXPECT_DOUBLE_EQ(all[1].throughput, 7.5e9);
}

TEST(TuningLog, LoadAllMissingFileIsEmptyMalformedThrows) {
  EXPECT_TRUE(load_log_all("/nonexistent/dir/nope.log").empty());
  TempFile tmp("tuning_log_all_bad.log");
  {
    std::ofstream out(tmp.path);
    out << "32xAx80 | mt4x16 kb64 nb512 t2 | 5.0e9\n";
  }
  EXPECT_THROW(load_log_all(tmp.path), std::runtime_error);
}

TEST(TuningLog, LoadAllDropsUnavailableVariantsWithCount) {
  tensor::KernelVariant missing = tensor::KernelVariant::Auto;
  for (const tensor::KernelVariant v :
       {tensor::KernelVariant::Neon, tensor::KernelVariant::Avx512,
        tensor::KernelVariant::Avx2}) {
    if (!tensor::variant_available(v)) {
      missing = v;
      break;
    }
  }
  ASSERT_NE(missing, tensor::KernelVariant::Auto)
      << "host claims every variant; cannot stage an unavailable record";

  TempFile tmp("tuning_log_all_foreign.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 v"
        << tensor::to_string(missing) << " | 9.0e9\n"
        << "16x1024x64 | mt4x16 kb64 nb512 t2 pm g0 vscalar | 3.0e9\n";
  }
  LoadLogStats stats;
  const std::vector<LogRecord> all = load_log_all(tmp.path, &stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].shape.m, 16u);
  EXPECT_EQ(all[0].schedule.variant, tensor::KernelVariant::Scalar);
  EXPECT_EQ(stats.dropped_unavailable_variant, 1u);
}

}  // namespace
}  // namespace tvmec::tune
