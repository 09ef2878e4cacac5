#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace tvmec::tune {
namespace {

TaskShape shape() { return {32, 2048, 80}; }

/// A deterministic synthetic objective with a unique known optimum, so
/// search behaviour can be asserted without timing noise.
double synthetic_objective(const tensor::Schedule& s) {
  double score = 100.0;
  score += 10.0 * s.tile_m + 12.0 * s.tile_n;
  score -= 0.5 * std::abs(static_cast<double>(s.block_k) - 32.0);
  score += 20.0 * std::log2(static_cast<double>(s.num_threads));
  return score;
}

class PolicyTest : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyTest, RespectsTrialBudget) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 37;
  const TuneResult result = tune(space, synthetic_objective, opt);
  EXPECT_EQ(result.history.size(), 37u);
}

TEST_P(PolicyTest, BestMatchesHistoryMaximum) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 60;
  const TuneResult result = tune(space, synthetic_objective, opt);
  double max_seen = 0;
  for (const auto& rec : result.history)
    max_seen = std::max(max_seen, rec.throughput);
  EXPECT_DOUBLE_EQ(result.best_throughput, max_seen);
  EXPECT_DOUBLE_EQ(synthetic_objective(result.best_schedule),
                   result.best_throughput);
}

TEST_P(PolicyTest, DeterministicUnderSeed) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 40;
  opt.seed = 123;
  const TuneResult a = tune(space, synthetic_objective, opt);
  const TuneResult b = tune(space, synthetic_objective, opt);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_EQ(a.history[i].schedule, b.history[i].schedule);
}

TEST_P(PolicyTest, FindsNearOptimalWithModestBudget) {
  const SearchSpace space(shape(), 4);
  // Exhaustive optimum for reference.
  double best = 0;
  for (const auto& s : space.all())
    best = std::max(best, synthetic_objective(s));

  TuneOptions opt;
  opt.policy = GetParam();
  // Grid search has no notion of "promising region": within a partial
  // budget it only sees a lexicographic prefix, so give it the full
  // space; the adaptive policies must get close with a fraction of it.
  opt.trials = GetParam() == Policy::Grid ? space.size() : 150;
  const TuneResult result = tune(space, synthetic_objective, opt);
  // Within 10% of the global optimum on this easy landscape.
  EXPECT_GT(result.best_throughput, 0.9 * best)
      << "policy " << to_string(GetParam());
}

TEST_P(PolicyTest, SurvivesThrowingMeasurements) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 50;
  std::size_t calls = 0;
  // Every 5th measurement crashes: 20% failed trials.
  const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
    if (++calls % 5 == 0) throw std::runtime_error("segfaulted candidate");
    return synthetic_objective(s);
  };
  const TuneResult result = tune(space, flaky, opt);
  EXPECT_EQ(result.history.size(), 50u);  // full budget despite failures
  EXPECT_EQ(result.failed_trials, 10u);
  std::size_t failed_seen = 0;
  for (const auto& rec : result.history) {
    if (rec.failed) {
      ++failed_seen;
      EXPECT_EQ(rec.throughput, 0.0);
    }
  }
  EXPECT_EQ(failed_seen, 10u);
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_DOUBLE_EQ(synthetic_objective(result.best_schedule),
                   result.best_throughput);
}

TEST_P(PolicyTest, SurvivesNaNMeasurements) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 40;
  std::size_t calls = 0;
  const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
    ++calls;
    if (calls % 5 == 1) return std::nan("");
    if (calls % 5 == 2) return -3.0;
    return synthetic_objective(s);
  };
  const TuneResult result = tune(space, flaky, opt);
  EXPECT_EQ(result.history.size(), 40u);
  EXPECT_EQ(result.failed_trials, 16u);
  EXPECT_GT(result.best_throughput, 0.0);
  // NaN never leaks into the result.
  for (const auto& rec : result.history)
    EXPECT_TRUE(std::isfinite(rec.throughput));
}

TEST_P(PolicyTest, FlakyMeasurementIsDeterministic) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 30;
  opt.seed = 7;
  const auto run = [&] {
    std::size_t calls = 0;
    const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
      if (++calls % 5 == 0) throw std::runtime_error("flake");
      return synthetic_objective(s);
    };
    return tune(space, flaky, opt);
  };
  const TuneResult a = run();
  const TuneResult b = run();
  ASSERT_EQ(a.history.size(), b.history.size());
  EXPECT_EQ(a.failed_trials, b.failed_trials);
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].schedule, b.history[i].schedule);
    EXPECT_EQ(a.history[i].failed, b.history[i].failed);
  }
}

TEST_P(PolicyTest, AllTrialsFailingStillReturnsValidSchedule) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 20;
  const MeasureFn broken = [](const tensor::Schedule&) -> double {
    throw std::runtime_error("measurement rig is down");
  };
  const TuneResult result = tune(space, broken, opt);
  EXPECT_EQ(result.history.size(), 20u);
  EXPECT_EQ(result.failed_trials, 20u);
  EXPECT_EQ(result.best_throughput, 0.0);
  // The documented fallback: the first candidate tried becomes the best.
  EXPECT_EQ(result.best_schedule, result.history.front().schedule);
}

TEST_P(PolicyTest, RetuneInstallsArgmaxOfIncumbentAndHistory) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 30;
  const tensor::Schedule incumbent{};  // the Schedule member defaults
  // The incumbent measures `score`; every other schedule as usual.
  const auto measure_with = [&](double score) -> MeasureFn {
    return [=](const tensor::Schedule& s) {
      if (s == incumbent) {
        if (score <= 0) throw std::runtime_error("incumbent unmeasurable");
        return score;
      }
      return synthetic_objective(s);
    };
  };
  for (const double score : {1e9, 1.0, 0.0}) {
    const MeasureFn measure = measure_with(score);
    const TuneResult search = tune(space, measure, opt);
    const TuneResult result = tune(space, measure, opt, incumbent);
    // The incumbent's measurement is not a trial.
    ASSERT_EQ(result.history.size(), search.history.size());
    for (std::size_t i = 0; i < search.history.size(); ++i)
      EXPECT_EQ(result.history[i].schedule, search.history[i].schedule);
    EXPECT_EQ(result.failed_trials, search.failed_trials);
    // The best is the argmax over the incumbent and the history.
    const bool incumbent_wins = score > search.best_throughput;
    EXPECT_EQ(result.best_schedule,
              incumbent_wins ? incumbent : search.best_schedule)
        << score;
    EXPECT_EQ(result.best_throughput,
              incumbent_wins ? score : search.best_throughput);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(Policy::Grid, Policy::Random,
                                           Policy::Evolutionary,
                                           Policy::ModelGuided),
                         [](const auto& info) {
                           switch (info.param) {
                             case Policy::Grid:
                               return "Grid";
                             case Policy::Random:
                               return "Random";
                             case Policy::Evolutionary:
                               return "Evolutionary";
                             default:
                               return "ModelGuided";
                           }
                         });

TEST(Tuner, GridVisitsDistinctSchedulesInOrder) {
  const SearchSpace space(shape(), 2);
  TuneOptions opt;
  opt.policy = Policy::Grid;
  opt.trials = 25;
  const TuneResult result = tune(space, synthetic_objective, opt);
  for (std::size_t i = 0; i < 25; ++i)
    EXPECT_EQ(result.history[i].schedule, space.at(i));
}

TEST(Tuner, GridStopsAtSpaceExhaustion) {
  const SearchSpace space(TaskShape{8, 128, 16}, 1);
  TuneOptions opt;
  opt.policy = Policy::Grid;
  opt.trials = 100000;
  const TuneResult result = tune(space, synthetic_objective, opt);
  EXPECT_EQ(result.history.size(), space.size());
}

TEST(Tuner, ZeroTrialsThrows) {
  const SearchSpace space(shape(), 2);
  TuneOptions opt;
  opt.trials = 0;
  EXPECT_THROW(tune(space, synthetic_objective, opt), std::invalid_argument);
}

TEST(Tuner, BestAfterIsMonotone) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = Policy::Random;
  opt.trials = 80;
  const TuneResult result = tune(space, synthetic_objective, opt);
  double prev = 0;
  for (std::size_t n = 1; n <= 80; n += 8) {
    const double cur = result.best_after(n);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(result.best_after(1000), result.best_throughput);
}

/// Model-guided search should reach a given quality bar in no more
/// measured trials than pure random search on a landscape the linear
/// model can capture (this is Ansor's whole premise).
TEST(Tuner, ModelGuidedBeatsRandomOnLearnableLandscape) {
  const SearchSpace space(shape(), 8);
  double best = 0;
  for (const auto& s : space.all())
    best = std::max(best, synthetic_objective(s));
  const double bar = 0.95 * best;

  const auto trials_to_bar = [&](Policy policy) {
    TuneOptions opt;
    opt.policy = policy;
    opt.trials = 200;
    opt.seed = 7;
    const TuneResult r = tune(space, synthetic_objective, opt);
    for (std::size_t n = 1; n <= opt.trials; ++n)
      if (r.best_after(n) >= bar) return n;
    return opt.trials + 1;
  };
  EXPECT_LE(trials_to_bar(Policy::ModelGuided),
            trials_to_bar(Policy::Random));
}

TEST(MeasureSecondsMedian, ReturnsPlausibleDuration) {
  const double secs = measure_seconds_median(
      [] {
        volatile int sink = 0;
        for (int i = 0; i < 10000; ++i) sink = sink + i;
      },
      5);
  EXPECT_GT(secs, 0.0);
  EXPECT_LT(secs, 1.0);
  EXPECT_THROW(measure_seconds_median([] {}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tvmec::tune
