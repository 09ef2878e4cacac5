#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "tensor/schedule.h"
#include "tune/cost_model.h"
#include "tune/search_space.h"

/// Autotuning drivers, standing in for TVM's Autoscheduler (§6.1 of the
/// paper: "TVM-EC uses TVM's learning-based Autoscheduler ... tunes for
/// 20000 trials, and uses the best configuration found").
///
/// A *trial* is one measured execution of a candidate schedule. Four
/// policies are provided so the benefit of learned search can itself be
/// evaluated (bench E5): exhaustive grid, uniform random, evolutionary,
/// and cost-model-guided (Ansor-style sample -> predict -> measure ->
/// retrain).
namespace tvmec::tune {

/// Measures a candidate schedule; returns achieved throughput (any
/// consistent higher-is-better unit; encoders use bytes/second).
using MeasureFn = std::function<double(const tensor::Schedule&)>;

enum class Policy { Grid, Random, Evolutionary, ModelGuided };

const char* to_string(Policy p) noexcept;

struct TuneOptions {
  Policy policy = Policy::ModelGuided;
  std::size_t trials = 128;       ///< measurement budget
  std::uint64_t seed = 42;        ///< rng seed (deterministic search)
  // Evolutionary knobs.
  std::size_t population = 16;
  // Model-guided knobs.
  std::size_t candidates_per_round = 64;  ///< proposals scored by the model
  std::size_t measure_per_round = 8;      ///< top predictions measured
};

struct TrialRecord {
  tensor::Schedule schedule;
  double throughput = 0.0;
  /// The MeasureFn threw, or returned NaN/Inf/<= 0 — a failed trial.
  /// Failed trials still consume budget but never become the best and
  /// are never fed to the cost model.
  bool failed = false;
};

struct TuneResult {
  tensor::Schedule best_schedule;
  double best_throughput = 0.0;
  std::vector<TrialRecord> history;  ///< in measurement order
  std::size_t failed_trials = 0;     ///< trials whose measurement failed

  /// Best throughput among the first `n` trials (tuning-curve helper).
  double best_after(std::size_t n) const;
};

/// Runs the requested search policy for `options.trials` measurements.
/// Throws std::invalid_argument on a zero trial budget.
///
/// Measurement is fallible: a MeasureFn that throws or returns a
/// non-finite or non-positive value marks that trial failed (recorded in
/// failed_trials and per-record `failed`) and the search continues — a
/// flaky measurement environment degrades tuning quality, it does not
/// abort it or poison the cost model. If every trial fails, the first
/// candidate tried is returned as best_schedule (a valid point of the
/// space) with best_throughput 0.
TuneResult tune(const SearchSpace& space, const MeasureFn& measure,
                const TuneOptions& options);

/// Retuning a schedule already in use: runs tune, then measures
/// `incumbent` once with the same MeasureFn and reports it as the best
/// when it outran every trial (a tie goes to the trial). The
/// incumbent's measurement is not a trial: history, failed_trials and
/// the budget are exactly those of tune.
TuneResult tune(const SearchSpace& space, const MeasureFn& measure,
                const TuneOptions& options, const tensor::Schedule& incumbent);

/// Times `fn` (already-warm) `repeats` times and returns the *median*
/// seconds per invocation — the standard robust estimator for
/// microbenchmark-style measurement.
double measure_seconds_median(const std::function<void()>& fn,
                              std::size_t repeats);

}  // namespace tvmec::tune
