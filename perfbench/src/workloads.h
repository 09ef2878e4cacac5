#pragma once

#include "harness.h"

/// The three workloads and the layer probes. Each workload generates
/// every input from RunOptions::seed, measures for RunOptions::seconds,
/// verifies every output, and fills the end-to-end metrics (untraced
/// runs) or the per-layer metrics (traced runs) of its Outcome.
namespace perfbench {

/// RS(10,4), CauchyGood, w=8 everywhere.
inline constexpr std::size_t kK = 10;
inline constexpr std::size_t kR = 4;
inline constexpr unsigned kW = 8;

Outcome run_bulk_codec(const RunOptions& opts, Tracer& tracer);
Outcome run_cluster_rw(const RunOptions& opts, Tracer& tracer);

/// The layer probes traced runs of every workload report: microbenchmarks
/// of the tensor, core and storage layers at the workloads' shapes
/// (gemm_xorand, Codec encode/batch/plan, crc32c, memcpy), and the serve
/// probe.
void run_layer_probes(Outcome& out, std::uint64_t seed, Tracer& tracer);

/// An open loop of 4 KiB-unit requests (75% encode, 25% decode with 1-2
/// erasures, Poisson arrivals at 20k req/s from 4 clients and 1 tenant)
/// into a ShardedEcService with its default config, for `seconds`, with
/// spans around each request; reports the serve.* per-layer metrics and
/// verifies every output and counter identity. It is a probe, not a
/// workload: on a shared 4-vCPU host its end-to-end latencies and rates
/// swing 1.5-2x between runs of one build (host scheduling stalls), more
/// than any bound the benchmark can hold.
void run_serve_probe(Outcome& out, std::uint64_t seed, double seconds,
                     Tracer& tracer);

/// Times `setup` `reps` times and returns the median in seconds. The
/// object built by the last call is kept in `keep`.
template <typename T, typename F>
double timed_setups(std::size_t reps, T& keep, F&& setup) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    keep = {};  // free the previous instance before building the next
    const std::uint64_t t0 = now_ns();
    keep = setup();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

}  // namespace perfbench
