// Layer probes: the tensor, core and storage layers timed alone at the
// shapes the workloads drive them with, so an end-to-end number can be
// split into the layers beneath it.
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "core/plan_cache.h"
#include "core/tvmec.h"
#include "serve/ec_service.h"
#include "storage/crc32c.h"
#include "tensor/kernel.h"
#include "tensor/threadpool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tensor = tvmec::tensor;
using tensor::AlignedBuffer;

/// gemm_xorand at the encode shape of one RS(10,4) stripe of `unit`
/// bytes: M = r*w rows of masks, K = k*w, N = unit / (8*w) words.
struct GemmShape {
  std::size_t m = kR * kW;
  std::size_t k = kK * kW;
  std::size_t n;
  AlignedBuffer<std::uint64_t> a, b, c;

  GemmShape(std::size_t unit, std::uint64_t seed)
      : n(unit / (8 * kW)), a(m * k), b(k * n), c(m * n) {
    std::mt19937_64 rng(stream_seed(seed, 21));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = (rng() & 1) ? ~0ull : 0;
    fill_random({reinterpret_cast<std::uint8_t*>(b.data()), b.size() * 8},
                stream_seed(seed, 22));
  }
  double seconds(const tensor::Schedule& s, std::size_t reps) {
    const tensor::MatView<const std::uint64_t> av{a.data(), m, k, k};
    const tensor::MatView<const std::uint64_t> bv{b.data(), k, n, n};
    const tensor::MatView<std::uint64_t> cv{c.data(), m, n, n};
    tensor::gemm_xorand(av, bv, cv, s);  // warm-up
    return median_seconds([&] { tensor::gemm_xorand(av, bv, cv, s); }, reps);
  }
};

volatile std::uint32_t crc_sink = 0;  // keeps the timed CRCs live
constexpr double kServeProbeSeconds = 4.0;

tensor::Schedule with_threads(int threads) {
  tensor::Schedule s = tvmec::serve::default_service_schedule();
  s.num_threads = threads;
  return s;
}

}  // namespace

void run_layer_probes(Outcome& out, std::uint64_t seed, Tracer& tracer) {
  namespace core = tvmec::core;
  const int pool = static_cast<int>(tensor::ThreadPool::shared().size());
  const double mib_data = static_cast<double>(kK) * (1 << 20);

  // tensor: the 1 MiB-unit shape on one thread and on the pool width,
  // and the 4 KiB-unit shape on one thread.
  {
    GemmShape big(std::size_t{1} << 20, seed);
    const double t1 = big.seconds(with_threads(1), 15);
    const double tn = big.seconds(with_threads(pool), 25);
    out.add_layer("tensor.gemm_gbps.t1", mib_data / t1 / 1e9, "GB/s");
    out.add_layer("tensor.gemm_gbps.tN", mib_data / tn / 1e9, "GB/s");

    // core: Codec::encode over gemm_xorand on the same shape, same
    // schedule (the service schedule at the pool width).
    core::Codec codec(tvmec::ec::CodeParams{kK, kR, kW});
    codec.set_schedule(with_threads(pool));
    AlignedBuffer<std::uint8_t> data(kK << 20), parity(kR << 20);
    fill_random(data.span(), stream_seed(seed, 23));
    codec.encode(data.span(), parity.span(), 1 << 20);
    const double enc = median_seconds(
        [&] { codec.encode(data.span(), parity.span(), 1 << 20); }, 25);
    out.add_layer("core.encode_overhead_ratio", enc / tn, "ratio");
  }
  {
    GemmShape small(4096, seed);
    out.add_layer("tensor.gemm_us.4k",
                  small.seconds(with_threads(1), 2001) * 1e6, "us");
  }

  // host: memcpy beyond the L3 (half the bulk-codec ring each way).
  {
    constexpr std::size_t kBytes = std::size_t{112} << 20;
    AlignedBuffer<std::uint8_t> src(kBytes), dst(kBytes);
    fill_random(src.span(), stream_seed(seed, 24));
    std::memcpy(dst.data(), src.data(), kBytes);
    const double t = median_seconds(
        [&] { std::memcpy(dst.data(), src.data(), kBytes); }, 7);
    out.add_layer("host.memcpy_gbps", static_cast<double>(kBytes) / t / 1e9,
                  "GB/s");
  }

  // core: one full serve-width batch (32 stripes of 4 KiB units) with the
  // thread cap the sharded service gives such a batch.
  {
    constexpr std::size_t kUnit = 4096;
    constexpr std::size_t kItems = 32;
    core::Codec codec(tvmec::ec::CodeParams{kK, kR, kW});
    codec.set_schedule(tvmec::serve::default_service_schedule());
    AlignedBuffer<std::uint8_t> data(kItems * kK * kUnit),
        parity(kItems * kR * kUnit);
    fill_random(data.span(), stream_seed(seed, 25));
    std::vector<tvmec::ec::CoderBatchItem> items;
    for (std::size_t i = 0; i < kItems; ++i)
      items.push_back({{data.data() + i * kK * kUnit, kK * kUnit},
                       {parity.data() + i * kR * kUnit, kR * kUnit},
                       kUnit});
    // The sharded service runs one single-worker shard per hardware
    // thread, all sharing the pool.
    const std::size_t executors =
        std::max(1u, std::thread::hardware_concurrency());
    const int threads = tvmec::serve::EcService::effective_gemm_threads(
        kItems * kK * kUnit / 8, tensor::ThreadPool::shared().size(),
        executors);
    codec.encode_batch(items, threads);
    out.add_layer("core.encode_batch_us.32x4k",
                  median_seconds([&] { codec.encode_batch(items, threads); },
                                 501) *
                      1e6,
                  "us");

    // Plan cost: the first decode of a pattern on a fresh PlanCache
    // against repeated decodes of it.
    auto plans = std::make_shared<core::PlanCache>();
    codec.set_plan_cache(plans);
    AlignedBuffer<std::uint8_t> stripe((kK + kR) * kUnit);
    std::memcpy(stripe.data(), data.data(), kK * kUnit);
    codec.encode({stripe.data(), kK * kUnit},
                 {stripe.data() + kK * kUnit, kR * kUnit}, kUnit);
    std::vector<double> cold, warm;
    for (std::size_t a = 0; a < kK + kR; ++a) {
      for (std::size_t b = a + 1; b < kK + kR; b += 3) {
        const std::size_t pattern[2] = {a, b};
        const std::uint64_t t0 = now_ns();
        codec.decode(stripe.span(), pattern, kUnit);
        cold.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        warm.push_back(median_seconds(
            [&] { codec.decode(stripe.span(), pattern, kUnit); }, 9));
      }
    }
    out.add_layer("core.plan_cold_us", median(cold) * 1e6, "us");
    out.add_layer("core.plan_warm_us", median(warm) * 1e6, "us");
  }

  // storage: crc32c over 128 KiB units (the cluster-rw unit size).
  {
    constexpr std::size_t kUnit = 128 * 1024;
    constexpr std::size_t kUnits = 32;
    AlignedBuffer<std::uint8_t> buf(kUnit * kUnits);
    fill_random(buf.span(), stream_seed(seed, 26));
    std::uint32_t sink = 0;
    const double t = median_seconds(
        [&] {
          for (std::size_t u = 0; u < kUnits; ++u)
            sink ^= tvmec::storage::crc32c({buf.data() + u * kUnit, kUnit});
        },
        25);
    out.add_layer("storage.crc32c_gbps",
                  static_cast<double>(kUnit * kUnits) / t / 1e9, "GB/s");
    crc_sink = sink;
  }

  run_serve_probe(out, seed, kServeProbeSeconds, tracer);
}

}  // namespace perfbench
