// bulk-codec: one caller thread alternating Codec::encode and
// Codec::decode over a ring of 1 MiB-unit stripes larger than the L3, so
// every call streams from DRAM and the tensor and core layers do nearly
// all the work.
#include <array>
#include <cstring>
#include <memory>
#include <random>

#include "core/backends.h"
#include "core/plan_cache.h"
#include "core/tvmec.h"
#include "serve/ec_service.h"
#include "tensor/kernel.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kN = kK + kR;
constexpr std::size_t kUnit = std::size_t{1} << 20;
constexpr std::size_t kStripeBytes = kN * kUnit;
constexpr std::size_t kRing = 16;  // 224 MiB of stripes
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kScribbleStride = 4096;

using Pattern = std::array<std::size_t, 2>;

struct BulkState {
  std::unique_ptr<tvmec::core::Codec> codec;
  std::shared_ptr<tvmec::core::PlanCache> plans;
  tvmec::tensor::AlignedBuffer<std::uint8_t> ring;
  std::vector<std::uint64_t> unit_hash;  // golden hash of every ring unit
  std::vector<Pattern> patterns;
  std::size_t ref_stripe = 0;           // parity byte-compared to naive
  std::vector<std::uint8_t> ref_parity;

  std::uint8_t* stripe(std::size_t s) { return ring.data() + s * kStripeBytes; }
  std::uint8_t* unit(std::size_t s, std::size_t u) {
    return stripe(s) + u * kUnit;
  }
};

/// Overwrites one word per 4 KiB of a unit, so an output the call fails
/// to write cannot pass verification, without pulling the unit into
/// cache before the timed call.
void scribble(std::uint8_t* unit) {
  for (std::size_t off = 0; off < kUnit; off += kScribbleStride)
    std::memset(unit + off, 0xA5, 8);
}

/// Three data-data, three data-parity and two parity-parity erasure
/// pairs, ids drawn from the seed.
std::vector<Pattern> make_patterns(std::uint64_t seed) {
  std::mt19937_64 rng(stream_seed(seed, 11));
  auto pick = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi - 1)(rng);
  };
  std::vector<Pattern> out;
  auto add = [&](std::size_t lo_a, std::size_t hi_a, std::size_t lo_b,
                 std::size_t hi_b) {
    for (;;) {
      Pattern p{pick(lo_a, hi_a), pick(lo_b, hi_b)};
      if (p[0] != p[1]) {
        out.push_back(p);
        return;
      }
    }
  };
  for (int i = 0; i < 3; ++i) add(0, kK, 0, kK);
  for (int i = 0; i < 3; ++i) add(0, kK, kK, kN);
  for (int i = 0; i < 2; ++i) add(kK, kN, kK, kN);
  return out;
}

std::unique_ptr<BulkState> setup(std::uint64_t seed, Outcome& out) {
  namespace core = tvmec::core;
  auto st = std::make_unique<BulkState>();
  st->codec = std::make_unique<core::Codec>(
      tvmec::ec::CodeParams{kK, kR, kW}, tvmec::ec::RsFamily::CauchyGood);
  st->codec->set_schedule(tvmec::serve::default_service_schedule());
  st->plans = std::make_shared<core::PlanCache>();
  st->codec->set_plan_cache(st->plans);
  st->ring = tvmec::tensor::AlignedBuffer<std::uint8_t>(kRing * kStripeBytes);
  st->unit_hash.resize(kRing * kN);
  for (std::size_t s = 0; s < kRing; ++s) {
    std::uint8_t* data = st->stripe(s);
    fill_random({data, kK * kUnit}, stream_seed(seed, 100 + s));
    st->codec->encode({data, kK * kUnit}, {data + kK * kUnit, kR * kUnit},
                      kUnit);
    for (std::size_t u = 0; u < kN; ++u)
      st->unit_hash[s * kN + u] = hash_bytes({st->unit(s, u), kUnit});
  }
  // One seeded stripe's parity is byte-compared against the naive
  // reference coder; measured encodes of that stripe are compared to it.
  st->ref_stripe = stream_seed(seed, 12) % kRing;
  st->ref_parity.resize(kR * kUnit);
  const auto naive = core::make_coder(core::Backend::NaiveBitmatrix,
                                      st->codec->code().parity_matrix());
  naive->apply({st->stripe(st->ref_stripe), kK * kUnit}, st->ref_parity,
               kUnit);
  if (std::memcmp(st->ref_parity.data(), st->unit(st->ref_stripe, kK),
                  kR * kUnit) != 0)
    out.violate("bulk-codec: Codec::encode parity differs from the naive "
                "reference coder");
  // Plan every erasure pattern up front.
  st->patterns = make_patterns(seed);
  for (const Pattern& p : st->patterns) {
    for (const std::size_t u : p) scribble(st->unit(0, u));
    st->codec->decode({st->stripe(0), kStripeBytes}, p, kUnit);
    for (const std::size_t u : p)
      if (hash_bytes({st->unit(0, u), kUnit}) != st->unit_hash[u])
        out.violate("bulk-codec: set-up decode did not restore the stripe");
  }
  return st;
}

struct Samples {
  std::vector<double> encode_s, decode_s;
};

/// The measured loop: encode and decode alternate, each on the next
/// stripe of the ring, for `seconds`; erasure patterns are drawn from
/// random stream `stream` of the seed.
Samples measure(BulkState& st, double seconds, std::uint64_t seed,
                std::uint64_t stream, bool inject_fault, Tracer& tracer,
                Outcome& out) {
  Samples smp;
  std::mt19937_64 rng(stream_seed(seed, stream));
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t next = 0;
  std::uint64_t op = 0;
  while (now_ns() < end) {
    // Encode.
    {
      const std::size_t s = next++ % kRing;
      std::uint8_t* data = st.stripe(s);
      for (std::size_t u = kK; u < kN; ++u) scribble(st.unit(s, u));
      ++out.attempted;
      const std::uint64_t t0 = now_ns();
      st.codec->encode({data, kK * kUnit}, {data + kK * kUnit, kR * kUnit},
                       kUnit);
      const std::uint64_t t1 = now_ns();
      tracer.record("core.Codec::encode", t0, t1, op++);
      smp.encode_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      if (inject_fault && smp.encode_s.size() == 1) st.unit(s, kK)[7] ^= 1;
      bool ok = true;
      if (s == st.ref_stripe)
        ok = std::memcmp(st.unit(s, kK), st.ref_parity.data(), kR * kUnit) == 0;
      for (std::size_t u = kK; ok && u < kN; ++u)
        ok = hash_bytes({st.unit(s, u), kUnit}) == st.unit_hash[s * kN + u];
      if (!ok) {
        out.fail("bulk-codec: encode parity mismatch on stripe " +
                 std::to_string(s));
        st.codec->encode({data, kK * kUnit}, {data + kK * kUnit, kR * kUnit},
                         kUnit);
      }
    }
    // Decode.
    {
      const std::size_t s = next++ % kRing;
      const Pattern& p = st.patterns[rng() % st.patterns.size()];
      for (const std::size_t u : p) scribble(st.unit(s, u));
      ++out.attempted;
      const std::uint64_t t0 = now_ns();
      st.codec->decode({st.stripe(s), kStripeBytes}, p, kUnit);
      const std::uint64_t t1 = now_ns();
      tracer.record("core.Codec::decode", t0, t1, op++);
      smp.decode_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      bool ok = true;
      for (const std::size_t u : p)
        ok &= hash_bytes({st.unit(s, u), kUnit}) == st.unit_hash[s * kN + u];
      if (!ok) {
        out.fail("bulk-codec: decode did not restore stripe " +
                 std::to_string(s));
        // Rebuild the whole stripe so later calls start from good data.
        fill_random({st.stripe(s), kK * kUnit}, stream_seed(seed, 100 + s));
        st.codec->encode({st.stripe(s), kK * kUnit},
                         {st.unit(s, kK), kR * kUnit}, kUnit);
      }
    }
  }
  return smp;
}

}  // namespace

Outcome run_bulk_codec(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  std::unique_ptr<BulkState> st;
  const double setup_s =
      timed_setups(kSetupReps, st, [&] { return setup(opts.seed, out); });
  Tracer off(false);

  if (!opts.trace) {
    const Samples smp =
        measure(*st, opts.seconds, opts.seed, 13, opts.inject_fault, off, out);
    const double data_mb = static_cast<double>(kK * kUnit) / 1e6;
    const double enc = median(smp.encode_s);
    const double dec = median(smp.decode_s);
    out.add_e2e("write_mbps", data_mb / enc, "MB/s");
    out.add_e2e("read_mbps", data_mb / dec, "MB/s");
    out.add_e2e("degraded_read_mbps", data_mb / dec, "MB/s");
    out.add_e2e("repair_mbps", 2.0 * static_cast<double>(kUnit) / 1e6 / dec,
                "MB/s");
    out.add_e2e("setup_s", setup_s, "s");
    out.add_e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // Traced run: a third untraced, two thirds traced; the difference is
  // the tracing overhead.
  const Samples plain =
      measure(*st, opts.seconds / 3.0, opts.seed, 13, opts.inject_fault, off,
              out);
  const auto stage0 = tvmec::tensor::kernel_stage_stats();
  const auto plans0 = st->plans->stats();
  const Samples traced = measure(*st, opts.seconds * 2.0 / 3.0, opts.seed,
                                 14, false, tracer, out);
  const auto stage1 = tvmec::tensor::kernel_stage_stats();
  const auto plans1 = st->plans->stats();
  const double base = median(plain.encode_s);
  out.add_layer("trace.overhead_pct",
                100.0 * (median(tracer.durations("core.Codec::encode")) - base) /
                    base,
                "%");
  out.add_layer("tensor.stage_bytes",
                static_cast<double>(stage1.stage_bytes - stage0.stage_bytes),
                "B");
  // Plans built (cache misses) per decode call: all patterns were planned
  // in set-up, so measured decodes should build none.
  const double decodes = static_cast<double>(traced.decode_s.size());
  out.add_layer("core.plan_cache_hit_ratio",
                decodes == 0 ? 0.0
                             : 1.0 - static_cast<double>(plans1.misses -
                                                         plans0.misses) /
                                         decodes,
                "ratio");
  run_layer_probes(out, opts.seed, tracer);
  return out;
}

}  // namespace perfbench
