// The serve probe: an open loop of small (4 KiB-unit) encode and decode
// requests into a ShardedEcService with its default config. Admission,
// batch forming, queue wait and stealing dominate; one stripe is only
// microseconds of GEMM. Traced runs of every workload report its
// per-layer metrics (see workloads.h for why it is not a workload).
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "core/backends.h"
#include "core/tvmec.h"
#include "serve/ec_service.h"
#include "serve/shard.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = tvmec::serve;

constexpr std::size_t kN = kK + kR;
constexpr std::size_t kUnit = 4096;
constexpr std::size_t kDataBytes = kK * kUnit;
constexpr std::size_t kStripeBytes = kN * kUnit;
constexpr std::size_t kSets = 32;    // distinct golden stripes
constexpr std::size_t kSlots = 256;  // request buffers (~18 MiB, in L3)
constexpr std::size_t kClients = 4;
constexpr serve::TenantId kTenant = 1;
constexpr double kEncodeShare = 0.75;
// Well below saturation on a 4-core host (the p90 latency from due time
// turns up past ~35k req/s).
constexpr double kNominalRps = 20000.0;
const serve::CodecKey kKey{kK, kR, kW, tvmec::ec::RsFamily::CauchyGood};

struct Event {
  std::uint64_t due_ns;  // offset from the phase start
  bool encode;
  std::uint8_t client;
  std::uint8_t erasures;
  std::array<std::size_t, 2> erased;
};

/// Poisson arrivals at `rps` for `seconds`, every choice from `seed`.
std::vector<Event> make_schedule(double rps, double seconds,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rps);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Event> ev;
  ev.reserve(static_cast<std::size_t>(rps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    Event e{};
    e.due_ns = static_cast<std::uint64_t>(t * 1e9);
    e.encode = uni(rng) < kEncodeShare;
    e.client = static_cast<std::uint8_t>(rng() % kClients);
    e.erasures = static_cast<std::uint8_t>(1 + rng() % 2);
    e.erased[0] = rng() % kN;
    do e.erased[1] = rng() % kN; while (e.erased[1] == e.erased[0]);
    ev.push_back(e);
  }
  return ev;
}

struct ServeState {
  std::unique_ptr<serve::ShardedEcService> svc;
  tvmec::tensor::AlignedBuffer<std::uint8_t> golden;  // kSets stripes
  tvmec::tensor::AlignedBuffer<std::uint8_t> slots;   // kSlots stripes

  const std::uint8_t* gold(std::size_t set) const {
    return golden.data() + set * kStripeBytes;
  }
  std::uint8_t* slot(std::size_t i) { return slots.data() + i * kStripeBytes; }
};

std::unique_ptr<ServeState> setup(std::uint64_t seed, Outcome& out) {
  auto st = std::make_unique<ServeState>();
  st->svc = std::make_unique<serve::ShardedEcService>(
      serve::ShardedServiceConfig{});
  st->golden = tvmec::tensor::AlignedBuffer<std::uint8_t>(kSets * kStripeBytes);
  tvmec::core::Codec codec(tvmec::ec::CodeParams{kK, kR, kW});
  const auto naive = tvmec::core::make_coder(
      tvmec::core::Backend::NaiveBitmatrix, codec.code().parity_matrix());
  std::vector<std::uint8_t> ref(kR * kUnit);
  for (std::size_t s = 0; s < kSets; ++s) {
    std::uint8_t* g = st->golden.data() + s * kStripeBytes;
    fill_random({g, kDataBytes}, stream_seed(seed, 200 + s));
    codec.encode({g, kDataBytes}, {g + kDataBytes, kR * kUnit}, kUnit);
    naive->apply({g, kDataBytes}, ref, kUnit);
    if (std::memcmp(ref.data(), g + kDataBytes, kR * kUnit) != 0)
      out.violate("serve probe: golden parity differs from the naive coder");
  }
  st->slots = tvmec::tensor::AlignedBuffer<std::uint8_t>(kSlots * kStripeBytes);
  for (std::size_t i = 0; i < kSlots; ++i)
    std::memcpy(st->slot(i), st->gold(i % kSets), kStripeBytes);
  return st;
}

/// What one schedule observed (the rest goes to the tracer).
struct PhaseResult {
  std::vector<double> late_us;  // generator lateness per request
  double busy_s = 0.0;          // batch service time, once per batch
  std::uint64_t submitted = 0;
};

struct InFlight {
  serve::EcFuture fut;
  std::size_t slot;
  std::uint64_t due_abs, submit_abs, submit_end;
  const Event* ev;
  std::uint64_t seq;
};

/// Runs one schedule: a generator thread submits each request at its due
/// time into a free buffer slot, while this thread collects completions
/// in any order, verifies them and frees their slots.
PhaseResult run_phase(ServeState& st, const std::vector<Event>& sched,
                      Tracer& tracer, Outcome& out) {
  PhaseResult res;
  std::mutex mu;  // guards `submitted`, `free_slots` and `gen_done`
  std::vector<InFlight> submitted;
  std::vector<std::size_t> free_slots(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) free_slots[i] = kSlots - 1 - i;
  bool gen_done = false;
  const std::uint64_t t0 = now_ns() + 1000000;  // 1 ms lead

  std::thread gen([&] {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Event& e = sched[i];
      std::size_t slot = kSlots;
      for (;;) {  // a slot frees when its request completes
        {
          std::lock_guard lock(mu);
          if (!free_slots.empty()) {
            slot = free_slots.back();
            free_slots.pop_back();
          }
        }
        if (slot != kSlots) break;
        std::this_thread::yield();
      }
      const std::uint64_t due = t0 + e.due_ns;
      while (now_ns() < due) {  // spin: a sleep overshoots by tens of us
      }
      std::uint8_t* buf = st.slot(slot);
      const std::uint8_t* gold = st.gold(slot % kSets);
      InFlight f{{}, slot, due, 0, 0, &e, i};
      if (e.encode) {
        std::memset(buf + kDataBytes, 0xA5, kR * kUnit);
        f.submit_abs = now_ns();
        f.fut = st.svc->submit_encode(kTenant, e.client, kKey,
                                      {gold, kDataBytes},
                                      {buf + kDataBytes, kR * kUnit}, kUnit);
      } else {
        for (std::size_t j = 0; j < e.erasures; ++j)
          std::memset(buf + e.erased[j] * kUnit, 0xA5, kUnit);
        f.submit_abs = now_ns();
        f.fut = st.svc->submit_decode(
            kTenant, e.client, kKey, {buf, kStripeBytes},
            std::span<const std::size_t>(e.erased.data(), e.erasures), kUnit);
      }
      f.submit_end = now_ns();
      ++res.submitted;
      std::lock_guard lock(mu);
      submitted.push_back(std::move(f));
    }
    std::lock_guard lock(mu);
    gen_done = true;
  });

  // The collector polls instead of being woken per request: latency comes
  // from the service's own timestamps, so collecting late costs nothing
  // but slot turnover.
  std::vector<InFlight> pending;
  std::vector<std::size_t> freed;
  for (;;) {
    bool finished = false;
    {
      std::lock_guard lock(mu);
      for (InFlight& f : submitted) pending.push_back(std::move(f));
      submitted.clear();
      for (const std::size_t s : freed) free_slots.push_back(s);
      freed.clear();
      finished = gen_done;
    }
    if (pending.empty()) {
      if (finished) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      InFlight& f = pending[p];
      if (!f.fut.ready()) {
        if (kept != p) pending[kept] = std::move(f);
        ++kept;
        continue;
      }
      ++out.attempted;
      const serve::EcResult& r = f.fut.wait();
      const Event& e = *f.ev;
      std::uint8_t* buf = st.slot(f.slot);
      const std::uint8_t* gold = st.gold(f.slot % kSets);
      res.late_us.push_back(static_cast<double>(f.submit_abs - f.due_abs) * 1e-3);
      if (tracer.enabled()) {
        const auto q_end = f.submit_abs + static_cast<std::uint64_t>(r.queue_wait.count());
        const auto end = f.submit_abs + static_cast<std::uint64_t>(r.total.count());
        const char* name = e.encode ? "serve.encode_request" : "serve.decode_request";
        tracer.record(name, f.due_abs, end, f.seq);
        tracer.record("serve.submit", f.submit_abs, f.submit_end, f.seq, name);
        tracer.record("serve.queue_wait", f.submit_abs, q_end, f.seq, name);
        tracer.record("serve.batch_service", q_end, end, f.seq, name);
      }
      if (r.status != serve::RequestStatus::Ok) {
        out.fail(std::string("serve probe: request ") +
                 serve::to_string(r.status) + " " + r.error);
        std::memcpy(buf, gold, kStripeBytes);
      } else {
        if (r.batch_size > 0)
          res.busy_s += static_cast<double>(r.service_time.count()) * 1e-9 /
                        static_cast<double>(r.batch_size);
        bool ok = true;
        if (e.encode) {
          ok = std::memcmp(buf + kDataBytes, gold + kDataBytes, kR * kUnit) == 0;
        } else {
          for (std::size_t j = 0; j < e.erasures; ++j)
            ok &= std::memcmp(buf + e.erased[j] * kUnit,
                              gold + e.erased[j] * kUnit, kUnit) == 0;
        }
        if (!ok) {
          out.fail(std::string("serve probe: ") +
                   (e.encode ? "parity" : "recovered unit") +
                   " differs from the golden stripe");
          std::memcpy(buf, gold, kStripeBytes);
        }
      }
      freed.push_back(f.slot);
    }
    pending.resize(kept);
    if (freed.empty()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  gen.join();
  return res;
}

void check_identities(const serve::ShardedStatsSnapshot& s,
                      std::uint64_t submitted, Outcome& out) {
  const auto& a = s.aggregate;
  if (a.submitted != submitted)
    out.violate("serve probe: service counted " + std::to_string(a.submitted) +
                " submissions, the benchmark made " + std::to_string(submitted));
  if (a.submitted != a.accepted + a.rejected_overload + a.rejected_shed +
                         a.rejected_shutdown)
    out.violate("serve probe: submitted != accepted + rejected");
  if (a.accepted != a.completed_ok + a.expired + a.failed + a.cancelled +
                        a.shutdown_drained)
    out.violate("serve probe: accepted != drained outcomes");
  const auto& t = s.tenant_aggregate;
  if (t.submitted != a.submitted || t.accepted != a.accepted)
    out.violate("serve probe: tenant counters do not match the service");
}

}  // namespace

void run_serve_probe(Outcome& out, std::uint64_t seed, double seconds,
                     Tracer& tracer) {
  const std::unique_ptr<ServeState> st = setup(seed, out);
  Tracer off(false);
  std::uint64_t submitted = 0;
  auto phase = [&](double secs, std::uint64_t stream, Tracer& tr) {
    PhaseResult r = run_phase(
        *st, make_schedule(kNominalRps, secs, stream_seed(seed, stream)), tr,
        out);
    submitted += r.submitted;
    return r;
  };
  phase(0.5, 300, off);  // warm-up: codec slots and decode plans
  const auto s0 = st->svc->stats();
  const PhaseResult traced = phase(seconds, 301, tracer);
  const auto s1 = st->svc->stats();
  const auto& a0 = s0.aggregate;
  const auto& a1 = s1.aggregate;

  out.add_layer("serve.queue_wait_p50_us",
                median(tracer.durations("serve.queue_wait")) * 1e6, "us");
  out.add_layer("serve.queue_wait_p99_us",
                percentile(tracer.durations("serve.queue_wait"), 99) * 1e6, "us");
  out.add_layer("serve.service_p50_us",
                median(tracer.durations("serve.batch_service")) * 1e6, "us");
  auto hist_mean = [](const serve::LatencyHistogram& h0,
                      const serve::LatencyHistogram& h1) {
    const auto n = h1.count() - h0.count();
    return n == 0 ? 0.0
                  : static_cast<double>(h1.sum() - h0.sum()) /
                        static_cast<double>(n);
  };
  const double width = hist_mean(a0.batch_width, a1.batch_width);
  const double threads = hist_mean(a0.gemm_threads, a1.gemm_threads);
  out.add_layer("serve.batch_width_mean", width, "count");
  out.add_layer("serve.gemm_threads_mean", threads, "count");
  const auto sub = a1.submitted - a0.submitted;
  out.add_layer("serve.ok_ratio",
                sub == 0 ? 0.0
                         : static_cast<double>(a1.completed_ok - a0.completed_ok) /
                               static_cast<double>(sub),
                "ratio");
  out.add_layer("serve.steal_batches",
                static_cast<double>(s1.steal_batches - s0.steal_batches), "count");
  out.add_layer("serve.submit_us", median(tracer.durations("serve.submit")) * 1e6,
                "us");
  out.add_layer("serve.generator_late_p99_us", percentile(traced.late_us, 99),
                "us");
  // Kernel share: what Codec::encode_batch alone takes for the batches the
  // service ran (at their mean width and thread cap), over the time the
  // service spent executing batches.
  {
    const auto items = std::max<std::size_t>(1, static_cast<std::size_t>(width + 0.5));
    const int t = std::max(1, static_cast<int>(threads + 0.5));
    tvmec::core::Codec codec(tvmec::ec::CodeParams{kK, kR, kW});
    codec.set_schedule(serve::default_service_schedule());
    tvmec::tensor::AlignedBuffer<std::uint8_t> par(items * kR * kUnit);
    std::vector<tvmec::ec::CoderBatchItem> batch;
    for (std::size_t i = 0; i < items; ++i)
      batch.push_back({{st->gold(i % kSets), kDataBytes},
                       {par.data() + i * kR * kUnit, kR * kUnit},
                       kUnit});
    codec.encode_batch(batch, t);
    const double t_batch =
        median_seconds([&] { codec.encode_batch(batch, t); }, 301);
    const double batches = static_cast<double>(a1.batches - a0.batches);
    out.add_layer("serve.kernel_share",
                  traced.busy_s > 0 ? batches * t_batch / traced.busy_s : 0.0,
                  "ratio");
  }
  st->svc->shutdown(true);
  check_identities(st->svc->stats(), submitted, out);
}

}  // namespace perfbench
