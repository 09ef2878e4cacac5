// perfbench: the repository benchmark.
//
//   perfbench --workload <bulk-codec|cluster-rw> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//             [--commit <sha>] [--inject-fault]
//
// Prints a stamp line (host, build, kernel variant), then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans recorded around every library call, writes them as a Chrome
// trace, and reports the per-layer metrics. Exits 1 when any output
// failed verification, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "tensor/threadpool.h"
#include "tensor/variant.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"write_mbps", "MB/s"},   {"read_mbps", "MB/s"},
    {"degraded_read_mbps", "MB/s"}, {"repair_mbps", "MB/s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};

// A layer a workload does not drive reports 0 for its metrics.
constexpr MetricSpec kPerLayer[] = {
    {"trace.overhead_pct", "%"},
    {"tensor.gemm_gbps.t1", "GB/s"},
    {"tensor.gemm_gbps.tN", "GB/s"},
    {"tensor.gemm_us.4k", "us"},
    {"tensor.stage_bytes", "B"},
    {"host.memcpy_gbps", "GB/s"},
    {"core.encode_overhead_ratio", "ratio"},
    {"core.encode_batch_us.32x4k", "us"},
    {"core.plan_cold_us", "us"},
    {"core.plan_warm_us", "us"},
    {"core.plan_cache_hit_ratio", "ratio"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.service_p50_us", "us"},
    {"serve.batch_width_mean", "count"},
    {"serve.gemm_threads_mean", "count"},
    {"serve.ok_ratio", "ratio"},
    {"serve.steal_batches", "count"},
    {"serve.submit_us", "us"},
    {"serve.kernel_share", "ratio"},
    {"serve.generator_late_p99_us", "us"},
    {"storage.crc32c_gbps", "GB/s"},
    {"cluster.put.crc_share", "ratio"},
    {"cluster.put.encode_share", "ratio"},
    {"cluster.put.copy_share", "ratio"},
    {"cluster.get.crc_share", "ratio"},
    {"cluster.get.copy_share", "ratio"},
    {"cluster.degraded_get.decode_share", "ratio"},
    {"cluster.net.wire_bytes_per_user_byte.put", "ratio"},
    {"cluster.net.wire_bytes_per_user_byte.get", "ratio"},
    {"cluster.net.wire_bytes_per_user_byte.repair", "ratio"},
    {"cluster.net.messages_per_op.put", "count"},
    {"cluster.net.messages_per_op.get", "count"},
    {"cluster.net.messages_per_op.repair", "count"},
    {"cluster.degraded_read_ratio", "ratio"},
    {"cluster.hedge_win_ratio", "ratio"},
    {"cluster.modeled_get_p99_us", "virtual_us"},
    {"cluster.repair.wire_bytes", "B"},
    {"cluster.repair.cross_domain_bytes", "B"},
    {"cluster.repair.makespan_us", "virtual_us"},
    {"cluster.repair.completed_ratio", "ratio"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<bulk-codec|cluster-rw> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>] [--commit <sha>] "
               "[--inject-fault]\n",
               msg);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    return s;
  }
#endif
  return "unknown";
}

/// The best microkernel tier the hardware offers, whether or not this
/// binary carries it.
tvmec::tensor::KernelVariant host_best_tier() {
  using tvmec::tensor::KernelVariant;
  const auto& f = tvmec::tensor::cpu_features();
  if (f.avx512f && f.avx512bw && f.avx512vl) return KernelVariant::Avx512;
  if (f.avx2) return KernelVariant::Avx2;
  if (f.neon) return KernelVariant::Neon;
  return KernelVariant::Scalar;
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

/// One line describing where and on what build the numbers were taken.
std::string stamp(const RunOptions& opts, const std::string& commit) {
  namespace t = tvmec::tensor;
  const t::KernelVariant active = t::active_variant();
  const t::KernelVariant best = host_best_tier();
  const bool below = static_cast<int>(active) < static_cast<int>(best);
  if (below)
    std::fprintf(stderr,
                 "perfbench: WARNING kernel variant %s is below the host's "
                 "best tier %s\n",
                 t::to_string(active), t::to_string(best));
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"kernel_variant\":\"%s\",\"host_best_variant\":\"%s\","
      "\"variant_below_host\":%s,\"gfni\":%s,\"nproc\":%u,\"pool_width\":%zu,"
      "\"l1d_bytes\":%ld,\"l2_bytes\":%ld,\"l3_bytes\":%ld,\"cpu\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\"}",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, t::to_string(active),
      t::to_string(best), below ? "true" : "false",
      t::cpu_features().gfni ? "true" : "false",
      std::thread::hardware_concurrency(), t::ThreadPool::shared().size(),
      cache_bytes(_SC_LEVEL1_DCACHE_SIZE), cache_bytes(_SC_LEVEL2_CACHE_SIZE),
      cache_bytes(_SC_LEVEL3_CACHE_SIZE), json_escape(cpu_brand()).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(), json_escape(commit).c_str());
  return buf;
}

/// Orders the workload's metrics as declared, filling per-layer gaps with
/// 0 and flagging any name the declaration does not have.
template <std::size_t N>
std::vector<Metric> declared(const MetricSpec (&specs)[N],
                             const std::vector<Metric>& got, bool fill_zero,
                             Outcome& out) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) {
    if (!by_name.emplace(m.name, &m).second)
      out.violate("metric reported twice: " + m.name);
  }
  std::vector<Metric> ordered;
  for (const MetricSpec& s : specs) {
    const auto it = by_name.find(s.name);
    if (it == by_name.end()) {
      if (!fill_zero) out.violate(std::string("metric missing: ") + s.name);
      ordered.push_back({s.name, 0.0, s.unit});
      continue;
    }
    if (it->second->unit != s.unit)
      out.violate("metric " + it->first + " has unit " + it->second->unit);
    if (!std::isfinite(it->second->value))
      out.violate("metric " + it->first + " is not finite");
    ordered.push_back({s.name, std::isfinite(it->second->value)
                                   ? it->second->value
                                   : 0.0,
                       s.unit});
    by_name.erase(it);
  }
  for (const auto& [name, m] : by_name) out.violate("undeclared metric: " + name);
  return ordered;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::string trace_file;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opts.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opts.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opts.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opts.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-file") {
        trace_file = value();
      } else if (a == "--commit") {
        commit = value();
      } else if (a == "--inject-fault") {
        opts.inject_fault = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");

  std::printf("stamp %s\n", stamp(opts, commit).c_str());
  std::fflush(stdout);

  Tracer tracer(opts.trace);
  Outcome out;
  try {
    if (opts.workload == "bulk-codec") out = run_bulk_codec(opts, tracer);
    else if (opts.workload == "cluster-rw") out = run_cluster_rw(opts, tracer);
    else usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    out.fail(std::string("workload aborted: ") + e.what());
  }

  const std::vector<Metric> metrics =
      opts.trace ? declared(kPerLayer, out.per_layer, true, out)
                 : declared(kEndToEnd, out.end_to_end, false, out);
  if (opts.trace) {
    if (trace_file.empty())
      trace_file = ".bench_out/trace-" + opts.workload + ".json";
    std::error_code ec;
    const auto dir = std::filesystem::path(trace_file).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    if (!tracer.write_chrome(trace_file))
      out.violate("cannot write trace file " + trace_file);
    else
      std::fprintf(stderr, "perfbench: trace written to %s\n",
                   trace_file.c_str());
  }
  if (out.attempted == 0) out.violate("no operation was attempted");
  for (const std::string& v : out.violations)
    std::fprintf(stderr, "perfbench: VIOLATION %s\n", v.c_str());

  const bool correct = out.violations.empty() && out.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(out.attempted, 1));
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
