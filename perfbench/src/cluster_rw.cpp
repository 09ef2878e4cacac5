// cluster-rw: one caller thread on a 16-node, 4-domain Cluster with
// 128 KiB units and 4 MiB objects. Each cycle runs a put/get mix, then
// fails a node and reads through it, then revives it and repairs. CRC,
// unit copies, the network model, placement and DAG repair dominate.
#include <cstring>
#include <memory>
#include <random>
#include <string>

#include "cluster/cluster.h"
#include "cluster/repair.h"
#include "storage/crc32c.h"
#include "tensor/kernel.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cl = tvmec::cluster;

constexpr std::size_t kN = kK + kR;
constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kObjectBytes = std::size_t{4} << 20;
constexpr std::size_t kObjects = 64;
constexpr std::size_t kNodes = 16;
constexpr std::size_t kDomains = 4;
constexpr std::size_t kCycles = 5;
constexpr std::size_t kSetupReps = 5;
constexpr double kMB = 1e6;

std::string object_name(std::size_t i) { return "obj-" + std::to_string(i); }

struct ClusterState {
  std::unique_ptr<cl::Cluster> cluster;
  std::vector<std::uint64_t> version;  // per object
  std::vector<std::uint64_t> hash;     // of the bytes last put
  std::vector<std::uint8_t> buf;       // object staging
  std::uint64_t seed = 0;

  /// The bytes of object `i` at its current version.
  void make_object(std::size_t i) {
    fill_random(buf, stream_seed(seed, (i << 32) ^ version[i] ^ 0xC0FFEE));
  }
};

std::unique_ptr<ClusterState> setup(std::uint64_t seed) {
  auto st = std::make_unique<ClusterState>();
  st->seed = seed;
  cl::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_domains = kDomains;
  cfg.seed = stream_seed(seed, 400);
  st->cluster = std::make_unique<cl::Cluster>(
      tvmec::ec::CodeParams{kK, kR, kW}, kUnit, cfg);
  st->version.assign(kObjects, 0);
  st->hash.assign(kObjects, 0);
  st->buf.resize(kObjectBytes);
  for (std::size_t i = 0; i < kObjects; ++i) {
    st->make_object(i);
    st->cluster->put(object_name(i), st->buf);
    st->hash[i] = hash_bytes(st->buf);
  }
  return st;
}

/// Shadow calls: the CRC, encode, copy and decode work an op performs,
/// repeated by the benchmark on the same stripes and timed alone, so a
/// traced run can say what share of the op's wall time each one is.
struct Shadow {
  std::vector<std::uint8_t> stripe = std::vector<std::uint8_t>(kN * kUnit);
  std::vector<std::uint8_t> scratch = std::vector<std::uint8_t>(kN * kUnit);
  std::uint32_t sink = 0;

  std::size_t stripes() const {
    return (kObjectBytes + kK * kUnit - 1) / (kK * kUnit);
  }
  void load_stripe(const std::vector<std::uint8_t>& obj, std::size_t s) {
    std::fill(stripe.begin(), stripe.end(), 0);
    const std::size_t off = s * kK * kUnit;
    std::memcpy(stripe.data(), obj.data() + off,
                std::min(kK * kUnit, obj.size() - off));
  }
  void crc(std::size_t units) {
    for (std::size_t u = 0; u < units; ++u)
      sink ^= tvmec::storage::crc32c({stripe.data() + u * kUnit, kUnit});
  }
  void copy(std::size_t units) {
    std::memcpy(scratch.data(), stripe.data(), units * kUnit);
    sink ^= scratch[units * kUnit - 1];
  }

  /// put: per stripe, assembly copy of k units, encode, one copy of each
  /// of the n units into node storage, and two CRCs of each unit.
  void put(cl::Cluster& c, const std::vector<std::uint8_t>& obj, Tracer& tr,
           std::uint64_t id) {
    for (std::size_t s = 0; s < stripes(); ++s) {
      load_stripe(obj, s);
      std::uint64_t t0 = now_ns();
      copy(kK);
      copy(kN);
      std::uint64_t t1 = now_ns();
      tr.record("shadow.put.copy", t0, t1, id, "cluster.put");
      c.codec().encode({stripe.data(), kK * kUnit},
                       {stripe.data() + kK * kUnit, kR * kUnit}, kUnit);
      t0 = now_ns();
      tr.record("shadow.put.encode", t1, t0, id, "cluster.put");
      crc(kN);
      crc(kN);
      tr.record("shadow.put.crc", t0, now_ns(), id, "cluster.put");
    }
  }
  /// get: per stripe, one CRC and three copies (node copy, response
  /// copy, object assembly) of each of the k data units read.
  void get(const std::vector<std::uint8_t>& obj, Tracer& tr, std::uint64_t id) {
    for (std::size_t s = 0; s < stripes(); ++s) {
      load_stripe(obj, s);
      std::uint64_t t0 = now_ns();
      crc(kK);
      std::uint64_t t1 = now_ns();
      tr.record("shadow.get.crc", t0, t1, id, "cluster.get");
      copy(kK);
      copy(kK);
      copy(kK);
      tr.record("shadow.get.copy", t1, now_ns(), id, "cluster.get");
    }
  }
  /// degraded get: the decode of each stripe that lost a unit on `failed`.
  void degraded_decode(cl::Cluster& c, const std::string& name,
                       const std::vector<std::uint8_t>& obj, std::size_t failed,
                       Tracer& tr, std::uint64_t id) {
    for (std::size_t s = 0; s < stripes(); ++s) {
      const auto& nodes = c.placement(name, s);
      std::vector<std::size_t> erased;
      for (std::size_t u = 0; u < nodes.size(); ++u)
        if (nodes[u] == failed) erased.push_back(u);
      if (erased.empty()) continue;
      load_stripe(obj, s);
      c.codec().encode({stripe.data(), kK * kUnit},
                       {stripe.data() + kK * kUnit, kR * kUnit}, kUnit);
      const std::uint64_t t0 = now_ns();
      c.codec().decode(stripe, erased, kUnit);
      tr.record("shadow.degraded_get.decode", t0, now_ns(), id,
                "cluster.degraded_get");
    }
  }
};

struct CycleSamples {
  std::vector<double> put_s, get_s, degraded_s, repair_mbps;
  std::vector<double> get_virtual_us;
  std::uint64_t puts = 0, stripes_read = 0, rebuilt_units = 0;
  // NetStats deltas per phase.
  std::uint64_t put_wire = 0, put_msgs = 0, get_wire = 0, get_msgs = 0;
  std::uint64_t repair_wire = 0, repair_msgs = 0;
};

/// Runs `cycles` cycles in `seconds`: a 1:1 put/get mix, then gets with
/// one seeded node failed, then revive and one Cluster::repair().
CycleSamples run_cycles(ClusterState& st, double seconds, std::size_t cycles,
                        std::uint64_t stream, bool inject_fault, Tracer& tr,
                        Outcome& out) {
  CycleSamples smp;
  cl::Cluster& c = *st.cluster;
  std::mt19937_64 rng(stream_seed(st.seed, stream));
  Shadow shadow;
  std::uint64_t op = 0;
  int injected = 0;
  const double per_cycle = seconds / static_cast<double>(cycles);

  // Times one get of object `i`, verifies its bytes, and in traced runs
  // repeats its CRC and copy work (healthy) or its decode (degraded).
  auto timed_get = [&](std::size_t i, bool healthy, std::size_t failed) {
    const std::string name = object_name(i);
    const std::uint64_t id = op++;
    ++out.attempted;
    const std::uint64_t v0 = c.stats().read_virtual_us;
    const std::uint64_t t0 = now_ns();
    std::optional<std::vector<std::uint8_t>> got;
    try {
      got = c.get(name);
    } catch (const std::exception& e) {
      out.fail(std::string("cluster-rw: get threw: ") + e.what());
      return;
    }
    const std::uint64_t t1 = now_ns();
    tr.record(healthy ? "cluster.get" : "cluster.degraded_get", t0, t1, id);
    (healthy ? smp.get_s : smp.degraded_s)
        .push_back(static_cast<double>(t1 - t0) * 1e-9);
    smp.get_virtual_us.push_back(
        static_cast<double>(c.stats().read_virtual_us - v0));
    smp.stripes_read += shadow.stripes();
    if (got && inject_fault && ++injected == 1) (*got)[12345] ^= 1;
    if (!got || hash_bytes(*got) != st.hash[i]) {
      out.fail("cluster-rw: get of " + name + " returned other bytes");
      return;
    }
    if (!tr.enabled()) return;
    if (healthy)
      shadow.get(*got, tr, id);
    else
      shadow.degraded_decode(c, name, *got, failed, tr, id);
  };

  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    // Phase 1: puts (overwrites) and gets, 1:1, seeded order and objects.
    const std::uint64_t end1 =
        now_ns() + static_cast<std::uint64_t>(per_cycle * 0.45 * 1e9);
    while (now_ns() < end1) {
      const std::size_t i = rng() % kObjects;
      if (rng() & 1) {
        ++st.version[i];
        st.make_object(i);
        st.hash[i] = hash_bytes(st.buf);
        ++out.attempted;
        const std::uint64_t id = op++;
        const auto n0 = c.net().stats();
        const std::uint64_t t0 = now_ns();
        try {
          c.put(object_name(i), st.buf);
        } catch (const std::exception& e) {
          out.fail(std::string("cluster-rw: put threw: ") + e.what());
          continue;
        }
        const std::uint64_t t1 = now_ns();
        const auto n1 = c.net().stats();
        smp.put_wire += n1.bytes_sent - n0.bytes_sent;
        smp.put_msgs += n1.messages_sent - n0.messages_sent;
        tr.record("cluster.put", t0, t1, id);
        smp.put_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        ++smp.puts;
        if (tr.enabled()) shadow.put(c, st.buf, tr, id);
      } else {
        const auto n0 = c.net().stats();
        timed_get(i, true, 0);
        const auto n1 = c.net().stats();
        smp.get_wire += n1.bytes_sent - n0.bytes_sent;
        smp.get_msgs += n1.messages_sent - n0.messages_sent;
      }
    }

    // Phase 2: one seeded node fails; gets now read through it.
    const std::size_t failed = rng() % kNodes;
    const std::size_t lost = c.stripes_on_node(failed).size();
    c.fail_node(failed);
    const std::uint64_t end2 =
        now_ns() + static_cast<std::uint64_t>(per_cycle * 0.35 * 1e9);
    while (now_ns() < end2) {
      const std::size_t i = rng() % kObjects;
      timed_get(i, false, failed);
    }

    // Phase 3: the node rejoins empty; one repair rebuilds what it held.
    c.revive_node(failed);
    ++out.attempted;
    const auto n0 = c.net().stats();
    const std::uint64_t t0 = now_ns();
    const std::size_t rebuilt = c.repair();
    const std::uint64_t t1 = now_ns();
    const auto n1 = c.net().stats();
    tr.record("cluster.repair", t0, t1, op++);
    smp.repair_wire += n1.bytes_sent - n0.bytes_sent;
    smp.repair_msgs += n1.messages_sent - n0.messages_sent;
    smp.rebuilt_units += rebuilt;
    smp.repair_mbps.push_back(static_cast<double>(rebuilt * kUnit) / kMB /
                              (static_cast<double>(t1 - t0) * 1e-9));
    if (rebuilt != lost)
      out.fail("cluster-rw: repair rebuilt " + std::to_string(rebuilt) +
               " units, node " + std::to_string(failed) + " held " +
               std::to_string(lost));
  }
  return smp;
}

void check_identities(cl::Cluster& c, Outcome& out) {
  if (!c.net().stats().balanced())
    out.violate("cluster-rw: NetStats not balanced");
  if (!c.repair_stats().identity_holds())
    out.violate("cluster-rw: RepairStats identity broken");
}

}  // namespace

Outcome run_cluster_rw(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  std::unique_ptr<ClusterState> st;
  const double setup_s =
      timed_setups(kSetupReps, st, [&] { return setup(opts.seed); });
  cl::Cluster& c = *st->cluster;
  Tracer off(false);
  const double obj_mb = static_cast<double>(kObjectBytes) / kMB;

  if (!opts.trace) {
    const CycleSamples s = run_cycles(*st, opts.seconds, kCycles, 500,
                                      opts.inject_fault, off, out);
    out.add_e2e("write_mbps", obj_mb / median(s.put_s), "MB/s");
    out.add_e2e("read_mbps", obj_mb / median(s.get_s), "MB/s");
    out.add_e2e("degraded_read_mbps", obj_mb / median(s.degraded_s), "MB/s");
    out.add_e2e("repair_mbps", median(s.repair_mbps), "MB/s");
    out.add_e2e("setup_s", setup_s, "s");
    out.add_e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    check_identities(c, out);
    return out;
  }

  const CycleSamples plain =
      run_cycles(*st, opts.seconds / 3.0, 1, 500, opts.inject_fault, off, out);
  const cl::ClusterStats c0 = c.stats();
  const cl::RepairStats r0 = c.repair_stats();
  const std::size_t plans0 = c.codec().decode_cache_size();
  const auto stage0 = tvmec::tensor::kernel_stage_stats();
  const CycleSamples s =
      run_cycles(*st, opts.seconds * 2.0 / 3.0, kCycles - 1, 501, false,
                 tracer, out);
  const cl::ClusterStats c1 = c.stats();
  const cl::RepairStats r1 = c.repair_stats();
  const auto stage1 = tvmec::tensor::kernel_stage_stats();

  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double base = median(plain.put_s);
  out.add_layer("trace.overhead_pct",
                100.0 * (median(tracer.durations("cluster.put")) - base) / base,
                "%");
  const double put_t = tracer.total_seconds("cluster.put");
  const double get_t = tracer.total_seconds("cluster.get");
  const double dget_t = tracer.total_seconds("cluster.degraded_get");
  out.add_layer("cluster.put.crc_share",
                ratio(tracer.total_seconds("shadow.put.crc"), put_t), "ratio");
  out.add_layer("cluster.put.encode_share",
                ratio(tracer.total_seconds("shadow.put.encode"), put_t), "ratio");
  out.add_layer("cluster.put.copy_share",
                ratio(tracer.total_seconds("shadow.put.copy"), put_t), "ratio");
  out.add_layer("cluster.get.crc_share",
                ratio(tracer.total_seconds("shadow.get.crc"), get_t), "ratio");
  out.add_layer("cluster.get.copy_share",
                ratio(tracer.total_seconds("shadow.get.copy"), get_t), "ratio");
  out.add_layer("cluster.degraded_get.decode_share",
                ratio(tracer.total_seconds("shadow.degraded_get.decode"), dget_t),
                "ratio");
  const double put_bytes = static_cast<double>(s.puts * kObjectBytes);
  const double get_bytes = static_cast<double>(s.get_s.size() * kObjectBytes);
  const double rebuilt_bytes = static_cast<double>(s.rebuilt_units * kUnit);
  out.add_layer("cluster.net.wire_bytes_per_user_byte.put",
                ratio(static_cast<double>(s.put_wire), put_bytes), "ratio");
  out.add_layer("cluster.net.wire_bytes_per_user_byte.get",
                ratio(static_cast<double>(s.get_wire), get_bytes), "ratio");
  out.add_layer("cluster.net.wire_bytes_per_user_byte.repair",
                ratio(static_cast<double>(s.repair_wire), rebuilt_bytes), "ratio");
  out.add_layer("cluster.net.messages_per_op.put",
                ratio(static_cast<double>(s.put_msgs), static_cast<double>(s.puts)),
                "count");
  out.add_layer("cluster.net.messages_per_op.get",
                ratio(static_cast<double>(s.get_msgs),
                      static_cast<double>(s.get_s.size())),
                "count");
  out.add_layer("cluster.net.messages_per_op.repair",
                ratio(static_cast<double>(s.repair_msgs),
                      static_cast<double>(s.rebuilt_units)),
                "count");
  const double degraded = static_cast<double>(c1.degraded_reads - c0.degraded_reads);
  out.add_layer("cluster.degraded_read_ratio",
                ratio(degraded, static_cast<double>(s.stripes_read)), "ratio");
  out.add_layer("cluster.hedge_win_ratio",
                ratio(static_cast<double>(c1.hedge_wins - c0.hedge_wins),
                      static_cast<double>(c1.hedged_reads - c0.hedged_reads)),
                "ratio");
  out.add_layer("cluster.modeled_get_p99_us", percentile(s.get_virtual_us, 99),
                "virtual_us");
  out.add_layer("cluster.repair.wire_bytes",
                static_cast<double>(r1.bytes_on_wire - r0.bytes_on_wire), "B");
  out.add_layer("cluster.repair.cross_domain_bytes",
                static_cast<double>(r1.cross_domain_bytes - r0.cross_domain_bytes),
                "B");
  out.add_layer("cluster.repair.makespan_us",
                static_cast<double>(r1.makespan_us_total - r0.makespan_us_total),
                "virtual_us");
  out.add_layer("cluster.repair.completed_ratio",
                ratio(static_cast<double>(r1.attempts_completed - r0.attempts_completed),
                      static_cast<double>(r1.attempts_started - r0.attempts_started)),
                "ratio");
  // Decode plans built per degraded stripe read (the codec caches one
  // per erasure pattern).
  out.add_layer("core.plan_cache_hit_ratio",
                degraded == 0 ? 0.0
                              : 1.0 - static_cast<double>(
                                          c.codec().decode_cache_size() - plans0) /
                                          degraded,
                "ratio");
  out.add_layer("tensor.stage_bytes",
                static_cast<double>(stage1.stage_bytes - stage0.stage_bytes), "B");
  check_identities(c, out);
  run_layer_probes(out, opts.seed, tracer);
  return out;
}

}  // namespace perfbench
