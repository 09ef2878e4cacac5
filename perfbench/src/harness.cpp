#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // splitmix64 of (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                    0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void fill_random(std::span<std::uint8_t> out, std::uint64_t seed) noexcept {
  std::uint64_t s = stream_seed(seed, 0x5EED) | 1;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::memcpy(out.data() + i, &s, 8);
  }
  for (; i < out.size(); ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    out[i] = static_cast<std::uint8_t>(s);
  }
}

std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t h[4] = {1, 2, 3, 4};
  std::size_t i = 0;
  for (; i + 32 <= data.size(); i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, data.data() + i + 8 * l, 8);
      h[l] = (h[l] ^ w) * kMul;
      h[l] ^= h[l] >> 29;
    }
  }
  std::uint64_t out = data.size();
  for (; i < data.size(); ++i) out = (out ^ data[i]) * kMul;
  for (const std::uint64_t lane : h) out = (out ^ lane) * kMul ^ (out >> 31);
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, samples.size() - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::fail(const std::string& what) {
  ++failed;
  violate(what);
}

void Outcome::violate(const std::string& what) {
  if (violations.size() < 16) violations.push_back(what);
  else if (violations.size() == 16) violations.push_back("...");
}

void Tracer::record(std::string_view name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t id,
                    std::string_view parent) {
  if (!enabled_) return;
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  std::lock_guard lock(mutex_);
  if (events_.size() < kMaxEvents)
    events_.push_back({std::string(name), std::string(parent), start_ns, dur,
                       id});
  auto it = by_name_.find(name);
  if (it == by_name_.end())
    it = by_name_.emplace(std::string(name), std::vector<double>{}).first;
  it->second.push_back(static_cast<double>(dur) * 1e-9);
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<double>{} : it->second;
}

double Tracer::total_seconds(std::string_view name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  const std::uint64_t t0 = events_.empty() ? 0 : events_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    const double ts =
        static_cast<double>(static_cast<std::int64_t>(e.start_ns - t0)) / 1e3;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":\"%s\"}}\n",
                 i == 0 ? "" : ",", e.name.c_str(), ts,
                 static_cast<double>(e.dur_ns) / 1e3,
                 static_cast<unsigned long long>(e.id), e.parent.c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
