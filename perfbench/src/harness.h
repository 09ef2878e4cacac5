#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// Shared pieces of the benchmark: seeded inputs, timing, percentiles,
/// the result a workload returns, and the span recorder of traced runs.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One independent random stream per (workload seed, purpose), so adding
/// a draw to one purpose never shifts the inputs of another.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Fills `out` with bytes from a xorshift stream seeded by `seed`.
void fill_random(std::span<std::uint8_t> out, std::uint64_t seed) noexcept;

/// 64-bit content hash used to check that a rebuilt or returned buffer
/// equals the bytes that were written (four independent lanes, so it
/// runs near memory speed).
std::uint64_t hash_bytes(std::span<const std::uint8_t> data) noexcept;

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Runs `fn` `reps` times and returns the median wall time in seconds.
template <typename F>
double median_seconds(F&& fn, std::size_t reps) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t));
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run returns. Every operation attempted is counted;
/// an operation that fails, is refused, or whose output does not verify
/// is counted in `failed` and described in `violations`.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void add_e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed or unverified operation.
  void fail(const std::string& what);
  /// Records a broken invariant that is not an operation of its own
  /// (counter identities); it still makes the run incorrect.
  void violate(const std::string& what);
};

/// Span recorder for traced runs. Spans are kept in memory (the trace
/// file keeps the first kMaxEvents; the per-name aggregates keep all)
/// and written as Chrome trace-event JSON when the run ends. When
/// disabled every call is a no-op.
class Tracer {
 public:
  static constexpr std::size_t kMaxEvents = 20000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span. `id` groups the spans of one operation or
  /// request; `parent` names the span that caused this one ("" at top).
  void record(std::string_view name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::uint64_t id = 0,
              std::string_view parent = {});

  /// Durations (seconds) of every span recorded under `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Summed duration (seconds) of spans named `name`.
  double total_seconds(std::string_view name) const;

  /// Writes the recorded spans as a Chrome trace-event file; returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string parent;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t id;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::string, std::vector<double>, std::less<>> by_name_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one output before it is verified, so the
  /// run must report a correctness failure.
  bool inject_fault = false;
};

}  // namespace perfbench
