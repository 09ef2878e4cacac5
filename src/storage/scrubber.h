#pragma once

#include <cstdint>
#include <string>

#include "storage/raid_array.h"
#include "storage/scrub_types.h"
#include "storage/stripe_store.h"

/// Background scrubbing: the maintenance loop real deployments run
/// continuously so latent corruption is found (and repaired through the
/// erasure code) before a second fault turns it into data loss. Walks
/// the stripes of a StripeStore or RaidArray through their StripeEngine
/// with a resumable cursor, so a pass can proceed in small increments
/// interleaved with foreground traffic — call step() with a stripe
/// budget from wherever your event loop has slack, and the cursor picks
/// up where it left off, tolerating objects added or removed in between.
namespace tvmec::storage {

/// Aggregate counters for one scrub pass (or the running partial pass).
struct ScrubStats {
  std::size_t stripes_scanned = 0;
  std::size_t units_verified = 0;
  std::uint64_t bytes_verified = 0;
  std::size_t crc_errors = 0;
  std::size_t parity_errors = 0;
  std::size_t units_repaired = 0;
  std::size_t unrecoverable_stripes = 0;

  std::size_t errors() const noexcept { return crc_errors + parity_errors; }
  void add(const StripeScrubResult& r, std::size_t unit_size) noexcept {
    ++stripes_scanned;
    units_verified += r.units_verified;
    bytes_verified += static_cast<std::uint64_t>(r.units_verified) * unit_size;
    crc_errors += r.crc_errors;
    parity_errors += r.parity_errors;
    units_repaired += r.units_repaired;
    if (r.unrecoverable) ++unrecoverable_stripes;
  }
};

class Scrubber {
 public:
  /// Non-owning: the target must outlive the scrubber.
  explicit Scrubber(StripeStore& store) : engine_(&store.engine_) {}
  explicit Scrubber(RaidArray& array) : engine_(&array.engine_) {}

  /// Scrubs up to `max_stripes` stripes from the cursor. Returns the
  /// stats of *this increment*. When the increment reaches the end of
  /// the target, the pass completes: pass stats are latched into
  /// last_pass(), passes_completed() ticks, and the cursor rewinds.
  ScrubStats step(std::size_t max_stripes);

  /// Runs from the cursor to the end of the target (completing the
  /// current pass) and returns the stats of everything scanned by this
  /// call.
  ScrubStats run();

  /// Restarts the current pass from the beginning, discarding partial
  /// progress (completed-pass history is kept).
  void reset_cursor();

  std::size_t passes_completed() const noexcept { return passes_; }
  /// Aggregate stats of the most recently *completed* pass.
  const ScrubStats& last_pass() const noexcept { return last_; }
  /// Stats accumulated by the in-progress pass so far.
  const ScrubStats& current_pass() const noexcept { return current_; }

 private:
  /// Scrubs one stripe at the cursor and advances it. Returns false when
  /// the target is exhausted (pass complete) without scrubbing anything.
  bool scrub_next(ScrubStats& increment);
  void finish_pass();

  StripeEngine* engine_;
  // Cursor: the (name, stripe) key the next step resumes at; stripes
  // iterate in key order, so objects go by name.
  std::string cursor_name_;
  std::size_t cursor_stripe_ = 0;
  ScrubStats current_;
  ScrubStats last_;
  std::size_t passes_ = 0;
};

}  // namespace tvmec::storage
