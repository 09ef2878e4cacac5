#pragma once

#include <optional>
#include <string>

#include "tune/tuner.h"

/// Persistence for tuning results, mirroring TVM's tuning-record files:
/// measure once, reuse the best schedule forever (the paper's §6.1 setup
/// tunes for 20 000 trials precisely because the result is cached).
///
/// File format: one record per line,
///   `<task m>x<task n>x<task k> | <schedule to_string> | <throughput>`
/// Lines starting with '#' are comments. The format is stable and
/// human-diffable, like TVM's JSON logs but simpler. Older logs whose
/// schedule strings predate the parallel-axis or kernel-variant knobs
/// parse with those knobs defaulted (see Schedule::parse), so a log
/// survives library upgrades.
namespace tvmec::tune {

/// What load_log skipped and why (logs travel between machines, so some
/// records may not apply to the loading host).
struct LoadLogStats {
  /// Records whose schedule names a concrete kernel variant this host
  /// cannot execute (e.g. an avx512-tuned record loaded on an AVX2-only
  /// box). Dropped with a stderr warning rather than rejected: the rest
  /// of the log is still valid history here.
  std::size_t dropped_unavailable_variant = 0;
};

/// Appends every trial of `result` for `shape` to the log at `path`
/// (creating the file if needed), and its best when that outran every
/// trial (an incumbent tune kept). Throws std::runtime_error on I/O
/// failure.
void append_log(const std::string& path, const TaskShape& shape,
                const TuneResult& result);

/// Reads all records for the exact task shape and returns the recorded
/// history (in file order) as a TuneResult whose best_* fields are the
/// best recorded entry. Returns nullopt if the file does not exist or
/// holds no matching record. Throws std::runtime_error on a malformed
/// record line (corrupt log files should fail loudly, not silently
/// detune a production encoder). Records tuned for a kernel variant the
/// running host lacks are NOT an error: they are skipped with a counted
/// warning (`stats`, optional) — a cross-machine log is partially
/// usable, a corrupt one is not.
std::optional<TuneResult> load_log(const std::string& path,
                                   const TaskShape& shape,
                                   LoadLogStats* stats = nullptr);

/// One parsed log line, shape included.
struct LogRecord {
  TaskShape shape;
  tensor::Schedule schedule;
  double throughput = 0.0;
};

/// Reads *every* record in the log, in file order, regardless of task
/// shape — the warm-start path of the serving-layer schedule cache,
/// which wants the whole file in one pass instead of one load_log()
/// scan per shape it might ever see. Same error contract as load_log:
/// a missing file returns an empty vector, a malformed line throws,
/// and records tuned for a kernel variant this host lacks are skipped
/// with a counted warning.
std::vector<LogRecord> load_log_all(const std::string& path,
                                    LoadLogStats* stats = nullptr);

}  // namespace tvmec::tune
