#include "tune/tuning_log.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/variant.h"

namespace tvmec::tune {

namespace {

std::string shape_key(const TaskShape& shape) {
  return std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x" +
         std::to_string(shape.k);
}

TaskShape parse_shape_key(const std::string& key, const std::string& path,
                          std::size_t line_no) {
  TaskShape shape;
  char x1 = 0, x2 = 0;
  std::istringstream in(key);
  if (!(in >> shape.m >> x1 >> shape.n >> x2 >> shape.k) || x1 != 'x' ||
      x2 != 'x')
    throw std::runtime_error("load_log: malformed shape key at " + path +
                             ":" + std::to_string(line_no));
  return shape;
}

}  // namespace

void append_log(const std::string& path, const TaskShape& shape,
                const TuneResult& result) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("append_log: cannot open " + path);
  const std::string key = shape_key(shape);
  for (const TrialRecord& rec : result.history) {
    if (rec.failed) continue;  // only real measurements belong in the log
    out << key << " | " << rec.schedule.to_string() << " | "
        << rec.throughput << "\n";
  }
  // A kept incumbent outran every trial: log it too, so a reload installs
  // it rather than the slower best trial.
  if (result.best_throughput > result.best_after(result.history.size()))
    out << key << " | " << result.best_schedule.to_string() << " | "
        << result.best_throughput << "\n";
  if (!out) throw std::runtime_error("append_log: write failed on " + path);
}

std::optional<TuneResult> load_log(const std::string& path,
                                   const TaskShape& shape,
                                   LoadLogStats* stats) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string key = shape_key(shape);
  TuneResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // key | <schedule string, token count era-dependent> | throughput
    const std::size_t bar1 = line.find('|');
    const std::size_t bar2 =
        bar1 == std::string::npos ? std::string::npos : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos)
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    std::string rec_key;
    double throughput = 0;
    std::istringstream key_field(line.substr(0, bar1));
    std::istringstream value_field(line.substr(bar2 + 1));
    if (!(key_field >> rec_key) || !(value_field >> throughput))
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    if (rec_key != key) continue;
    std::string schedule_text = line.substr(bar1 + 1, bar2 - bar1 - 1);
    const std::size_t first = schedule_text.find_first_not_of(' ');
    const std::size_t last = schedule_text.find_last_not_of(' ');
    if (first == std::string::npos)
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    schedule_text = schedule_text.substr(first, last - first + 1);
    TrialRecord rec;
    try {
      rec.schedule = tensor::Schedule::parse(schedule_text);
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("load_log: bad schedule at " + path + ":" +
                               std::to_string(line_no));
    }
    if (rec.schedule.variant != tensor::KernelVariant::Auto &&
        !tensor::variant_available(rec.schedule.variant)) {
      // Tuned on a machine with a tier this host lacks; its measurement
      // is meaningless here. Skip it, keep the rest of the log.
      std::fprintf(stderr,
                   "tvmec: load_log: %s:%zu: dropping record tuned for "
                   "unavailable kernel variant '%s'\n",
                   path.c_str(), line_no,
                   tensor::to_string(rec.schedule.variant));
      if (stats != nullptr) ++stats->dropped_unavailable_variant;
      continue;
    }
    rec.throughput = throughput;
    if (rec.throughput > result.best_throughput) {
      result.best_throughput = rec.throughput;
      result.best_schedule = rec.schedule;
    }
    result.history.push_back(std::move(rec));
  }
  if (result.history.empty()) return std::nullopt;
  return result;
}

std::vector<LogRecord> load_log_all(const std::string& path,
                                    LoadLogStats* stats) {
  std::ifstream in(path);
  if (!in) return {};
  std::vector<LogRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t bar1 = line.find('|');
    const std::size_t bar2 =
        bar1 == std::string::npos ? std::string::npos : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos)
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    std::string rec_key;
    double throughput = 0;
    std::istringstream key_field(line.substr(0, bar1));
    std::istringstream value_field(line.substr(bar2 + 1));
    if (!(key_field >> rec_key) || !(value_field >> throughput))
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    LogRecord rec;
    rec.shape = parse_shape_key(rec_key, path, line_no);
    std::string schedule_text = line.substr(bar1 + 1, bar2 - bar1 - 1);
    const std::size_t first = schedule_text.find_first_not_of(' ');
    const std::size_t last = schedule_text.find_last_not_of(' ');
    if (first == std::string::npos)
      throw std::runtime_error("load_log: malformed record at " + path +
                               ":" + std::to_string(line_no));
    schedule_text = schedule_text.substr(first, last - first + 1);
    try {
      rec.schedule = tensor::Schedule::parse(schedule_text);
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("load_log: bad schedule at " + path + ":" +
                               std::to_string(line_no));
    }
    if (rec.schedule.variant != tensor::KernelVariant::Auto &&
        !tensor::variant_available(rec.schedule.variant)) {
      std::fprintf(stderr,
                   "tvmec: load_log: %s:%zu: dropping record tuned for "
                   "unavailable kernel variant '%s'\n",
                   path.c_str(), line_no,
                   tensor::to_string(rec.schedule.variant));
      if (stats != nullptr) ++stats->dropped_unavailable_variant;
      continue;
    }
    rec.throughput = throughput;
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace tvmec::tune
