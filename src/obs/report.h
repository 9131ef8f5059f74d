// RunReport: one JSON summary file per bench run (DESIGN.md §8) —
// identifying metadata (bench name, key parameters) plus a full metrics
// snapshot.  Written by the bench binaries when --metrics-out is set.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace spear::obs {

class RunReport {
 public:
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  /// Adds one metadata entry (insertion order is preserved in the output).
  void set(const std::string& key, const std::string& value);
  /// Without this overload a string literal would pick the bool overload
  /// (pointer-to-bool is a standard conversion, string is user-defined).
  void set(const std::string& key, const char* value) {
    set(key, std::string(value));
  }
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);
  /// Adds an already-rendered JSON value (object, array, ...) verbatim.
  void set_json(const std::string& key, std::string rendered_json);

  /// {"name":...,"meta":{...},"metrics":{...}} (metrics omitted when null).
  std::string to_json(const MetricsSnapshot* metrics = nullptr) const;

  /// Writes to_json() to `path`.  Throws std::runtime_error on failure.
  void write(const std::string& path,
             const MetricsSnapshot* metrics = nullptr) const;

 private:
  std::string name_;
  /// (key, pre-rendered JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace spear::obs
