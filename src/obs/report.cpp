#include "obs/report.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace spear::obs {

void RunReport::set(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void RunReport::set(const std::string& key, std::int64_t value) {
  meta_.emplace_back(key, std::to_string(value));
}

void RunReport::set(const std::string& key, double value) {
  meta_.emplace_back(key, json_number(value));
}

void RunReport::set(const std::string& key, bool value) {
  meta_.emplace_back(key, value ? "true" : "false");
}

void RunReport::set_json(const std::string& key, std::string rendered_json) {
  meta_.emplace_back(key, std::move(rendered_json));
}

std::string RunReport::to_json(const MetricsSnapshot* metrics) const {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name_) << "\",\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    os << (first ? "" : ",") << '"' << json_escape(key) << "\":" << value;
    first = false;
  }
  os << "}";
  if (metrics != nullptr) {
    os << ",\"metrics\":" << metrics->to_json();
  }
  os << "}\n";
  return os.str();
}

void RunReport::write(const std::string& path,
                      const MetricsSnapshot* metrics) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("RunReport: cannot open " + path);
  }
  const std::string json = to_json(metrics);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

}  // namespace spear::obs
