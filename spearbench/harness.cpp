#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "dag/features.h"
#include "obs/json.h"

namespace spearbench {

double nearest_rank(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 0.0;
}

double makespan_lower_bound(const spear::Dag& dag,
                            const spear::ResourceVector& capacity) {
  double bound =
      static_cast<double>(spear::DagFeatures(dag).critical_path());
  for (std::size_t r = 0; r < capacity.dims(); ++r) {
    bound = std::max(bound, dag.total_load(r) / capacity[r]);
  }
  return bound;
}

std::vector<double> poisson_due_times(double rate, double seconds,
                                      std::uint64_t seed) {
  // Given its count, a Poisson process's arrival times are independent
  // uniforms on the window; fixing the count at its mean removes the count
  // noise from run-to-run comparisons.
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  spear::Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

// --- spans ---------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int32_t SpanRecorder::open(const char* name, std::int32_t parent,
                                std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = thread_index();
  span.start_ns = now_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t SpanRecorder::add(const char* name, Clock::time_point start,
                               Clock::time_point end, std::int32_t parent,
                               std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = thread_index();
  span.start_ns = now_ns(start);
  span.end_ns = now_ns(end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::close_at(std::int32_t id, Clock::time_point end) {
  const std::int64_t end_ns = now_ns(end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  root_.store(-1, std::memory_order_relaxed);
}

void SpanRecorder::write_jsonl(const std::string& path,
                               std::size_t max_per_name) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  std::map<std::string, std::size_t> written;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (written[s.name]++ >= max_per_name) continue;
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    // Union of the direct children's intervals, clipped to this span:
    // children on parallel threads overlap and must not be subtracted twice.
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;

    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return totals;
}

// --- result line ---------------------------------------------------------

namespace {

std::string first_line_of(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) break;
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

}  // namespace

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << spear::obs::json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string run_record_json(const std::string& workload, std::uint64_t seed,
                            int seconds, bool trace,
                            const std::string& source_id) {
  std::ostringstream os;
  using spear::obs::json_escape;
  os << "{\"record\": {\"workload\": \"" << json_escape(workload)
     << "\", \"seed\": " << seed << ", \"seconds\": " << seconds
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"source\": \""
     << json_escape(source_id) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << json_escape(first_line_of("/proc/cpuinfo", "model name"))
     << "\", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"build_type\": \"" << SPEARBENCH_BUILD_TYPE
     << "\", \"spear_native\": \"OFF\", \"spear_sanitize\": \"OFF\"}}";
  return os.str();
}

}  // namespace spearbench
