#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace spear {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  // Sample (N-1) divisor — see the convention note in stats.h.
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double min_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    throw std::invalid_argument("percentile of an empty range");
  }
  p = std::clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double hist_percentile(const std::vector<std::int64_t>& hist, double pct) {
  std::int64_t total = 0;
  for (const std::int64_t c : hist) total += c;
  if (total <= 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(total)));
  std::int64_t cumulative = 0;
  for (std::size_t w = 0; w < hist.size(); ++w) {
    cumulative += hist[w];
    if (cumulative >= rank && hist[w] > 0) return static_cast<double>(w);
  }
  return static_cast<double>(hist.size() - 1);
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<CdfPoint> out;
  out.reserve(xs.size());
  const auto n = static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back({xs[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

double win_rate(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("win_rate: size mismatch");
  }
  if (a.empty()) return 0.0;
  std::size_t wins = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) ++wins;
  }
  return static_cast<double>(wins) / static_cast<double>(a.size());
}

double no_worse_rate(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("no_worse_rate: size mismatch");
  }
  if (a.empty()) return 0.0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] <= b[i]) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(a.size());
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = min_of(xs);
  s.max = max_of(xs);
  s.p25 = percentile(xs, 25.0);
  s.median = percentile(xs, 50.0);
  s.p75 = percentile(xs, 75.0);
  return s;
}

std::string to_string(const Summary& s) {
  std::ostringstream os;
  os << "n=" << s.count << " mean=" << s.mean << " sd=" << s.stddev
     << " min=" << s.min << " p25=" << s.p25 << " med=" << s.median
     << " p75=" << s.p75 << " max=" << s.max;
  return os.str();
}

}  // namespace spear
