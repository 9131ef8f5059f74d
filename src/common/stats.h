// Small descriptive-statistics helpers used by the evaluation harness:
// means, medians, percentiles, CDF extraction and pairwise win rates.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spear {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// SAMPLE standard deviation (Bessel's N-1 divisor); 0 for fewer than two
/// samples.  Convention: every stddev this repo reports treats its inputs
/// as a sample of a larger population (benchmark repetitions, job subsets),
/// so the unbiased N-1 estimator is the right one.  An earlier revision
/// divided by N while guarding n < 2 like a sample stddev; no committed CSV
/// carries a stddev-derived column, so only log lines changed.
double stddev(const std::vector<double>& xs);

double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// Linear-interpolation percentile, p in [0, 100].  Requires non-empty input.
double percentile(std::vector<double> xs, double p);

/// Median == 50th percentile.
double median(std::vector<double> xs);

/// Nearest-rank percentile over a histogram (index = value, entry = count):
/// the smallest index w such that at least pct% of the counted samples are
/// <= w.  0 when the histogram is empty.
double hist_percentile(const std::vector<std::int64_t>& hist, double pct);

/// Adds `from` into `into` bucket by bucket, growing `into` to fit.
void hist_add(std::vector<std::int64_t>& into,
              const std::vector<std::int64_t>& from);

/// One (x, F(x)) point per sample: the empirical CDF, sorted by x.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;  // fraction of samples <= value
};
std::vector<CdfPoint> empirical_cdf(std::vector<double> xs);

/// Fraction of indices where a[i] < b[i] (strictly better when lower-is-better).
/// Requires equal sizes.
double win_rate(const std::vector<double>& a, const std::vector<double>& b);

/// Fraction of indices where a[i] <= b[i].
double no_worse_rate(const std::vector<double>& a, const std::vector<double>& b);

/// Compact five-number-style summary for log lines.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};
Summary summarize(const std::vector<double>& xs);

/// Renders a Summary as a single human-readable line.
std::string to_string(const Summary& s);

}  // namespace spear
