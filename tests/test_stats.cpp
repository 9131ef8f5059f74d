#include "common/stats.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

namespace spear {
namespace {

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, StddevBasics) {
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({4.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({2.0, 2.0, 2.0}), 0.0);
  // Sample (N-1) sd of {1, 3}: sqrt(((1-2)^2 + (3-2)^2) / 1) = sqrt(2).
  EXPECT_DOUBLE_EQ(stddev({1.0, 3.0}), std::sqrt(2.0));
  // Sample sd of {2, 4, 4, 4, 5, 5, 7, 9}: variance 32/7.
  EXPECT_DOUBLE_EQ(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                   std::sqrt(32.0 / 7.0));
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(min_of({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(max_of({3.0, -1.0, 2.0}), 3.0);
  EXPECT_TRUE(std::isnan(min_of({})));
  EXPECT_TRUE(std::isnan(max_of({})));
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
}

TEST(Stats, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 20.0}, 50.0), 20.0);
}

TEST(Stats, PercentileClampsP) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 200.0), 2.0);
}

TEST(Stats, PercentileEmptyThrows) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, HistPercentileNearestRank) {
  EXPECT_EQ(hist_percentile({}, 50.0), 0.0);
  EXPECT_EQ(hist_percentile({0, 0, 0}, 99.0), 0.0);
  // 10 samples of value 1: every percentile is 1.
  std::vector<std::int64_t> hist(5, 0);
  hist[1] = 10;
  EXPECT_EQ(hist_percentile(hist, 50.0), 1.0);
  EXPECT_EQ(hist_percentile(hist, 99.0), 1.0);
  // 9 of value 1, 1 of value 4: p50 = 1, p99 lands on the large one.
  hist[4] = 1;
  hist[1] = 9;
  EXPECT_EQ(hist_percentile(hist, 50.0), 1.0);
  EXPECT_EQ(hist_percentile(hist, 99.0), 4.0);
}

TEST(Stats, EmpiricalCdf) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.front().fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  // Non-decreasing in both coordinates.
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(Stats, WinRate) {
  EXPECT_DOUBLE_EQ(win_rate({1.0, 5.0, 2.0}, {2.0, 5.0, 1.0}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(win_rate({}, {}), 0.0);
}

TEST(Stats, NoWorseRate) {
  EXPECT_DOUBLE_EQ(no_worse_rate({1.0, 5.0, 2.0}, {2.0, 5.0, 1.0}),
                   2.0 / 3.0);
}

TEST(Stats, WinRateSizeMismatchThrows) {
  EXPECT_THROW(win_rate({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(no_worse_rate({1.0}, {}), std::invalid_argument);
}

TEST(Stats, SummaryFields) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(2.5));  // sample variance 10/4
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummaryToStringMentionsFields) {
  const auto text = to_string(summarize({1.0, 2.0}));
  EXPECT_NE(text.find("n=2"), std::string::npos);
  EXPECT_NE(text.find("mean="), std::string::npos);
  EXPECT_NE(text.find("med="), std::string::npos);
}

}  // namespace
}  // namespace spear
