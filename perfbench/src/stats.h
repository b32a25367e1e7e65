// Order statistics for the benchmark's reports.
//
// A latency percentile is only reported when at least ten samples lie beyond
// it (choosing-metrics rule): p50 needs 20 samples, p90 needs 100, p99 needs
// 1000. Below that the tail is a handful of points and reads as noise.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

// Nearest-rank percentile of `values` at quantile q in (0, 1), or nullopt
// when fewer than kMinTailSamples samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> values, double q);

// Number of samples strictly beyond the nearest-rank q-percentile of n.
std::size_t SamplesBeyond(std::size_t n, double q);

// Median (mean of the two middle values for even n); 0 for an empty input.
double Median(std::vector<double> values);

// Smallest value; 0 for an empty input.
double Min(const std::vector<double>& values);

double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
