#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

std::optional<double> TailPercentile(std::vector<double> values, double q) {
  if (values.empty() || SamplesBeyond(values.size(), q) < kMinTailSamples) {
    return std::nullopt;
  }
  const std::size_t index = values.size() - SamplesBeyond(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

}  // namespace perfbench
