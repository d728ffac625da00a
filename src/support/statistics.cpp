#include "support/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace socrates {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::mean() const {
  SOCRATES_REQUIRE(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  SOCRATES_REQUIRE(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  SOCRATES_REQUIRE(n_ > 0);
  return max_;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  SOCRATES_REQUIRE(!sorted.empty());
  SOCRATES_REQUIRE_MSG(std::isfinite(q) && q >= 0.0 && q <= 1.0,
                       "quantile requires q in [0, 1], got " << q);
  // A NaN poisons std::sort's ordering, so the interpolation below
  // would silently read from the wrong ranks; reject it up front.
  for (const double v : sorted)
    SOCRATES_REQUIRE_MSG(!std::isnan(v), "quantile input contains NaN");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

BoxplotSummary boxplot_summary(std::vector<double> values) {
  SOCRATES_REQUIRE(!values.empty());
  std::sort(values.begin(), values.end());
  BoxplotSummary s;
  s.n = values.size();
  s.min = values.front();
  s.max = values.back();
  s.q1 = quantile_sorted(values, 0.25);
  s.median = quantile_sorted(values, 0.50);
  s.q3 = quantile_sorted(values, 0.75);
  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  // Non-finite fences (e.g. an all-infinite sample makes the IQR NaN)
  // match no value; the box edges are then the only sane whiskers.
  bool found_low = false;
  bool found_high = false;
  for (const double v : values) {
    if (v >= lo_fence) {
      s.whisker_low = v;
      found_low = true;
      break;  // sorted: the first in-fence sample is the low whisker
    }
  }
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    if (*it <= hi_fence) {
      s.whisker_high = *it;
      found_high = true;
      break;
    }
  }
  if (!found_low) s.whisker_low = s.q1;
  if (!found_high) s.whisker_high = s.q3;
  for (const double v : values) {
    if (v < lo_fence || v > hi_fence) ++s.n_outliers;
  }
  return s;
}

std::vector<double> normalized_by(const std::vector<double>& values, double denom) {
  SOCRATES_REQUIRE(denom > 0.0);
  std::vector<double> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(v / denom);
  return out;
}

double mean_of(const std::vector<double>& values) {
  SOCRATES_REQUIRE(!values.empty());
  double s = 0.0;
  for (const double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double geometric_mean_of(const std::vector<double>& values) {
  SOCRATES_REQUIRE(!values.empty());
  double log_sum = 0.0;
  for (const double v : values) {
    SOCRATES_REQUIRE_MSG(v > 0.0, "geometric mean requires positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace socrates
