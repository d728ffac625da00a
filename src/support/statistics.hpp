// Descriptive statistics used by the monitors, the DSE engine and the
// figure-reproduction benches (boxplots in Figure 3 of the paper).
#pragma once

#include <cstddef>
#include <vector>

namespace socrates {

/// Welford-style running statistics over a stream of doubles.
/// Numerically stable; O(1) per observation, O(1) state.
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the observations.  Requires count() > 0.
  double mean() const;
  /// Unbiased sample variance.  Returns 0 for fewer than two samples.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolated quantile (type-7, the R/NumPy default).
/// `q` must lie in [0, 1]; `sorted` must be non-empty and ascending.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Convenience: copies, sorts, then calls quantile_sorted.
double quantile(std::vector<double> values, double q);

/// Median absolute deviation is not needed; the boxplot summary is.
/// Five-number boxplot summary with Tukey 1.5*IQR whiskers.
struct BoxplotSummary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_low = 0.0;   ///< smallest sample >= q1 - 1.5*IQR
  double whisker_high = 0.0;  ///< largest sample <= q3 + 1.5*IQR
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
  std::size_t n_outliers = 0;  ///< samples outside the whiskers
};

/// Computes the summary.  `values` must be non-empty.
BoxplotSummary boxplot_summary(std::vector<double> values);

/// Divides every element by `denom` (> 0).  Used to normalize the
/// Pareto-set metric distributions in the Figure 3 reproduction.
std::vector<double> normalized_by(const std::vector<double>& values, double denom);

/// Arithmetic mean of a non-empty vector.
double mean_of(const std::vector<double>& values);

/// Geometric mean of a non-empty vector of positive values.
double geometric_mean_of(const std::vector<double>& values);

}  // namespace socrates
