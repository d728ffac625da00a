// Application requirements: constraints and rank.
//
// In mARGOt the application requirements are a constrained
// multi-objective optimization problem (Section II of the paper): an
// ordered list of constraints over EFP metrics, plus a *rank* — the
// objective used to order the operating points that satisfy every
// constraint.  Both may change at runtime (Figure 5 switches the rank
// from Throughput/Watt^2 to Throughput and back).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "margot/operating_point.hpp"

namespace socrates::margot {

enum class ComparisonOp { kLess, kLessEqual, kGreater, kGreaterEqual };

const char* to_string(ComparisonOp op);

/// True when `value <op> target`.
bool compare(double value, ComparisonOp op, double target);

/// A constraint on one metric.  `confidence` widens the test with the
/// point's standard deviation (value tested = mean +/- confidence *
/// stddev, in the pessimistic direction), mirroring mARGOt's
/// confidence-interval constraints.  Lower `priority` values are more
/// important and are relaxed last.
struct Constraint {
  std::size_t metric = 0;
  ComparisonOp op = ComparisonOp::kLess;
  double goal = 0.0;
  int priority = 0;
  double confidence = 0.0;
};

/// One term of a rank.  Geometric composition reads `weight` as the
/// exponent (metric^weight); linear composition reads it as the
/// coefficient (weight * metric).
struct RankTerm {
  std::size_t metric = 0;
  double weight = 1.0;
};

enum class RankDirection { kMaximize, kMinimize };

/// How the terms combine (both forms exist in mARGOt).
enum class RankComposition { kGeometric, kLinear };

/// The objective: maximize or minimize a combination of metrics.
/// Covers the paper's objectives directly:
///   Throughput            -> maximize throughput^1
///   Throughput per Watt^2 -> maximize throughput^1 * power^-2
///   Execution time        -> minimize exec_time^1
///   Energy per run        -> minimize power^1 * exec_time^1
///   Energy-delay product  -> minimize power^1 * exec_time^2
struct Rank {
  RankDirection direction = RankDirection::kMaximize;
  std::vector<RankTerm> terms;
  RankComposition composition = RankComposition::kGeometric;

  /// Evaluates the rank value of operating point `index` (uses metric
  /// means, rescaled by `correction[m]` when a feedback correction is
  /// given), reading the means straight from the KB's SoA columns.
  /// Every AS-RTM decision path scores points through this one
  /// function, so their scores are bit-identical.  A weight of exactly
  /// 1.0 skips pow.
  double evaluate(const KnowledgeBase& kb, std::size_t index,
                  const std::vector<double>& correction = {}) const;

  static Rank maximize_throughput(std::size_t throughput_metric);
  static Rank maximize_throughput_per_watt2(std::size_t throughput_metric,
                                            std::size_t power_metric);
  static Rank minimize_exec_time(std::size_t time_metric);
  /// Energy per kernel run: power * time (Joules).
  static Rank minimize_energy(std::size_t time_metric, std::size_t power_metric);
  /// Energy-delay product: power * time^2.
  static Rank minimize_energy_delay(std::size_t time_metric, std::size_t power_metric);
  /// Weighted sum (linear composition), e.g. a billing-style objective.
  static Rank linear(RankDirection direction, std::vector<RankTerm> terms);
};

}  // namespace socrates::margot
