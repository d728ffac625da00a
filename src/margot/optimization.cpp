#include "margot/optimization.hpp"

#include <cmath>

#include "support/error.hpp"

namespace socrates::margot {

const char* to_string(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kLess: return "<";
    case ComparisonOp::kLessEqual: return "<=";
    case ComparisonOp::kGreater: return ">";
    case ComparisonOp::kGreaterEqual: return ">=";
  }
  return "?";
}

bool compare(double value, ComparisonOp op, double target) {
  switch (op) {
    case ComparisonOp::kLess: return value < target;
    case ComparisonOp::kLessEqual: return value <= target;
    case ComparisonOp::kGreater: return value > target;
    case ComparisonOp::kGreaterEqual: return value >= target;
  }
  return false;
}

double Rank::evaluate(const KnowledgeBase& kb, std::size_t index,
                      const std::vector<double>& correction) const {
  const std::size_t metric_count = kb.metric_names().size();
  const auto corrected_metric = [&](const RankTerm& term) {
    SOCRATES_REQUIRE(term.metric < metric_count);
    double metric = kb.metric_means(term.metric)[index];
    if (!correction.empty()) {
      SOCRATES_REQUIRE(term.metric < correction.size());
      metric *= correction[term.metric];
    }
    return metric;
  };

  if (composition == RankComposition::kLinear) {
    double value = 0.0;
    for (const RankTerm& term : terms) value += term.weight * corrected_metric(term);
    return value;
  }

  double value = 1.0;
  for (const RankTerm& term : terms) {
    const double metric = corrected_metric(term);
    SOCRATES_REQUIRE_MSG(metric > 0.0,
                         "geometric rank requires positive metrics, got " << metric);
    // pow(x, 1.0) == x exactly; skipping it keeps weight-1 terms free.
    value *= term.weight == 1.0 ? metric : std::pow(metric, term.weight);
  }
  return value;
}

Rank Rank::maximize_throughput(std::size_t throughput_metric) {
  return Rank{RankDirection::kMaximize, {{throughput_metric, 1.0}}};
}

Rank Rank::maximize_throughput_per_watt2(std::size_t throughput_metric,
                                         std::size_t power_metric) {
  return Rank{RankDirection::kMaximize,
              {{throughput_metric, 1.0}, {power_metric, -2.0}}};
}

Rank Rank::minimize_exec_time(std::size_t time_metric) {
  return Rank{RankDirection::kMinimize, {{time_metric, 1.0}}};
}

Rank Rank::minimize_energy(std::size_t time_metric, std::size_t power_metric) {
  return Rank{RankDirection::kMinimize, {{power_metric, 1.0}, {time_metric, 1.0}}};
}

Rank Rank::minimize_energy_delay(std::size_t time_metric, std::size_t power_metric) {
  return Rank{RankDirection::kMinimize, {{power_metric, 1.0}, {time_metric, 2.0}}};
}

Rank Rank::linear(RankDirection direction, std::vector<RankTerm> terms) {
  Rank rank;
  rank.direction = direction;
  rank.terms = std::move(terms);
  rank.composition = RankComposition::kLinear;
  return rank;
}

}  // namespace socrates::margot
