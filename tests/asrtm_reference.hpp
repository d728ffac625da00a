// Brute-force reference oracle for AS-RTM decisions (test-only).
//
// margot::Asrtm decides through an epoch cache, a best-first walk over
// a rank order and a dense branchless relaxation.  This header restates
// the same semantics in the most direct form: constraints sorted by
// priority on every call, violations recomputed from the corrections,
// every survivor scored, runners-up by a stable sort of all scores.  It
// decides from the AS-RTM's public state only (knowledge(), rank(),
// snapshot().corrections and .health) plus the constraint list the test
// keeps, indexed by handle as in Asrtm.  asrtm_incremental_test drives
// randomized sequences through the engine and asserts that both decide
// bit-identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "margot/asrtm.hpp"
#include "support/error.hpp"

namespace socrates::margot::reference {

/// Runners-up a decision journal record keeps.
constexpr std::size_t kRunnersUp = 3;

/// True when violation `v` ties with the smallest violation seen, under
/// a combined absolute + relative tolerance.  A purely relative test
/// (`v <= min * (1 + 1e-12)`) collapses to exact equality once the
/// minimum is tiny or denormal — the product rounds back to `min` — and
/// drops ties that differ only by floating-point noise; the absolute
/// term keeps them.
inline bool violation_ties_minimum(double v, double min_violation) {
  return v <= min_violation + (1e-12 * min_violation + 1e-15);
}

/// Expected (corrected) value of metric `m` for point `op`.
inline double expected(const KnowledgeBase& kb, const std::vector<double>& corrections,
                       std::size_t op, std::size_t m) {
  return kb.metric_means(m)[op] * corrections[m];
}

/// Pessimistic test value for a constraint (mean +/- conf * stddev):
/// the upper bound for "<" goals, the lower bound for ">" goals.
inline double constraint_value(const KnowledgeBase& kb,
                               const std::vector<double>& corrections, std::size_t op,
                               const Constraint& c) {
  const double mean = expected(kb, corrections, op, c.metric);
  const double margin =
      c.confidence * kb.metric_stddevs(c.metric)[op] * corrections[c.metric];
  const bool upper = c.op == ComparisonOp::kLess || c.op == ComparisonOp::kLessEqual;
  return upper ? mean + margin : mean - margin;
}

/// How far `op` is from satisfying `c` (0 when satisfied).
inline double violation(const KnowledgeBase& kb, const std::vector<double>& corrections,
                        std::size_t op, const Constraint& c) {
  const double value = constraint_value(kb, corrections, op, c);
  if (compare(value, c.op, c.goal)) return 0.0;
  return std::abs(value - c.goal);
}

/// What Asrtm::find_best_operating_point should return, and what a
/// decision journal record of it should hold.
struct Decision {
  std::size_t chosen = 0;
  bool feasible = true;                   ///< no constraint was relaxed
  double score = 0.0;                     ///< rank value of `chosen`
  std::vector<DecisionCandidate> runners; ///< best non-chosen survivors, best first
  std::vector<std::size_t> quarantined;   ///< points excluded from selection
};

/// Decides as Asrtm::find_best_operating_point must, from the AS-RTM's
/// public state and `constraints`: every constraint the test added, in
/// handle order, with the goals it has set since.  Throws like the
/// engine when the rank cannot score a surviving point.
inline Decision decide(const Asrtm& asrtm, const std::vector<Constraint>& constraints) {
  const KnowledgeBase& kb = asrtm.knowledge();
  const Rank& rank = asrtm.rank();
  const Asrtm::Snapshot state = asrtm.snapshot();
  const std::vector<double>& corrections = state.corrections;
  const bool maximize = rank.direction == RankDirection::kMaximize;
  Decision decision;

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < kb.size(); ++i) {
    if (state.health[i].cooldown > 0)
      decision.quarantined.push_back(i);
    else
      candidates.push_back(i);
  }
  if (candidates.empty()) {
    // Every point is quarantined: the historically safest one (fewest
    // quarantines, then shortest remaining cooldown, then lowest index).
    std::size_t safest = 0;
    for (std::size_t i = 1; i < kb.size(); ++i) {
      const Asrtm::OpHealth& a = state.health[i];
      const Asrtm::OpHealth& b = state.health[safest];
      if (a.times_quarantined < b.times_quarantined ||
          (a.times_quarantined == b.times_quarantined && a.cooldown < b.cooldown))
        safest = i;
    }
    decision.chosen = safest;
    decision.feasible = false;
    decision.score = rank.evaluate(kb, safest, corrections);
    return decision;
  }

  std::vector<const Constraint*> ordered;
  for (const Constraint& c : constraints) ordered.push_back(&c);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Constraint* a, const Constraint* b) {
                     return a->priority < b->priority;
                   });
  for (const Constraint* c : ordered) {
    std::vector<std::size_t> satisfying;
    std::vector<double> violations;
    double min_violation = std::numeric_limits<double>::infinity();
    for (const std::size_t i : candidates) {
      const double v = violation(kb, corrections, i, *c);
      violations.push_back(v);
      if (v == 0.0)
        satisfying.push_back(i);
      else
        min_violation = std::min(min_violation, v);
    }
    if (!satisfying.empty()) {
      candidates = std::move(satisfying);
      continue;
    }
    // Nothing satisfies this constraint: keep the least-violating
    // points and go on with the lower-priority constraints among them.
    decision.feasible = false;
    std::vector<std::size_t> least;
    for (std::size_t k = 0; k < candidates.size(); ++k)
      if (violation_ties_minimum(violations[k], min_violation))
        least.push_back(candidates[k]);
    candidates = std::move(least);
  }
  SOCRATES_ENSURE(!candidates.empty());

  // The first strictly better score wins, so ties go to the lowest index.
  std::vector<DecisionCandidate> scored;
  for (const std::size_t i : candidates)
    scored.push_back({i, rank.evaluate(kb, i, corrections)});
  DecisionCandidate best = scored.front();
  for (const DecisionCandidate& c : scored)
    if (maximize ? c.score > best.score : c.score < best.score) best = c;
  decision.chosen = best.op_index;
  decision.score = best.score;

  std::erase_if(scored,
                [&](const DecisionCandidate& c) { return c.op_index == best.op_index; });
  std::stable_sort(scored.begin(), scored.end(),
                   [maximize](const DecisionCandidate& a, const DecisionCandidate& b) {
                     return maximize ? a.score > b.score : a.score < b.score;
                   });
  if (scored.size() > kRunnersUp) scored.resize(kRunnersUp);
  decision.runners = std::move(scored);
  return decision;
}

}  // namespace socrates::margot::reference
