// Tests for operating points, the knowledge base and the AS-RTM
// decision engine (constraint filtering, graceful degradation, rank,
// online knowledge adaptation).
#include <gtest/gtest.h>

#include <limits>

#include "asrtm_reference.hpp"
#include "margot/asrtm.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::margot {
namespace {

/// Small synthetic knowledge base:
///   op0: slow & frugal   (t=10, p=50,  thr=0.1)
///   op1: medium          (t=4,  p=80,  thr=0.25)
///   op2: fast & hungry   (t=1,  p=140, thr=1.0)
KnowledgeBase tiny_kb() {
  KnowledgeBase kb({"config", "threads"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0, 1}, {{10.0, 0.5}, {50.0, 1.0}, {0.1, 0.005}}});
  kb.add(OperatingPoint{{1, 8}, {{4.0, 0.2}, {80.0, 2.0}, {0.25, 0.0125}}});
  kb.add(OperatingPoint{{2, 32}, {{1.0, 0.05}, {140.0, 3.0}, {1.0, 0.05}}});
  return kb;
}

constexpr std::size_t kTime = 0;
constexpr std::size_t kPower = 1;
constexpr std::size_t kThr = 2;

TEST(KnowledgeBase, SchemaAndLookup) {
  const auto kb = tiny_kb();
  EXPECT_EQ(kb.size(), 3u);
  EXPECT_EQ(kb.metric_index("power_w"), 1u);
  EXPECT_EQ(kb.knob_index("threads"), 1u);
  EXPECT_THROW(kb.metric_index("nope"), ContractViolation);
  EXPECT_EQ(kb.find({1, 8}), 1u);
  EXPECT_EQ(kb.find({9, 9}), std::nullopt);
}

TEST(KnowledgeBase, RejectsDuplicatesAndBadShapes) {
  auto kb = tiny_kb();
  EXPECT_THROW(kb.add(OperatingPoint{{0, 1}, {{1, 0}, {1, 0}, {1, 0}}}),
               ContractViolation);
  EXPECT_THROW(kb.add(OperatingPoint{{5}, {{1, 0}, {1, 0}, {1, 0}}}), ContractViolation);
  EXPECT_THROW(kb.add(OperatingPoint{{5, 5}, {{1, 0}}}), ContractViolation);
}

TEST(Asrtm, UnconstrainedRankMaximizeThroughput) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
  EXPECT_TRUE(asrtm.last_selection_feasible());
}

TEST(Asrtm, UnconstrainedRankMinimizeTime) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
}

TEST(Asrtm, PowerBudgetFiltersFastPoint) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_TRUE(asrtm.last_selection_feasible());
}

TEST(Asrtm, InfeasibleBudgetDegradesToLeastViolating) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 40.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);  // 50 W is closest to 40 W
  EXPECT_FALSE(asrtm.last_selection_feasible());
}

TEST(Asrtm, ConstraintGoalCanChangeAtRuntime) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  const auto h = asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 60.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  asrtm.set_constraint_goal(h, 150.0);
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
}

TEST(Asrtm, PriorityOrderMatters) {
  // Conflicting constraints: power <= 60 (prio 0) and thr >= 0.2 (prio 1).
  // No point satisfies both; the high-priority power cap must win and
  // within its survivors the throughput constraint is relaxed.
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 60.0, 0, 0.0});
  asrtm.add_constraint({kThr, ComparisonOp::kGreaterEqual, 0.2, 1, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  EXPECT_FALSE(asrtm.last_selection_feasible());
}

TEST(Asrtm, ConfidenceWidensTheTest) {
  // op1 power = 80 +/- 2; with 3-sigma confidence the pessimistic value
  // is 86, so an 85 W budget rejects it.
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 85.0, 0, 3.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  asrtm.clear_constraints();
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 85.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
}

TEST(Asrtm, ThroughputPerWattSquaredPrefersBalanced) {
  // Thr/W^2: op0 = .1/2500 = 4e-5; op1 = .25/6400 = 3.9e-5;
  // op2 = 1/19600 = 5.1e-5 -> op2 wins; shrink its throughput and it loses.
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
}

TEST(Asrtm, FeedbackShiftsSelection) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  // The platform now draws 30% more power than profiled: op1 (80 W)
  // exceeds 100 W once corrected, so the AS-RTM must fall back to op0.
  asrtm.set_feedback_inertia(1.0);
  asrtm.send_feedback(1, kPower, 104.0);
  EXPECT_NEAR(asrtm.correction(kPower), 1.3, 1e-12);
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
}

TEST(Asrtm, FeedbackIsEwma) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_feedback_inertia(0.5);
  asrtm.send_feedback(0, kTime, 20.0);  // ratio 2.0
  EXPECT_NEAR(asrtm.correction(kTime), 1.5, 1e-12);
  asrtm.send_feedback(0, kTime, 20.0);
  EXPECT_NEAR(asrtm.correction(kTime), 1.75, 1e-12);
  asrtm.reset_feedback();
  EXPECT_DOUBLE_EQ(asrtm.correction(kTime), 1.0);
}

TEST(Asrtm, RankEvaluateUsesCorrections) {
  const auto kb = tiny_kb();
  const Rank rank = Rank::maximize_throughput_per_watt2(kThr, kPower);
  const double base = rank.evaluate(kb, 2);
  const double corrected = rank.evaluate(kb, 2, {1.0, 2.0, 1.0});  // power doubled
  EXPECT_NEAR(corrected, base / 4.0, 1e-12);
}

TEST(Asrtm, NearZeroViolationTiesSurvive) {
  // Both points violate the (unsatisfiable) power cap by ~1e-16 — pure
  // floating-point noise.  A relative-only tie tolerance collapses at
  // this scale and drops op1, hiding its 4x better throughput; the
  // combined absolute+relative tolerance keeps both in play so the rank
  // decides.
  KnowledgeBase kb({"k"}, {"power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{1e-16, 0.0}, {0.5, 0.0}}});
  kb.add(OperatingPoint{{1}, {{2e-16, 0.0}, {2.0, 0.0}}});
  Asrtm asrtm(kb);
  asrtm.set_rank(Rank::maximize_throughput(1));
  asrtm.add_constraint({0, ComparisonOp::kLess, 0.0, 0, 0.0});
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_selection_feasible());
}

TEST(ViolationTies, CombinedToleranceKeepsDenormalTies) {
  using reference::violation_ties_minimum;
  const double denormal = 5e-324;
  EXPECT_TRUE(violation_ties_minimum(denormal, denormal));
  EXPECT_TRUE(violation_ties_minimum(3 * denormal, denormal));
  EXPECT_TRUE(violation_ties_minimum(1e-16, 0.0));
  EXPECT_FALSE(violation_ties_minimum(1e-9, 0.0));
  // At normal magnitudes the relative term still governs.
  EXPECT_TRUE(violation_ties_minimum(10.0 * (1.0 + 1e-13), 10.0));
  EXPECT_FALSE(violation_ties_minimum(10.0 * (1.0 + 1e-9), 10.0));
}

TEST(Asrtm, ZeroObservedFeedbackIsRejectedGracefully) {
  // A stalled kernel observes zero throughput; that must not abort the
  // process (the old SOCRATES_REQUIRE did), must leave the correction
  // untouched, and must be visible to the metrics and the event sink.
  Asrtm asrtm(tiny_kb());
  std::vector<RuntimeEvent> events;
  asrtm.set_event_sink([&events](const RuntimeEvent& e) { events.push_back(e); });
  asrtm.send_feedback(1, kPower, 0.0);
  asrtm.send_feedback(1, kPower, -3.0);
  asrtm.send_feedback(1, kPower, std::numeric_limits<double>::quiet_NaN());
  asrtm.send_feedback(1, kPower, std::numeric_limits<double>::infinity());
  EXPECT_EQ(asrtm.feedback_rejected(), 4u);
  EXPECT_DOUBLE_EQ(asrtm.correction(kPower), 1.0);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& e : events)
    EXPECT_EQ(e.kind, RuntimeEvent::Kind::kFeedbackRejected);
  // Valid feedback still adapts.
  asrtm.set_feedback_inertia(1.0);
  asrtm.send_feedback(1, kPower, 104.0);
  EXPECT_EQ(asrtm.feedback_rejected(), 4u);
  EXPECT_NEAR(asrtm.correction(kPower), 1.3, 1e-12);
}

TEST(Asrtm, OverflowingFeedbackRatioIsRejectedGracefully) {
  // A finite, positive observation whose ratio to a tiny prediction
  // overflows: accepted, it would set the correction to inf, and the
  // running average of inf stays inf whatever sane reports follow.
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{1.0, 0.0}, {50.0, 0.0}, {1e-10, 0.0}}});
  kb.add(OperatingPoint{{1}, {{2.0, 0.0}, {40.0, 0.0}, {0.5, 0.0}}});
  Asrtm asrtm(kb);
  std::vector<RuntimeEvent> events;
  asrtm.set_event_sink([&events](const RuntimeEvent& e) { events.push_back(e); });
  asrtm.send_feedback(0, kThr, 1e300);
  // The underflowing direction is rejected alike.
  asrtm.send_feedback(1, kThr, 1e-320);
  EXPECT_EQ(asrtm.feedback_rejected(), 2u);
  EXPECT_DOUBLE_EQ(asrtm.correction(kThr), 1.0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, RuntimeEvent::Kind::kFeedbackRejected);
  EXPECT_EQ(events[1].kind, RuntimeEvent::Kind::kFeedbackRejected);
  for (int i = 0; i < 1000; ++i) asrtm.send_feedback(0, kThr, 2e-10);
  EXPECT_EQ(asrtm.feedback_rejected(), 2u);
  EXPECT_NEAR(asrtm.correction(kThr), 2.0, 1e-9);
}

TEST(Asrtm, RejectsForeignMetricIndices) {
  Asrtm asrtm(tiny_kb());
  EXPECT_THROW(asrtm.add_constraint({9, ComparisonOp::kLess, 1.0, 0, 0.0}),
               ContractViolation);
  EXPECT_THROW(asrtm.set_rank(Rank{RankDirection::kMaximize, {{7, 1.0}}}),
               ContractViolation);
  EXPECT_THROW(asrtm.send_feedback(0, 9, 1.0), ContractViolation);
}

// ---- property sweep over random knowledge bases --------------------------------

class AsrtmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsrtmProperty, SelectionSatisfiesSatisfiableConstraints) {
  // For random KBs and random feasible budgets, the selected point must
  // satisfy the constraint whenever any point does, and be rank-optimal
  // among the satisfying points.
  Rng rng(GetParam());
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  const std::size_t n = 30;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.1, 10.0);
    const double p = rng.uniform(45.0, 150.0);
    kb.add(OperatingPoint{{static_cast<int>(i)}, {{t, 0.0}, {p, 0.0}, {1.0 / t, 0.0}}});
  }
  Asrtm asrtm(kb);
  asrtm.set_rank(Rank::minimize_exec_time(0));
  const auto handle = asrtm.add_constraint({1, ComparisonOp::kLessEqual, 0.0, 0, 0.0});

  for (int round = 0; round < 25; ++round) {
    const double budget = rng.uniform(40.0, 160.0);
    asrtm.set_constraint_goal(handle, budget);
    const std::size_t chosen = asrtm.find_best_operating_point();

    bool any_satisfies = false;
    double best_time = 1e100;
    for (std::size_t i = 0; i < kb.size(); ++i) {
      if (kb[i].metrics[1].mean > budget) continue;
      any_satisfies = true;
      best_time = std::min(best_time, kb[i].metrics[0].mean);
    }
    if (any_satisfies) {
      EXPECT_TRUE(asrtm.last_selection_feasible());
      EXPECT_LE(kb[chosen].metrics[1].mean, budget);
      EXPECT_DOUBLE_EQ(kb[chosen].metrics[0].mean, best_time);
    } else {
      EXPECT_FALSE(asrtm.last_selection_feasible());
      // Least-violating: no point has lower power.
      for (std::size_t i = 0; i < kb.size(); ++i)
        EXPECT_GE(kb[i].metrics[1].mean, kb[chosen].metrics[1].mean - 1e-9);
    }
  }
}

TEST_P(AsrtmProperty, RankOrderingIsTotalAndStable) {
  Rng rng(GetParam() * 31);
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < 20; ++i) {
    const double t = rng.uniform(0.1, 10.0);
    kb.add(OperatingPoint{{static_cast<int>(i)},
                          {{t, 0.0}, {rng.uniform(50.0, 150.0), 0.0}, {1.0 / t, 0.0}}});
  }
  Asrtm asrtm(kb);
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(2, 1));
  const std::size_t a = asrtm.find_best_operating_point();
  const std::size_t b = asrtm.find_best_operating_point();
  EXPECT_EQ(a, b);
  const Rank rank = Rank::maximize_throughput_per_watt2(2, 1);
  for (std::size_t i = 0; i < kb.size(); ++i)
    EXPECT_GE(rank.evaluate(kb, a), rank.evaluate(kb, i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsrtmProperty, ::testing::Values(11, 22, 33, 44, 55));

TEST(Comparison, AllOperators) {
  EXPECT_TRUE(compare(1.0, ComparisonOp::kLess, 2.0));
  EXPECT_FALSE(compare(2.0, ComparisonOp::kLess, 2.0));
  EXPECT_TRUE(compare(2.0, ComparisonOp::kLessEqual, 2.0));
  EXPECT_TRUE(compare(3.0, ComparisonOp::kGreater, 2.0));
  EXPECT_TRUE(compare(2.0, ComparisonOp::kGreaterEqual, 2.0));
}

}  // namespace
}  // namespace socrates::margot
