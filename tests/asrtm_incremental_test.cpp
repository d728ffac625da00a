// Differential and cache-invalidation tests for the AS-RTM decision
// engine.
//
// The engine (epoch cache, per-constraint columns, the best-first
// rank-order walk, the dense fallback, scratch buffers, bounded top-k)
// must be *bit-identical* to the brute-force oracle in
// asrtm_reference.hpp: the fuzz test drives randomized
// mutation/decide/feedback/rank-switch/invalidate sequences under every
// Rank factory, on small, large and power-correlated (both walk past the
// sorted head), tie-heavy and extreme-magnitude knowledge bases, with
// the journal on and off.  At every decision it asserts the oracle's
// chosen index and feasibility; on every journaled switch also its
// score, runners-up (bit for bit) and quarantine list.  The targeted
// tests pin the invalidation rules one by one: clean epochs are served
// from the cache, a changed correction dirties the epoch and only the
// columns of its own metric while bit-identical feedback dirties
// nothing, quarantine transitions dirty the epoch (and ticks without
// active cooldowns do not), restore always lands dirty with a monotonic
// epoch, a feasible dirty decision scores a bounded number of points
// while an infeasible one takes the dense relaxation, extreme magnitudes
// take the dense path, and a non-positive rank metric on a point the
// selection never reads does not stop a decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "asrtm_reference.hpp"
#include "margot/asrtm.hpp"
#include "observability/metrics.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::margot {
namespace {

constexpr std::size_t kTime = 0;
constexpr std::size_t kPower = 1;
constexpr std::size_t kThr = 2;

KnowledgeBase random_kb(Rng& rng, std::size_t n) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.1, 10.0);
    const double p = rng.uniform(45.0, 150.0);
    kb.add(OperatingPoint{{static_cast<int>(i)},
                          {{t, 0.05 * t}, {p, 0.02 * p}, {1.0 / t, 0.01 / t}}});
  }
  return kb;
}

/// Faster points draw more power, so a power cap rules out the best
/// keys of a throughput rank and the walk must go deep into the order.
KnowledgeBase correlated_kb(Rng& rng, std::size_t n) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.1, 10.0);
    const double p = (45.0 + 11.0 * (10.0 - t)) * rng.uniform(0.95, 1.05);
    kb.add(OperatingPoint{{static_cast<int>(i)},
                          {{t, 0.05 * t}, {p, 0.02 * p}, {1.0 / t, 0.01 / t}}});
  }
  return kb;
}

/// Few distinct metric values: many points share a key and a score
/// exactly, so ties are decided by index.
KnowledgeBase tied_kb(Rng& rng, std::size_t n) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  constexpr double kTimes[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  constexpr double kPowers[] = {50.0, 80.0, 100.0, 125.0, 140.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = kTimes[rng.uniform_int(0, 4)];
    const double p = kPowers[rng.uniform_int(0, 4)];
    kb.add(OperatingPoint{{static_cast<int>(i)}, {{t, 0.0}, {p, 2.0}, {1.0 / t, 0.0}}});
  }
  return kb;
}

/// Times near 1e-160 (throughput near 1e160): energy-delay scores are
/// subnormal and power^-1.5 * throughput * time^0.5 is fine, so some
/// ranks must take the dense path and others may walk.
KnowledgeBase extreme_kb(Rng& rng, std::size_t n) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.1, 10.0) * 1e-160;
    const double p = rng.uniform(45.0, 150.0);
    kb.add(OperatingPoint{{static_cast<int>(i)},
                          {{t, 0.05 * t}, {p, 0.02 * p}, {1.0 / t, 0.01 / t}}});
  }
  return kb;
}

KnowledgeBase fixed_kb() {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{10.0, 0.5}, {50.0, 1.0}, {0.1, 0.005}}});
  kb.add(OperatingPoint{{1}, {{4.0, 0.2}, {80.0, 2.0}, {0.25, 0.0125}}});
  kb.add(OperatingPoint{{2}, {{1.0, 0.05}, {140.0, 3.0}, {1.0, 0.05}}});
  return kb;
}

/// Bit pattern of a double: scores must match exactly, not within the
/// 4 ULP EXPECT_DOUBLE_EQ allows, which is the size of the rounding a
/// mis-ordered product would introduce.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Checks a journaled switch against the oracle's decision: scores and
/// runners-up bit for bit, and the quarantine list.
void expect_record_matches(const DecisionRecord& record,
                           const reference::Decision& expected) {
  EXPECT_EQ(record.chosen, expected.chosen);
  EXPECT_EQ(bits(record.chosen_score), bits(expected.score));
  EXPECT_EQ(record.feasible, expected.feasible);
  ASSERT_EQ(record.rejected.size(), expected.runners.size());
  for (std::size_t r = 0; r < record.rejected.size(); ++r) {
    EXPECT_EQ(record.rejected[r].op_index, expected.runners[r].op_index) << r;
    EXPECT_EQ(bits(record.rejected[r].score), bits(expected.runners[r].score)) << r;
  }
  EXPECT_EQ(record.quarantined, expected.quarantined);
}

/// Every Rank factory; a two-term linear rank, which only the dense path
/// decides; a one-term linear rank with a negative weight, which the
/// walk orders by the sign of its weight; and a three-term geometric
/// rank with fractional weights around a weight-1 term, whose keys need
/// pow and whose three factors make the product order matter for
/// rounding.  The fuzz starts each seed under each of them and switches
/// among them mid-stream, as Fig. 5 does at run time.
std::vector<Rank> fuzz_ranks() {
  return {Rank::maximize_throughput(kThr),
          Rank::maximize_throughput_per_watt2(kThr, kPower),
          Rank::minimize_exec_time(kTime),
          Rank::minimize_energy(kTime, kPower),
          Rank::minimize_energy_delay(kTime, kPower),
          Rank::linear(RankDirection::kMinimize, {{kTime, 3.0}, {kPower, 0.05}}),
          Rank::linear(RankDirection::kMaximize, {{kTime, -2.5}}),
          Rank{RankDirection::kMaximize, {{kPower, -1.5}, {kThr, 1.0}, {kTime, 0.5}}}};
}

struct FuzzCase {
  const char* name;
  KnowledgeBase (*make_kb)(Rng&, std::size_t);
  std::size_t points;
};

/// 24 points keeps the walk inside its sorted head; 512 points under a
/// tight power cap, or with power rising with throughput, send it past
/// the head into the deferred tail sort.
std::vector<FuzzCase> fuzz_cases() {
  return {{"random-24", random_kb, 24},
          {"random-512", random_kb, 512},
          {"correlated-512", correlated_kb, 512},
          {"tied-200", tied_kb, 200},
          {"extreme-24", extreme_kb, 24}};
}

/// Drives one seeded mutation/decide/feedback sequence through the
/// engine, starting under ranks[first], and checks every decision
/// against the oracle.
void fuzz_against_reference(std::uint64_t seed, const FuzzCase& fuzz_case,
                            const std::vector<Rank>& ranks, std::size_t first,
                            bool journal) {
  Rng rng(seed);
  const KnowledgeBase kb = fuzz_case.make_kb(rng, fuzz_case.points);

  Asrtm asrtm(kb);
  asrtm.set_quarantine_options({1, 2, 16});
  asrtm.set_feedback_inertia(0.4);
  asrtm.set_rank(ranks[first]);
  if (journal) asrtm.enable_decision_journal(256);
  std::vector<Constraint> constraints = {
      {kPower, ComparisonOp::kLessEqual, 120.0, 0, 1.0},
      {kThr, ComparisonOp::kGreaterEqual, 0.15, 1, 0.0},
      // Strict comparison: exercises the sign/violation mapping of the
      // branchless column pass for kLess as well.
      {kTime, ComparisonOp::kLess, 9.5, 2, 0.5}};
  for (const Constraint& c : constraints) asrtm.add_constraint(c);
  const std::size_t goal_handle = 0;

  double now = 0.0;
  std::size_t last_chosen = 0;
  std::size_t switches = 0;
  for (int round = 0; round < 400; ++round) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0: {
        const double goal = rng.uniform(40.0, 160.0);
        asrtm.set_constraint_goal(goal_handle, goal);
        constraints[goal_handle].goal = goal;
        break;
      }
      case 1: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        const std::size_t metric = rng.uniform_int(0, 2);
        const double observed =
            kb[point].metrics[metric].mean * rng.uniform(0.7, 1.4);
        asrtm.send_feedback(point, metric, observed);
        break;
      }
      case 2:
        asrtm.report_variant_failure(rng.uniform_int(0, kb.size() - 1));
        break;
      case 3:
        asrtm.report_variant_success(rng.uniform_int(0, kb.size() - 1));
        break;
      case 4:
        asrtm.advance_quarantine();
        break;
      case 5:
        now += rng.uniform(0.0, 0.5);
        asrtm.set_decision_time(now);
        break;
      case 6: {
        std::ostringstream note;
        note << "fuzz trigger " << round;
        asrtm.note_decision_trigger(note.str());
        break;
      }
      case 7:
        asrtm.set_rank(
            ranks[rng.uniform_int(0, static_cast<std::int64_t>(ranks.size()) - 1)]);
        break;
      case 8:
        // Drops the columns and the rank order: the next decision
        // rebuilds both.
        asrtm.invalidate_decision_cache();
        break;
      default:
        break;  // decide on an untouched epoch (exercises the cache)
    }
    const std::size_t chosen = asrtm.find_best_operating_point();
    const reference::Decision expected = reference::decide(asrtm, constraints);
    ASSERT_EQ(chosen, expected.chosen) << "round " << round;
    ASSERT_EQ(asrtm.last_selection_feasible(), expected.feasible) << "round " << round;
    if (!journal) continue;
    // The journal records exactly the decisions that switch points.
    const bool switched = round == 0 || chosen != last_chosen;
    last_chosen = chosen;
    const DecisionJournal& log = asrtm.decision_journal();
    ASSERT_EQ(log.total_decisions(), switches + (switched ? 1 : 0)) << "round " << round;
    switches = log.total_decisions();
    if (switched) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      ASSERT_NO_FATAL_FAILURE(expect_record_matches(log.records().back(), expected));
    }
  }
  if (journal) {
    EXPECT_GT(asrtm.decision_journal().total_decisions(), 0u);
  }
}

class AsrtmIncrementalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsrtmIncrementalFuzz, MatchesBruteForceReference) {
  const std::vector<Rank> ranks = fuzz_ranks();
  for (const FuzzCase& fuzz_case : fuzz_cases()) {
    for (std::size_t first = 0; first < ranks.size(); ++first) {
      for (const bool journal : {true, false}) {
        SCOPED_TRACE(testing::Message() << fuzz_case.name << ", initial rank "
                                        << first << ", journal " << journal);
        fuzz_against_reference(GetParam(), fuzz_case, ranks, first, journal);
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsrtmIncrementalFuzz,
                         ::testing::Values(7, 42, 101, 2024, 31337, 5550123,
                                           987654321));

TEST(AsrtmIncremental, CleanEpochIsCached) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});

  Counter& cached = MetricsRegistry::global().counter("asrtm.decisions_cached");
  const std::uint64_t before = cached.value();
  const std::uint64_t epoch = asrtm.decision_epoch();

  const std::size_t first = asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  const std::size_t second = asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
  EXPECT_EQ(first, second);
  EXPECT_TRUE(asrtm.last_selection_feasible());
  EXPECT_EQ(asrtm.decision_epoch(), epoch);  // queries never dirty
  EXPECT_EQ(cached.value(), before + 1);

  // Any mutation dirties; the next decision recomputes, then re-caches.
  asrtm.set_constraint_goal(0, 60.0);
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

// The one feedback rule: a correction that changes value dirties the
// epoch and the columns of its own metric only; feedback that leaves
// the correction bit-identical dirties nothing.
TEST(AsrtmIncremental, OnlyAChangedCorrectionDirtiesItsMetric) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 150.0, 0, 1.0});
  asrtm.add_constraint({kTime, ComparisonOp::kLessEqual, 20.0, 1, 1.0});
  asrtm.set_feedback_inertia(1.0);
  Counter& recomputed =
      MetricsRegistry::global().counter("asrtm.columns_recomputed");
  (void)asrtm.find_best_operating_point();  // builds both columns

  // op1's power mean is 80 W: observing exactly that keeps the power
  // correction at 1.0, bit for bit.
  std::uint64_t epoch = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 80.0);
  EXPECT_EQ(bits(asrtm.correction(kPower)), bits(1.0));
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // A changed power correction dirties the epoch and rebuilds the power
  // column only.
  std::uint64_t base = recomputed.value();
  asrtm.send_feedback(1, kPower, 88.0);  // correction 1.1
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  EXPECT_EQ(recomputed.value(), base + 1);

  // Repeating the observation reproduces 1.1 exactly: clean again.
  epoch = asrtm.decision_epoch();
  const double power_correction = asrtm.correction(kPower);
  asrtm.send_feedback(1, kPower, 88.0);
  EXPECT_EQ(bits(asrtm.correction(kPower)), bits(power_correction));
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // There is no drift threshold: a move of about 1e-11 still counts.
  asrtm.send_feedback(1, kPower, 88.000000001);
  EXPECT_NE(bits(asrtm.correction(kPower)), bits(power_correction));
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  base = recomputed.value();
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base + 1);
}

TEST(AsrtmIncremental, ReentrancyGuardTripsOnReentrantDecide) {
#if SOCRATES_ASRTM_REENTRANCY_GUARD
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.set_feedback_inertia(1.0);
  // A sink that re-enters the decision engine while send_feedback still
  // owns the mutable scratch: the debug guard must trip, not corrupt.
  asrtm.set_event_sink([&asrtm](const RuntimeEvent&) {
    (void)asrtm.find_best_operating_point();
  });
  EXPECT_THROW(asrtm.send_feedback(0, kPower, 55.0), ContractViolation);
  // The guard releases on unwind: the engine stays usable afterwards.
  asrtm.set_event_sink(nullptr);
  EXPECT_NO_THROW((void)asrtm.find_best_operating_point());
#else
  GTEST_SKIP() << "reentrancy guard compiled out (NDEBUG without "
                  "SOCRATES_DEBUG_GUARDS)";
#endif
}

TEST(AsrtmIncremental, QuarantineExpiryMidStreamInvalidates) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.set_quarantine_options({1, 2, 16});
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);

  asrtm.report_variant_failure(2);  // quarantined for 2 iterations
  EXPECT_TRUE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // Ticks with an active cooldown dirty the epoch (the countdown is a
  // decision input); once every cooldown is spent, ticks are free.
  asrtm.advance_quarantine();
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  asrtm.advance_quarantine();  // cooldown expires: op2 eligible again
  EXPECT_FALSE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());

  const std::uint64_t epoch = asrtm.decision_epoch();
  asrtm.advance_quarantine();  // nothing cooling: clean tick
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

TEST(AsrtmIncremental, RestoreResumesWithCoherentEpoch) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.send_feedback(1, kPower, 104.0);  // correction 1.3 -> op0 wins
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  const Asrtm::Snapshot snap = asrtm.snapshot();
  EXPECT_EQ(snap.decision_epoch, asrtm.decision_epoch());

  // A second instance restores the snapshot: its epoch must resume
  // strictly after both histories and the first decision must be a full
  // (uncached) one over the restored corrections.
  Asrtm resumed(fixed_kb());
  resumed.set_rank(Rank::minimize_exec_time(kTime));
  resumed.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  EXPECT_EQ(resumed.find_best_operating_point(), 1u);  // warm the cache
  resumed.restore(snap);
  EXPECT_GT(resumed.decision_epoch(), snap.decision_epoch);
  EXPECT_EQ(resumed.find_best_operating_point(), 0u);
  EXPECT_FALSE(resumed.last_decision_was_cached());
  (void)resumed.find_best_operating_point();
  EXPECT_TRUE(resumed.last_decision_was_cached());
}

TEST(AsrtmIncremental, ColumnsRecomputedOnlyForDirtyMetric) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 150.0, 0, 1.0});
  asrtm.add_constraint({kTime, ComparisonOp::kLessEqual, 20.0, 1, 1.0});
  asrtm.set_feedback_inertia(1.0);
  Counter& recomputed =
      MetricsRegistry::global().counter("asrtm.columns_recomputed");

  (void)asrtm.find_best_operating_point();  // builds both columns
  std::uint64_t base = recomputed.value();

  // A goal change keeps every column valid: the cached constraint_value
  // columns are goal-independent.
  asrtm.set_constraint_goal(0, 120.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base);

  // Power correction moves: only the power column is rebuilt.
  asrtm.send_feedback(1, kPower, 88.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base + 1);
  base = recomputed.value();

  // Throughput correction moves: no constraint reads it, so a decision
  // rebuilds no column at all.
  asrtm.send_feedback(1, kThr, 0.3);
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base);

  // invalidate_decision_cache is the sledgehammer: every column redone.
  asrtm.invalidate_decision_cache();
  (void)asrtm.find_best_operating_point();
  EXPECT_EQ(recomputed.value(), base + 2);
}

// A feasible dirty decision walks the rank order: it scores the leader
// and stops at the first key that trails it by more than rounding, so it
// computes a handful of exact scores however many points the knowledge
// base holds, and still returns the oracle's choice.
TEST(AsrtmIncremental, FeasibleDirtyDecisionScoresABoundedNumberOfPoints) {
  Rng rng(2018);
  const KnowledgeBase kb = random_kb(rng, 512);
  Asrtm asrtm(kb);
  const std::vector<Constraint> constraints = {
      {kPower, ComparisonOp::kLessEqual, 100.0, 0, 1.0}};
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  asrtm.add_constraint(constraints[0]);
  (void)asrtm.find_best_operating_point();  // builds the order
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  const std::uint64_t walks_before = walks.value();
  const std::uint64_t scores_before = scores.value();

  constexpr int kDecisions = 64;
  for (int d = 0; d < kDecisions; ++d) {
    const std::size_t metric = d % 2 == 0 ? kPower : kThr;
    const std::size_t point = asrtm.find_best_operating_point();
    const double observed = kb[point].metrics[metric].mean * rng.uniform(0.9, 1.1);
    asrtm.send_feedback(point, metric, observed);
    ASSERT_EQ(asrtm.find_best_operating_point(),
              reference::decide(asrtm, constraints).chosen);
    EXPECT_FALSE(asrtm.last_decision_was_cached());
    EXPECT_TRUE(asrtm.last_selection_feasible());
  }
  EXPECT_EQ(walks.value() - walks_before, static_cast<std::uint64_t>(kDecisions));
  // One exact score per decision unless keys tie within the margin.
  EXPECT_LE(scores.value() - scores_before, static_cast<std::uint64_t>(2 * kDecisions));
}

// Every point in the sorted head fails the cap: the walk sorts the tail
// on its way and stops at the first feasible point, which is the best.
TEST(AsrtmIncremental, WalkSortsTheTailWhenTheHeadIsInfeasible) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (int i = 0; i < 512; ++i) {
    const double x = static_cast<double>(i);
    kb.add(OperatingPoint{{i}, {{1.0 / (x + 1.0), 0.0}, {50.0 + 0.1 * x, 0.0}, {x + 1.0, 0.0}}});
  }
  Asrtm asrtm(kb);
  std::vector<Constraint> constraints = {
      {kPower, ComparisonOp::kLessEqual, 60.0, 0, 0.0}};
  asrtm.set_rank(Rank::maximize_throughput(kThr));
  asrtm.add_constraint(constraints[0]);
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  const std::uint64_t walks_before = walks.value();
  EXPECT_EQ(asrtm.find_best_operating_point(), 100u);  // 60 W exactly
  EXPECT_EQ(reference::decide(asrtm, constraints).chosen, 100u);
  EXPECT_EQ(walks.value(), walks_before + 1);
  asrtm.set_constraint_goal(0, 55.0);
  constraints[0].goal = 55.0;
  EXPECT_EQ(asrtm.find_best_operating_point(), 50u);
  EXPECT_EQ(reference::decide(asrtm, constraints).chosen, 50u);
}

// No point meets the cap: the walk finds nothing to score and the dense
// path applies mARGOt's least-violation relaxation, as the oracle does.
TEST(AsrtmIncremental, InfeasibleCapTakesTheDenseRelaxation) {
  Rng rng(2018);
  const KnowledgeBase kb = random_kb(rng, 512);
  Asrtm asrtm(kb);
  std::vector<Constraint> constraints = {
      {kPower, ComparisonOp::kLessEqual, 100.0, 0, 1.0}};
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  asrtm.add_constraint(constraints[0]);
  (void)asrtm.find_best_operating_point();
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  const std::uint64_t walks_before = walks.value();
  const std::uint64_t scores_before = scores.value();

  asrtm.set_constraint_goal(0, 30.0);
  constraints[0].goal = 30.0;
  const std::size_t chosen = asrtm.find_best_operating_point();
  const reference::Decision relaxed = reference::decide(asrtm, constraints);
  EXPECT_EQ(chosen, relaxed.chosen);
  EXPECT_FALSE(asrtm.last_selection_feasible());
  EXPECT_FALSE(relaxed.feasible);
  EXPECT_EQ(walks.value(), walks_before);
  // Every relaxation survivor is scored: at least the chosen point.
  EXPECT_GT(scores.value(), scores_before);

  // The least power-hungry point survives the relaxation.
  double least_power = kb[0].metrics[kPower].mean;
  for (std::size_t i = 1; i < kb.size(); ++i)
    least_power = std::min(least_power, kb[i].metrics[kPower].mean);
  EXPECT_EQ(kb[chosen].metrics[kPower].mean, least_power);

  // Back to a feasible cap: the walk decides again.
  asrtm.set_constraint_goal(0, 100.0);
  constraints[0].goal = 100.0;
  EXPECT_EQ(asrtm.find_best_operating_point(),
            reference::decide(asrtm, constraints).chosen);
  EXPECT_TRUE(asrtm.last_selection_feasible());
  EXPECT_EQ(walks.value(), walks_before + 1);
}

// Keys that would overflow, or corrections that would push a score out
// of the normal range, rule the walk out: the dense path decides, and
// still exactly as the oracle does (here on inf scores).
TEST(AsrtmIncremental, ExtremeMagnitudesTakeTheDensePath) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (int i = 0; i < 8; ++i) {
    const double x = 1.0 + 0.125 * i;
    kb.add(OperatingPoint{{i}, {{x, 0.0}, {x * 1e-149, 0.0}, {2.0 / x, 0.0}}});
  }
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Asrtm asrtm(kb);
  const std::vector<Constraint> unconstrained;
  asrtm.set_feedback_inertia(1.0);
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  // power^-2 near 1e298: representable, so the walk decides.
  std::uint64_t walks_before = walks.value();
  EXPECT_EQ(asrtm.find_best_operating_point(),
            reference::decide(asrtm, unconstrained).chosen);
  EXPECT_EQ(walks.value(), walks_before + 1);

  // A power correction of 1e-10 takes power^-2 past DBL_MAX: every
  // score is inf, the dense path decides, and the lowest index wins.
  asrtm.send_feedback(0, kPower, 1e-159);
  EXPECT_EQ(asrtm.correction(kPower), 1e-159 / 1e-149);
  walks_before = walks.value();
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  EXPECT_EQ(reference::decide(asrtm, unconstrained).chosen, 0u);
  EXPECT_EQ(walks.value(), walks_before);

  // Keys that overflow (power^-8 near 1e1192): no order is built.
  asrtm.reset_feedback();
  asrtm.set_rank(Rank{RankDirection::kMaximize, {{kPower, -8.0}}});
  walks_before = walks.value();
  EXPECT_EQ(asrtm.find_best_operating_point(),
            reference::decide(asrtm, unconstrained).chosen);
  EXPECT_EQ(walks.value(), walks_before);
}

// A geometric rank needs positive metrics, but only on the points the
// selection reads: a zero-mean point that a constraint filters out or
// that sits in quarantine must not stop the decision, in the engine or
// in the oracle.
TEST(AsrtmIncremental, NonPositiveRankMetricOffTheSurvivorsStillDecides) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}});  // stalled
  kb.add(OperatingPoint{{1}, {{2.0, 0.0}, {80.0, 0.0}, {0.5, 0.0}}});
  kb.add(OperatingPoint{{2}, {{4.0, 0.0}, {60.0, 0.0}, {0.25, 0.0}}});
  Asrtm asrtm(kb);
  std::vector<Constraint> constraints = {
      {kThr, ComparisonOp::kGreaterEqual, 0.1, 0, 0.0}};
  asrtm.set_quarantine_options({1, 4, 16});
  asrtm.set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  asrtm.add_constraint(constraints[0]);
  // Filtered out by the constraint: op1 (0.5/80^2) beats op2 (0.25/60^2).
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_EQ(reference::decide(asrtm, constraints).chosen, 1u);

  // Excluded by quarantine instead.
  asrtm.clear_constraints();
  constraints.clear();
  asrtm.report_variant_failure(0);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_EQ(reference::decide(asrtm, constraints).chosen, 1u);

  // Once the zero-mean point survives, both refuse alike.
  for (int i = 0; i < 4; ++i) asrtm.advance_quarantine();
  EXPECT_FALSE(asrtm.is_quarantined(0));
  EXPECT_THROW((void)asrtm.find_best_operating_point(), ContractViolation);
  EXPECT_THROW((void)reference::decide(asrtm, constraints), ContractViolation);
}

}  // namespace
}  // namespace socrates::margot
