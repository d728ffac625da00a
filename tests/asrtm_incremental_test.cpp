// Differential and cache-invalidation tests for the incremental AS-RTM
// decision engine.
//
// The incremental engine (epoch cache, per-constraint columns, the
// best-first rank-order walk, the dense fallback, scratch buffers,
// bounded top-k) must be *bit-identical* to the retained brute-force
// reference (set_decision_cache_enabled(false)): the fuzz test drives
// randomized mutation/decide/feedback/rank-switch/invalidate sequences
// through one instance per mode, under every Rank factory, on small,
// large and power-correlated (both walk past the sorted head),
// tie-heavy and extreme-magnitude knowledge bases, with the journal on
// and off, and asserts identical chosen indices, feasibility,
// corrections and journal records (scores bit for bit) at every step.
// The targeted tests pin the invalidation rules one by one: clean
// epochs are served from the cache, correction drift invalidates if and
// only if it exceeds the decision epsilon, quarantine transitions dirty
// the epoch (and ticks without active cooldowns do not), restore always
// lands dirty with a monotonic epoch, a correction move recomputes only
// the columns of constraints on that metric, a feasible dirty decision
// scores a bounded number of points while an infeasible one takes the
// dense relaxation, extreme magnitudes take the dense path, and a
// non-positive rank metric on a point the selection never reads does
// not stop a decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

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

/// Compares every journal field except the epoch: the reference
/// instance pays one extra epoch bump for set_decision_cache_enabled(
/// false), so epochs run at a constant offset while all decision
/// content must match exactly.
void expect_same_journals(const DecisionJournal& incremental,
                          const DecisionJournal& brute) {
  ASSERT_EQ(incremental.size(), brute.size());
  ASSERT_EQ(incremental.total_decisions(), brute.total_decisions());
  auto it = incremental.records().begin();
  auto jt = brute.records().begin();
  for (; it != incremental.records().end(); ++it, ++jt) {
    EXPECT_EQ(it->sequence, jt->sequence);
    EXPECT_DOUBLE_EQ(it->timestamp_s, jt->timestamp_s);
    EXPECT_EQ(it->trigger, jt->trigger);
    EXPECT_EQ(it->chosen, jt->chosen);
    EXPECT_EQ(bits(it->chosen_score), bits(jt->chosen_score)) << it->sequence;
    EXPECT_EQ(it->feasible, jt->feasible);
    ASSERT_EQ(it->rejected.size(), jt->rejected.size());
    for (std::size_t r = 0; r < it->rejected.size(); ++r) {
      EXPECT_EQ(it->rejected[r].op_index, jt->rejected[r].op_index);
      EXPECT_EQ(bits(it->rejected[r].score), bits(jt->rejected[r].score))
          << it->sequence;
    }
    EXPECT_EQ(it->quarantined, jt->quarantined);
  }
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

/// Drives one seeded mutation/decide/feedback sequence through an
/// incremental and a brute-force instance, starting under ranks[first].
void fuzz_against_reference(std::uint64_t seed, const FuzzCase& fuzz_case,
                            const std::vector<Rank>& ranks, std::size_t first,
                            bool journal) {
  Rng rng(seed);
  const KnowledgeBase kb = fuzz_case.make_kb(rng, fuzz_case.points);

  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_quarantine_options({1, 2, 16});
    a->set_feedback_inertia(0.4);
    a->set_rank(ranks[first]);
    if (journal) a->enable_decision_journal(256);
    a->add_constraint({kPower, ComparisonOp::kLessEqual, 120.0, 0, 1.0});
    a->add_constraint({kThr, ComparisonOp::kGreaterEqual, 0.15, 1, 0.0});
    // Strict comparison: exercises the sign/violation mapping of the
    // branchless column pass for kLess as well.
    a->add_constraint({kTime, ComparisonOp::kLess, 9.5, 2, 0.5});
  }
  const std::size_t goal_handle = 0;

  double now = 0.0;
  for (int round = 0; round < 400; ++round) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    switch (op) {
      case 0: {
        const double goal = rng.uniform(40.0, 160.0);
        fast.set_constraint_goal(goal_handle, goal);
        slow.set_constraint_goal(goal_handle, goal);
        break;
      }
      case 1: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        const std::size_t metric = rng.uniform_int(0, 2);
        const double observed =
            kb[point].metrics[metric].mean * rng.uniform(0.7, 1.4);
        fast.send_feedback(point, metric, observed);
        slow.send_feedback(point, metric, observed);
        break;
      }
      case 2: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        fast.report_variant_failure(point);
        slow.report_variant_failure(point);
        break;
      }
      case 3: {
        const auto point = rng.uniform_int(0, kb.size() - 1);
        fast.report_variant_success(point);
        slow.report_variant_success(point);
        break;
      }
      case 4:
        fast.advance_quarantine();
        slow.advance_quarantine();
        break;
      case 5: {
        now += rng.uniform(0.0, 0.5);
        fast.set_decision_time(now);
        slow.set_decision_time(now);
        break;
      }
      case 6: {
        std::ostringstream note;
        note << "fuzz trigger " << round;
        fast.note_decision_trigger(note.str());
        slow.note_decision_trigger(note.str());
        break;
      }
      case 7: {
        const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(ranks.size()) - 1);
        fast.set_rank(ranks[pick]);
        slow.set_rank(ranks[pick]);
        break;
      }
      case 8:
        // Drops the columns and the rank order: the next decision
        // rebuilds both.
        fast.invalidate_decision_cache();
        slow.invalidate_decision_cache();
        break;
      default:
        break;  // decide on an untouched epoch (exercises the cache)
    }
    const std::size_t chosen_fast = fast.find_best_operating_point();
    const std::size_t chosen_slow = slow.find_best_operating_point();
    ASSERT_EQ(chosen_fast, chosen_slow) << "round " << round;
    ASSERT_EQ(fast.last_selection_feasible(), slow.last_selection_feasible())
        << "round " << round;
    for (std::size_t m = 0; m < 3; ++m)
      ASSERT_EQ(bits(fast.correction(m)), bits(slow.correction(m)));
  }
  if (!journal) return;
  EXPECT_GT(fast.decision_journal().total_decisions(), 0u);
  expect_same_journals(fast.decision_journal(), slow.decision_journal());
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

TEST(AsrtmIncremental, EpsilonGatesCorrectionInvalidation) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.set_decision_epsilon(0.05);
  (void)asrtm.find_best_operating_point();

  // Drift below epsilon: the EWMA moves, the decision does not.
  const std::uint64_t epoch = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 82.0);  // correction 1.025, drift 0.025
  EXPECT_NEAR(asrtm.correction(kPower), 1.025, 1e-12);
  EXPECT_EQ(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());

  // Accumulated drift beyond epsilon from the last *applied* value is
  // accepted even though each step was small.
  asrtm.send_feedback(1, kPower, 85.0);  // correction 1.0625, drift 0.0625
  EXPECT_GT(asrtm.decision_epoch(), epoch);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());

  // Well past epsilon in one step: invalidates immediately and the
  // decision visibly moves (op1's 80 W scales past the 100 W cap).
  asrtm.send_feedback(1, kPower, 104.0);
  (void)asrtm.find_best_operating_point();
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);

  // Epsilon 0 (the default) accepts any drift: bit-exact behaviour.
  asrtm.set_decision_epsilon(0.0);
  (void)asrtm.find_best_operating_point();
  const std::uint64_t exact_epoch = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 80.0 * asrtm.correction(kPower) * 1.0001);
  EXPECT_GT(asrtm.decision_epoch(), exact_epoch);
}

// Pins the boundary semantics documented at set_decision_epsilon():
// drift of *exactly* epsilon counts as beyond the threshold and is
// applied, while the re-sync performed by set_decision_epsilon() itself
// applies any nonzero pending drift unconditionally.
TEST(AsrtmIncremental, EpsilonBoundarySemantics) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_feedback_inertia(1.0);
  asrtm.set_decision_epsilon(0.5);
  (void)asrtm.find_best_operating_point();

  // op1's power mean is 80 W, so these ratios are exact in double.
  const std::uint64_t e0 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 120.0);  // correction 1.5, drift exactly 0.5
  EXPECT_GT(asrtm.decision_epoch(), e0) << "drift == epsilon must apply";

  const std::uint64_t e1 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 100.0);  // correction 1.25, drift 0.25
  EXPECT_EQ(asrtm.decision_epoch(), e1) << "drift < epsilon must defer";
  EXPECT_NEAR(asrtm.correction(kPower), 1.25, 1e-12);

  // Re-setting even the *same* epsilon re-baselines the pending drift.
  asrtm.set_decision_epsilon(0.5);
  EXPECT_GT(asrtm.decision_epoch(), e1) << "set_decision_epsilon must re-sync";

  // After the re-sync the applied value is 1.25: a further 0.25 drift
  // sits below epsilon again.
  const std::uint64_t e2 = asrtm.decision_epoch();
  asrtm.send_feedback(1, kPower, 120.0);  // correction 1.5, drift 0.25
  EXPECT_EQ(asrtm.decision_epoch(), e2);
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
// base holds, and still returns the reference's choice.
TEST(AsrtmIncremental, FeasibleDirtyDecisionScoresABoundedNumberOfPoints) {
  Rng rng(2018);
  const KnowledgeBase kb = random_kb(rng, 512);
  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
    a->add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 1.0});
  }
  (void)fast.find_best_operating_point();  // builds the order
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  const std::uint64_t walks_before = walks.value();
  const std::uint64_t scores_before = scores.value();

  constexpr int kDecisions = 64;
  for (int d = 0; d < kDecisions; ++d) {
    const std::size_t metric = d % 2 == 0 ? kPower : kThr;
    const std::size_t point = fast.find_best_operating_point();
    const double observed = kb[point].metrics[metric].mean * rng.uniform(0.9, 1.1);
    fast.send_feedback(point, metric, observed);
    slow.send_feedback(point, metric, observed);
    ASSERT_EQ(fast.find_best_operating_point(), slow.find_best_operating_point());
    EXPECT_FALSE(fast.last_decision_was_cached());
    EXPECT_TRUE(fast.last_selection_feasible());
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
  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_rank(Rank::maximize_throughput(kThr));
    a->add_constraint({kPower, ComparisonOp::kLessEqual, 60.0, 0, 0.0});
  }
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  const std::uint64_t walks_before = walks.value();
  EXPECT_EQ(fast.find_best_operating_point(), 100u);  // 60 W exactly
  EXPECT_EQ(slow.find_best_operating_point(), 100u);
  EXPECT_EQ(walks.value(), walks_before + 1);
  for (Asrtm* a : {&fast, &slow}) a->set_constraint_goal(0, 55.0);
  EXPECT_EQ(fast.find_best_operating_point(), 50u);
  EXPECT_EQ(slow.find_best_operating_point(), 50u);
}

// No point meets the cap: the walk finds nothing to score and the dense
// path applies mARGOt's least-violation relaxation, as the reference
// does.
TEST(AsrtmIncremental, InfeasibleCapTakesTheDenseRelaxation) {
  Rng rng(2018);
  const KnowledgeBase kb = random_kb(rng, 512);
  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
    a->add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 1.0});
  }
  (void)fast.find_best_operating_point();
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Counter& scores = MetricsRegistry::global().counter("asrtm.scores_computed");
  const std::uint64_t walks_before = walks.value();
  const std::uint64_t scores_before = scores.value();

  for (Asrtm* a : {&fast, &slow}) a->set_constraint_goal(0, 30.0);
  const std::size_t chosen = fast.find_best_operating_point();
  EXPECT_EQ(chosen, slow.find_best_operating_point());
  EXPECT_FALSE(fast.last_selection_feasible());
  EXPECT_FALSE(slow.last_selection_feasible());
  EXPECT_EQ(walks.value(), walks_before);
  // Every relaxation survivor is scored: at least the chosen point.
  EXPECT_GT(scores.value(), scores_before);

  // The least power-hungry point survives the relaxation.
  double least_power = kb[0].metrics[kPower].mean;
  for (std::size_t i = 1; i < kb.size(); ++i)
    least_power = std::min(least_power, kb[i].metrics[kPower].mean);
  EXPECT_EQ(kb[chosen].metrics[kPower].mean, least_power);

  // Back to a feasible cap: the walk decides again.
  for (Asrtm* a : {&fast, &slow}) a->set_constraint_goal(0, 100.0);
  EXPECT_EQ(fast.find_best_operating_point(), slow.find_best_operating_point());
  EXPECT_TRUE(fast.last_selection_feasible());
  EXPECT_EQ(walks.value(), walks_before + 1);
}

// Keys that would overflow, or corrections that would push a score out
// of the normal range, rule the walk out: the dense path decides, and
// still exactly as the reference does (here on inf scores).
TEST(AsrtmIncremental, ExtremeMagnitudesTakeTheDensePath) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  for (int i = 0; i < 8; ++i) {
    const double x = 1.0 + 0.125 * i;
    kb.add(OperatingPoint{{i}, {{x, 0.0}, {x * 1e-149, 0.0}, {2.0 / x, 0.0}}});
  }
  Counter& walks = MetricsRegistry::global().counter("asrtm.walk_decisions");
  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_feedback_inertia(1.0);
    a->set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
  }
  // power^-2 near 1e298: representable, so the walk decides.
  std::uint64_t walks_before = walks.value();
  EXPECT_EQ(fast.find_best_operating_point(), slow.find_best_operating_point());
  EXPECT_EQ(walks.value(), walks_before + 1);

  // A power correction of 1e-10 takes power^-2 past DBL_MAX: every
  // score is inf, the dense path decides, and the lowest index wins.
  for (Asrtm* a : {&fast, &slow}) a->send_feedback(0, kPower, 1e-159);
  EXPECT_EQ(fast.correction(kPower), 1e-159 / 1e-149);
  walks_before = walks.value();
  EXPECT_EQ(fast.find_best_operating_point(), 0u);
  EXPECT_EQ(slow.find_best_operating_point(), 0u);
  EXPECT_EQ(walks.value(), walks_before);

  // Keys that overflow (power^-8 near 1e1192): no order is built.
  for (Asrtm* a : {&fast, &slow}) {
    a->reset_feedback();
    a->set_rank(Rank{RankDirection::kMaximize, {{kPower, -8.0}}});
  }
  walks_before = walks.value();
  EXPECT_EQ(fast.find_best_operating_point(), slow.find_best_operating_point());
  EXPECT_EQ(walks.value(), walks_before);
}

// A geometric rank needs positive metrics, but only on the points the
// selection reads: a zero-mean point that a constraint filters out or
// that sits in quarantine must not stop the decision, in either mode.
TEST(AsrtmIncremental, NonPositiveRankMetricOffTheSurvivorsStillDecides) {
  KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0}, {{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}});  // stalled
  kb.add(OperatingPoint{{1}, {{2.0, 0.0}, {80.0, 0.0}, {0.5, 0.0}}});
  kb.add(OperatingPoint{{2}, {{4.0, 0.0}, {60.0, 0.0}, {0.25, 0.0}}});
  Asrtm fast(kb);
  Asrtm slow(kb);
  slow.set_decision_cache_enabled(false);
  for (Asrtm* a : {&fast, &slow}) {
    a->set_quarantine_options({1, 4, 16});
    a->set_rank(Rank::maximize_throughput_per_watt2(kThr, kPower));
    a->add_constraint({kThr, ComparisonOp::kGreaterEqual, 0.1, 0, 0.0});
  }
  // Filtered out by the constraint: op1 (0.5/80^2) beats op2 (0.25/60^2).
  EXPECT_EQ(fast.find_best_operating_point(), 1u);
  EXPECT_EQ(slow.find_best_operating_point(), 1u);

  // Excluded by quarantine instead.
  for (Asrtm* a : {&fast, &slow}) {
    a->clear_constraints();
    a->report_variant_failure(0);
  }
  EXPECT_EQ(fast.find_best_operating_point(), 1u);
  EXPECT_EQ(slow.find_best_operating_point(), 1u);

  // Once the zero-mean point survives, both modes refuse alike.
  for (Asrtm* a : {&fast, &slow})
    for (int i = 0; i < 4; ++i) a->advance_quarantine();
  EXPECT_FALSE(fast.is_quarantined(0));
  EXPECT_THROW((void)fast.find_best_operating_point(), ContractViolation);
  EXPECT_THROW((void)slow.find_best_operating_point(), ContractViolation);
}

TEST(AsrtmIncremental, DisablingTheCacheStillDecidesCorrectly) {
  Asrtm asrtm(fixed_kb());
  asrtm.set_rank(Rank::minimize_exec_time(kTime));
  asrtm.add_constraint({kPower, ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  asrtm.set_decision_cache_enabled(false);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  EXPECT_FALSE(asrtm.last_decision_was_cached());  // never serves the cache
  asrtm.set_decision_cache_enabled(true);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
  (void)asrtm.find_best_operating_point();
  EXPECT_TRUE(asrtm.last_decision_was_cached());
}

}  // namespace
}  // namespace socrates::margot
