// Tests for the defense layers: robust monitor statistics (median /
// MAD / Hampel filter), wraparound correction and invalid-sample
// rejection, AS-RTM quarantine with exponential backoff, the
// oscillation watchdog, runaway detection in the Context, and an
// end-to-end hardened-vs-raw comparison under injected faults.
#include <gtest/gtest.h>

#include <cmath>

#include "margot/context.hpp"
#include "margot/monitor.hpp"
#include "platform/fault_injection.hpp"
#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"

namespace socrates::margot {
namespace {

using M = ContextMetrics;

// ---- robust statistics -----------------------------------------------------

TEST(RobustStats, MedianOddAndEvenWindows) {
  CircularMonitor m(5);
  for (const double v : {5.0, 1.0, 3.0}) m.push(v);
  EXPECT_DOUBLE_EQ(m.median(), 3.0);
  m.push(2.0);  // {5, 1, 3, 2}: even count interpolates
  EXPECT_DOUBLE_EQ(m.median(), 2.5);
}

TEST(RobustStats, MadMeasuresRobustSpread) {
  CircularMonitor m(5);
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.push(v);
  EXPECT_DOUBLE_EQ(m.median(), 3.0);
  EXPECT_DOUBLE_EQ(m.mad(), 1.0);  // deviations {2,1,0,1,2}
}

TEST(RobustStats, AllIdenticalWindowHasZeroMad) {
  CircularMonitor m(4);
  for (int i = 0; i < 4; ++i) m.push(7.0);
  EXPECT_DOUBLE_EQ(m.median(), 7.0);
  EXPECT_DOUBLE_EQ(m.mad(), 0.0);
}

TEST(RobustStats, SingleSampleWindow) {
  CircularMonitor m(1);
  m.push(42.0);
  EXPECT_DOUBLE_EQ(m.median(), 42.0);
  EXPECT_DOUBLE_EQ(m.mad(), 0.0);
  m.push(43.0);  // wraps the one-slot buffer
  EXPECT_DOUBLE_EQ(m.median(), 43.0);
}

TEST(RobustStats, EmptyMonitorThrows) {
  CircularMonitor m(3);
  EXPECT_THROW(m.median(), ContractViolation);
  EXPECT_THROW(m.mad(), ContractViolation);
}

// ---- Hampel outlier filter -------------------------------------------------

TEST(HampelFilter, RejectsSpikeKeepsWindowClean) {
  CircularMonitor m(8);
  m.enable_outlier_filter({/*threshold=*/4.0, /*min_samples=*/3,
                           /*max_consecutive=*/3});
  for (const double v : {1.0, 1.1, 0.9, 1.0, 1.05}) EXPECT_TRUE(m.push(v));
  EXPECT_FALSE(m.push(50.0));  // a 50x spike is rejected
  EXPECT_EQ(m.outliers_rejected(), 1u);
  EXPECT_LT(m.max(), 2.0);     // the spike never entered the window
  EXPECT_TRUE(m.push(1.02));   // normal samples keep flowing
}

TEST(HampelFilter, ConcedesLevelShiftAfterConsecutiveFlags) {
  CircularMonitor m(8);
  m.enable_outlier_filter({4.0, 3, /*max_consecutive=*/2});
  for (const double v : {1.0, 1.1, 0.9, 1.0}) m.push(v);
  // A genuine level shift: every new sample sits at 10x the median.
  EXPECT_FALSE(m.push(10.0));
  EXPECT_FALSE(m.push(10.1));
  EXPECT_TRUE(m.push(10.05));  // third consecutive flag: accepted as a shift
  EXPECT_EQ(m.outliers_rejected(), 2u);
  EXPECT_DOUBLE_EQ(m.last(), 10.05);
}

TEST(HampelFilter, ZeroMadWindowNeverRejects) {
  CircularMonitor m(8);
  m.enable_outlier_filter({4.0, 3, 3});
  for (int i = 0; i < 4; ++i) m.push(5.0);
  EXPECT_TRUE(m.push(500.0));  // MAD == 0: no dispersion info, accept
  EXPECT_EQ(m.outliers_rejected(), 0u);
}

TEST(HampelFilter, BelowMinSamplesAcceptsEverything) {
  CircularMonitor m(8);
  m.enable_outlier_filter({4.0, /*min_samples=*/4, 3});
  m.push(1.0);
  m.push(1.1);
  m.push(0.9);
  EXPECT_TRUE(m.push(100.0));  // only 3 samples: filter stays silent
}

TEST(HampelFilter, ValidatesItsOptions) {
  CircularMonitor m(4);
  EXPECT_THROW(m.enable_outlier_filter({0.0, 3, 3}), ContractViolation);
  EXPECT_THROW(m.enable_outlier_filter({4.0, 0, 3}), ContractViolation);
  EXPECT_THROW(m.enable_outlier_filter({4.0, 3, 0}), ContractViolation);
}

// ---- hardened Energy/Power monitors ----------------------------------------

/// Clock whose reading the test sets directly (to fake jitter effects).
class ManualClock final : public platform::Clock {
 public:
  double now_s() const override { return now_; }
  void set(double t) { now_ = t; }

 private:
  double now_ = 0.0;
};

TEST(HardenedEnergyMonitor, CorrectsCounterWraparound) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  platform::FaultSchedule faults;
  const double wrap = 1e9;
  faults.add({platform::SensorFaultKind::kCounterWrap, 0.0, 1e9, wrap, 1.0});
  platform::FaultyEnergyCounter counter(rapl, clock, faults);

  EnergyMonitor mon(counter);
  mon.set_wrap_range_uj(wrap);
  rapl.accrue(9.0, 100.0);  // reading: 9e8 uJ, just below the wrap
  mon.start();
  rapl.accrue(2.0, 100.0);  // inner 1.1e9 uJ -> wrapped reading 1e8 uJ
  const double joules = mon.stop();
  EXPECT_DOUBLE_EQ(joules, 200.0);  // the true 200 J, recovered
  EXPECT_EQ(mon.wraps_corrected(), 1u);
  EXPECT_FALSE(mon.last_rejected());
}

TEST(HardenedEnergyMonitor, RejectsFailedRead) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  platform::FaultSchedule faults;
  faults.add({platform::SensorFaultKind::kReadFailure, 5.0, 1e9, 0.0, 1.0});
  platform::FaultyEnergyCounter counter(rapl, clock, faults);

  EnergyMonitor mon(counter);
  rapl.accrue(1.0, 100.0);
  mon.start();              // clean read at t=0
  clock.advance(10.0);      // the stop() read fails -> NaN
  rapl.accrue(1.0, 100.0);
  mon.stop();
  EXPECT_TRUE(mon.last_rejected());
  EXPECT_EQ(mon.rejected(), 1u);
  EXPECT_TRUE(mon.stats().empty());  // nothing poisoned the window
}

TEST(HardenedEnergyMonitor, RejectsStuckCounter) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  platform::FaultSchedule faults;
  faults.add({platform::SensorFaultKind::kStuckCounter, 0.0, 1e9, 0.0, 1.0});
  platform::FaultyEnergyCounter counter(rapl, clock, faults);

  EnergyMonitor mon(counter);
  mon.start();
  rapl.accrue(1.0, 100.0);  // real energy flows, the reading is frozen
  mon.stop();
  EXPECT_TRUE(mon.last_rejected());  // zero delta: not a valid sample
}

TEST(RawEnergyMonitor, RecordsGarbageVerbatim) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  platform::FaultSchedule faults;
  faults.add({platform::SensorFaultKind::kCounterWrap, 0.0, 1e9, 1e9, 1.0});
  platform::FaultyEnergyCounter counter(rapl, clock, faults);

  EnergyMonitor mon(counter);
  mon.set_hardened(false);
  rapl.accrue(9.0, 100.0);
  mon.start();
  rapl.accrue(2.0, 100.0);  // wrapped: delta is -8e8 uJ
  const double joules = mon.stop();
  EXPECT_DOUBLE_EQ(joules, -800.0);  // the unprotected stack records it
  EXPECT_FALSE(mon.last_rejected());
  EXPECT_EQ(mon.wraps_corrected(), 0u);
  EXPECT_DOUBLE_EQ(mon.stats().last(), -800.0);
}

TEST(HardenedPowerMonitor, CorrectsWrapAndRejectsNegativeElapsed) {
  ManualClock clock;
  platform::SimulatedRapl rapl;

  PowerMonitor mon(clock, rapl);
  mon.set_wrap_range_uj(1e9);

  // Jittery clock: the region appears to end before it started.
  rapl.accrue(1.0, 100.0);
  clock.set(10.0);
  mon.start();
  rapl.accrue(1.0, 100.0);
  clock.set(9.5);
  mon.stop();
  EXPECT_TRUE(mon.last_rejected());
  EXPECT_TRUE(mon.stats().empty());

  // Zero-length region is a caller bug, not a sensor fault.
  mon.start();
  EXPECT_THROW(mon.stop(), ContractViolation);
}

// ---- AS-RTM quarantine -----------------------------------------------------

KnowledgeBase tiny_kb() {
  KnowledgeBase kb({"config", "threads"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(OperatingPoint{{0, 1}, {{10.0, 0.5}, {50.0, 1.0}, {0.1, 0.005}}});
  kb.add(OperatingPoint{{1, 8}, {{4.0, 0.2}, {80.0, 2.0}, {0.25, 0.0125}}});
  kb.add(OperatingPoint{{2, 32}, {{1.0, 0.05}, {140.0, 3.0}, {1.0, 0.05}}});
  return kb;
}

TEST(Quarantine, FailureStreakExcludesThePoint) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput(2));
  asrtm.set_quarantine_options({/*failure_threshold=*/2, /*base_cooldown=*/4, 64});
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);

  asrtm.report_variant_failure(2);
  EXPECT_FALSE(asrtm.is_quarantined(2));  // one failure is forgiven
  asrtm.report_variant_failure(2);
  EXPECT_TRUE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.quarantined_count(), 1u);
  EXPECT_EQ(asrtm.quarantine_events(), 1u);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);  // next-best survivor
  EXPECT_TRUE(asrtm.last_selection_feasible());
}

TEST(Quarantine, SuccessResetsTheStreak) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_quarantine_options({2, 4, 64});
  asrtm.report_variant_failure(2);
  asrtm.report_variant_success(2);
  asrtm.report_variant_failure(2);
  EXPECT_FALSE(asrtm.is_quarantined(2));  // never two *consecutive* failures
}

TEST(Quarantine, CooldownExpiresIntoProbationAndBacksOffExponentially) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput(2));
  asrtm.set_quarantine_options({2, /*base_cooldown=*/2, /*max_cooldown=*/8});

  asrtm.report_variant_failure(2);
  asrtm.report_variant_failure(2);  // quarantined for 2 iterations
  asrtm.advance_quarantine();
  EXPECT_TRUE(asrtm.is_quarantined(2));
  asrtm.advance_quarantine();
  EXPECT_FALSE(asrtm.is_quarantined(2));  // cooldown over: on probation
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);

  // One failure during probation re-quarantines at once, doubled.
  asrtm.report_variant_failure(2);
  EXPECT_TRUE(asrtm.is_quarantined(2));
  EXPECT_EQ(asrtm.quarantine_events(), 2u);
  for (int i = 0; i < 3; ++i) {
    asrtm.advance_quarantine();
    EXPECT_TRUE(asrtm.is_quarantined(2));  // 4-iteration cooldown now
  }
  asrtm.advance_quarantine();
  EXPECT_FALSE(asrtm.is_quarantined(2));

  // A third quarantine hits the max_cooldown ceiling (8, not 16).
  asrtm.report_variant_failure(2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(asrtm.is_quarantined(2));
    asrtm.advance_quarantine();
  }
  EXPECT_FALSE(asrtm.is_quarantined(2));
}

TEST(Quarantine, AllQuarantinedFallsBackToSafestPoint) {
  Asrtm asrtm(tiny_kb());
  asrtm.set_rank(Rank::maximize_throughput(2));
  asrtm.set_quarantine_options({1, 8, 64});

  asrtm.report_variant_failure(0);
  asrtm.advance_quarantine();       // op0 now has the shortest cooldown
  asrtm.report_variant_failure(1);
  asrtm.report_variant_failure(2);
  asrtm.report_variant_failure(2);  // op2 now quarantined twice
  EXPECT_EQ(asrtm.quarantined_count(), 3u);

  // Everything is down: pick the least-requarantined, shortest-cooldown
  // point and flag the selection as degraded.
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  EXPECT_FALSE(asrtm.last_selection_feasible());
}

TEST(Quarantine, ValidatesOptions) {
  Asrtm asrtm(tiny_kb());
  EXPECT_THROW(asrtm.set_quarantine_options({0, 8, 64}), ContractViolation);
  EXPECT_THROW(asrtm.set_quarantine_options({2, 0, 64}), ContractViolation);
  EXPECT_THROW(asrtm.set_quarantine_options({2, 8, 4}), ContractViolation);
  EXPECT_THROW(asrtm.report_variant_failure(99), ContractViolation);
}

// ---- oscillation watchdog --------------------------------------------------

TEST(Watchdog, TripsOnThrashingAndHoldsThePoint) {
  OscillationWatchdog dog({/*window=*/6, /*max_switches=*/2, /*hold=*/4});
  EXPECT_EQ(dog.filter(0), 0u);  // first application
  EXPECT_EQ(dog.filter(1), 1u);  // switch 1
  EXPECT_EQ(dog.filter(0), 0u);  // switch 2
  EXPECT_EQ(dog.filter(1), 0u);  // switch 3 in window: trip, hold 0
  EXPECT_TRUE(dog.holding());
  EXPECT_EQ(dog.trips(), 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dog.filter(1), 0u);  // hold-down
  EXPECT_FALSE(dog.holding());
  EXPECT_EQ(dog.filter(1), 1u);  // listening again
}

TEST(Watchdog, StableSelectionNeverTrips) {
  OscillationWatchdog dog({6, 2, 4});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(dog.filter(3), 3u);
  EXPECT_EQ(dog.trips(), 0u);
}

TEST(Watchdog, OccasionalSwitchesPassThrough) {
  OscillationWatchdog dog({/*window=*/4, /*max_switches=*/2, /*hold=*/4});
  std::size_t current = 0;
  for (int i = 0; i < 40; ++i) {
    if (i % 10 == 9) current = 1 - current;  // one switch per 10 iterations
    EXPECT_EQ(dog.filter(current), current);
  }
  EXPECT_EQ(dog.trips(), 0u);
}

TEST(Watchdog, ResetClearsHistory) {
  OscillationWatchdog dog({6, 2, 4});
  dog.filter(0);
  dog.filter(1);
  dog.filter(0);
  dog.filter(1);  // trips
  EXPECT_TRUE(dog.holding());
  dog.reset();
  EXPECT_FALSE(dog.holding());
  EXPECT_EQ(dog.filter(5), 5u);
}

// ---- Context-level runaway detection ---------------------------------------

KnowledgeBase ctx_kb() {
  KnowledgeBase kb({"config", "threads", "binding"}, ContextMetrics::names());
  kb.add(OperatingPoint{{0, 1, 0}, {{2.0, 0.1}, {55.0, 1.0}, {0.5, 0.02}}});
  kb.add(OperatingPoint{{1, 16, 0}, {{0.5, 0.02}, {120.0, 2.0}, {2.0, 0.1}}});
  return kb;
}

TEST(ContextRunaway, GarbageExecTimeQuarantinesInsteadOfPoisoning) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  Context ctx(ctx_kb(), clock, rapl);
  ctx.asrtm().set_rank(Rank::maximize_throughput(M::kThroughput));
  RobustnessOptions rob;
  rob.variant_quarantine = true;
  rob.runaway_factor = 8.0;
  rob.quarantine = {/*failure_threshold=*/2, 8, 64};
  ctx.set_robustness(rob);

  std::vector<int> knobs(3);
  for (int i = 0; i < 2; ++i) {
    ctx.update(knobs);  // selects op1 (exec_time mean 0.5 s)
    ctx.start_monitors();
    clock.advance(25.0);  // 50x the expectation: a garbage clone
    rapl.accrue(25.0, 120.0);
    ctx.stop_monitors();
  }
  EXPECT_TRUE(ctx.asrtm().is_quarantined(1));
  // The runaway samples were *not* fed into the corrections.
  EXPECT_DOUBLE_EQ(ctx.asrtm().correction(M::kExecTime), 1.0);
}

TEST(ContextRunaway, HealthyRunsClearTheStreak) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  Context ctx(ctx_kb(), clock, rapl);
  ctx.asrtm().set_rank(Rank::maximize_throughput(M::kThroughput));
  RobustnessOptions rob;
  rob.variant_quarantine = true;
  ctx.set_robustness(rob);

  std::vector<int> knobs(3);
  const double steps[] = {25.0, 0.5, 25.0};  // runaway, healthy, runaway
  for (const double dt : steps) {
    ctx.update(knobs);
    ctx.start_monitors();
    clock.advance(dt);
    rapl.accrue(dt, 120.0);
    ctx.stop_monitors();
  }
  EXPECT_FALSE(ctx.asrtm().is_quarantined(1));
}

}  // namespace
}  // namespace socrates::margot

// ---- end-to-end: hardened vs raw under a hostile machine -------------------

namespace socrates {
namespace {

using M = margot::ContextMetrics;

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

AdaptiveApplication make_app() {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  opts.work_scale = 0.02;
  Pipeline tc(model(), opts);
  return AdaptiveApplication(tc.build("2mm"), model(), opts.work_scale);
}

platform::FaultSchedule hostile_schedule() {
  platform::FaultSchedule faults;
  // Wrap the energy register every 20 J so power/energy deltas straddle
  // wraps all the time at this work scale.
  faults.add({platform::SensorFaultKind::kCounterWrap, 2.0, 1e9, /*uJ=*/2e7, 1.0});
  faults.add({platform::SensorFaultKind::kSpike, 2.0, 1e9, /*uJ=*/5e7, 0.3});
  faults.add({platform::SensorFaultKind::kReadFailure, 2.0, 1e9, 0.0, 0.1});
  return faults;
}

double run(AdaptiveApplication& app, std::vector<TraceSample>& trace) {
  app.asrtm().set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  app.asrtm().add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  app.set_faults(hostile_schedule());
  app.run_until(40.0, trace);
  double violations = 0.0;
  for (const auto& s : trace)
    if (s.power_w > 106.0) violations += 1.0;
  return violations / static_cast<double>(trace.size());
}

TEST(EndToEnd, HardenedStackSurvivesSensorFaults) {
  auto hardened = make_app();
  hardened.harden();
  std::vector<TraceSample> htrace;
  const double hardened_violations = run(hardened, htrace);

  auto raw = make_app();
  raw.set_robustness(margot::RobustnessOptions::raw());
  std::vector<TraceSample> rtrace;
  const double raw_violations = run(raw, rtrace);

  // The hardened stack never lets a corrupted sample through: every
  // observation in its trace is finite and non-negative.
  for (const auto& s : htrace) {
    if (s.crashed) continue;
    EXPECT_TRUE(std::isfinite(s.observed_time_s));
    EXPECT_TRUE(std::isfinite(s.observed_power_w));
    EXPECT_TRUE(std::isfinite(s.observed_energy_j));
    EXPECT_GE(s.observed_time_s, 0.0);
    EXPECT_GE(s.observed_power_w, 0.0);
    EXPECT_GE(s.observed_energy_j, 0.0);
  }
  // The raw stack recorded at least one corrupted observation (wrapped
  // counters produce negative energies at this fault rate).
  bool raw_saw_garbage = false;
  for (const auto& s : rtrace)
    raw_saw_garbage = raw_saw_garbage ||
                      !std::isfinite(s.observed_power_w) || s.observed_power_w < 0.0 ||
                      !std::isfinite(s.observed_energy_j) || s.observed_energy_j < 0.0;
  EXPECT_TRUE(raw_saw_garbage);
  // And paid for it in goal violations.
  EXPECT_LE(hardened_violations, raw_violations);
}

}  // namespace
}  // namespace socrates
