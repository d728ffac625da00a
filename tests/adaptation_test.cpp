// MAPE-K reaction tests: the AS-RTM must discover external load through
// its monitors and adjust the configuration, without being told.
#include <gtest/gtest.h>

#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"

namespace socrates {
namespace {

using M = margot::ContextMetrics;

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

AdaptiveApplication make_app(const char* bench, double work_scale = 0.02) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  opts.work_scale = work_scale;
  Pipeline tc(model(), opts);
  return AdaptiveApplication(tc.build(bench), model(), work_scale);
}

TEST(Adaptation, CorrectionTracksCoRunnerSlowdown) {
  auto app = make_app("gemver");
  app.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));

  platform::DisturbanceSchedule sched;
  sched.add({5.0, 1e9, /*bw_steal=*/0.5, 0.0, 0.0});
  app.set_disturbances(std::move(sched));

  std::vector<TraceSample> trace;
  app.run_until(4.0, trace);
  const double before = app.margot().asrtm().correction(M::kExecTime);
  EXPECT_NEAR(before, 1.0, 0.05);

  app.run_until(30.0, trace);
  const double during = app.margot().asrtm().correction(M::kExecTime);
  // gemver is bandwidth-bound (beta=.75): a 50% steal costs ~1.5-1.8x.
  EXPECT_GT(during, 1.3);
}

TEST(Adaptation, PowerCapHoldsUnderPowerDisturbance) {
  // A co-runner adds 25 W of package power.  Under a 100 W cap the
  // feedback-corrected AS-RTM must move to a configuration whose
  // *observed* power is back under the cap.
  auto app = make_app("2mm");
  app.asrtm().set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  app.asrtm().add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});

  std::vector<TraceSample> calm;
  app.run_until(10.0, calm);
  const auto baseline = calm.back();
  EXPECT_LE(baseline.power_w, 104.0);

  platform::DisturbanceSchedule sched;
  sched.add({10.0, 1e9, 0.0, 0.0, /*power=*/25.0});
  app.set_disturbances(std::move(sched));

  std::vector<TraceSample> disturbed;
  app.run_until(60.0, disturbed);
  // Late in the episode the loop has adapted: observed power <= cap
  // (small slack for noise) even though the co-runner adds 25 W.
  const auto& late = disturbed.back();
  EXPECT_LE(late.power_w, 106.0);
  // And it had to pick a leaner configuration than before.
  EXPECT_LE(late.threads, baseline.threads);
}

TEST(Adaptation, RecoversWhenTheEpisodeEnds) {
  auto app = make_app("2mm");
  app.asrtm().set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  app.asrtm().add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});

  platform::DisturbanceSchedule sched;
  sched.add({5.0, 40.0, 0.0, 0.0, 25.0});
  app.set_disturbances(std::move(sched));

  std::vector<TraceSample> trace;
  app.run_until(40.0, trace);
  const auto during = trace.back();
  app.run_until(120.0, trace);
  const auto after = trace.back();
  // Once the co-runner leaves, the corrections decay and the AS-RTM
  // climbs back to a more aggressive point.
  EXPECT_GE(after.threads, during.threads);
  EXPECT_LE(after.exec_time_s, during.exec_time_s * 1.02);
}

TEST(Adaptation, UncorrectedRtmViolatesTheCap) {
  // Negative control: with feedback frozen (inertia ~ 0 keeps the
  // correction at 1.0 forever), the same disturbance pushes the
  // selection over the cap and it stays there.
  auto app = make_app("2mm");
  app.asrtm().set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  app.asrtm().add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  app.asrtm().set_feedback_inertia(1e-9);  // effectively no learning

  platform::DisturbanceSchedule sched;
  sched.add({5.0, 1e9, 0.0, 0.0, 25.0});
  app.set_disturbances(std::move(sched));

  std::vector<TraceSample> trace;
  app.run_until(60.0, trace);
  EXPECT_GT(trace.back().power_w, 105.0)
      << "without adaptation the cap must be violated";
}

}  // namespace
}  // namespace socrates
