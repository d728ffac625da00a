// End-to-end integration tests: the full SOCRATES toolchain (features
// -> COBAYN -> weaving -> DSE -> knowledge) and the adaptive
// application runtime (the Figure 4 / Figure 5 behaviours).
#include <gtest/gtest.h>

#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

Pipeline& pipeline() {
  static Pipeline kPipeline = [] {
    ToolchainOptions opts;
    opts.dse_repetitions = 3;
    opts.corpus_size = 32;
    return Pipeline(model(), opts);
  }();
  return kPipeline;
}

TEST(Toolchain, BuildProducesAllArtifacts) {
  const auto bin = pipeline().build("2mm");
  EXPECT_EQ(bin.benchmark, "2mm");
  EXPECT_EQ(bin.custom_configs.size(), 4u);
  EXPECT_EQ(bin.space.configs.size(), 8u);  // 4 levels + 4 CFs
  EXPECT_EQ(bin.profile.size(), 8u * 32u * 2u);
  EXPECT_EQ(bin.knowledge.size(), bin.profile.size());
  EXPECT_EQ(bin.woven.kernels.size(), 1u);
  EXPECT_EQ(bin.woven.kernels[0].versions.size(), 16u);
  EXPECT_GT(bin.kernel_features[features::kNumLoops], 0.0);
}

TEST(Toolchain, TwoStageWithPruningShrinksTheDeployment) {
  // SOCRATES_DSE=two-stage + SOCRATES_DSE_PRUNE: the Dse stage explores
  // a fraction of the space, the Prune stage clusters the front, and
  // the weaver emits only the pruned clone set (< the 16-clone cross
  // product) while the knowledge base carries the representatives only.
  ToolchainOptions opts;
  opts.dse_repetitions = 3;
  opts.corpus_size = 32;
  opts.dse.kind = dse::DseStrategyOptions::Kind::kTwoStage;
  opts.dse.max_representatives = 6;
  Pipeline tc(model(), opts);
  const auto bin = tc.build("2mm");

  EXPECT_LT(bin.profile.size(), bin.space.size() / 4)
      << "the two-stage search must explore far fewer points than the sweep";
  ASSERT_FALSE(bin.representatives.empty());
  EXPECT_LE(bin.representatives.size(), 6u);
  for (const std::size_t i : bin.representatives) ASSERT_LT(i, bin.profile.size());
  EXPECT_EQ(bin.knowledge.size(), bin.representatives.size());
  ASSERT_EQ(bin.woven.kernels.size(), 1u);
  EXPECT_LT(bin.woven.kernels[0].versions.size(), 16u);
  EXPECT_GE(bin.woven.kernels[0].versions.size(), 1u);
}

TEST(Toolchain, PaperCfModeUsesPublishedConfigs) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 1;
  Pipeline tc(model(), opts);
  const auto bin = tc.build("mvt");
  const auto paper = platform::paper_custom_configs();
  ASSERT_EQ(bin.custom_configs.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i)
    EXPECT_TRUE(bin.custom_configs[i].config == paper[i].config);
}

TEST(Toolchain, CobaynTrainsOnce) {
  pipeline().cobayn_model();
  EXPECT_TRUE(pipeline().cobayn_ready());
  const auto* before = &pipeline().cobayn_model();
  pipeline().cobayn_model();  // idempotent
  EXPECT_EQ(before, &pipeline().cobayn_model());
}

// ---- Figure 4 behaviour: static power-budget sweep -----------------------------

TEST(PowerBudgetSweep, ExecTimeMonotoneNonIncreasing) {
  const auto bin = pipeline().build("2mm");
  margot::Asrtm asrtm(bin.knowledge);
  asrtm.set_rank(margot::Rank::minimize_exec_time(margot::ContextMetrics::kExecTime));
  const auto handle = asrtm.add_constraint(
      {margot::ContextMetrics::kPower, margot::ComparisonOp::kLessEqual, 0.0, 0, 0.0});

  double prev_time = 1e100;
  bool saw_infeasible = false;
  bool saw_feasible = false;
  for (double budget = 45.0; budget <= 140.0; budget += 5.0) {
    asrtm.set_constraint_goal(handle, budget);
    const auto& op = asrtm.best_operating_point();
    EXPECT_LE(op.metrics[margot::ContextMetrics::kExecTime].mean, prev_time * 1.0001);
    prev_time = op.metrics[margot::ContextMetrics::kExecTime].mean;
    saw_infeasible |= !asrtm.last_selection_feasible();
    saw_feasible |= asrtm.last_selection_feasible();
  }
  EXPECT_TRUE(saw_infeasible) << "45 W should be below the platform floor";
  EXPECT_TRUE(saw_feasible);
}

TEST(PowerBudgetSweep, SelectedThreadsGrowWithBudget) {
  const auto bin = pipeline().build("2mm");
  margot::Asrtm asrtm(bin.knowledge);
  asrtm.set_rank(margot::Rank::minimize_exec_time(margot::ContextMetrics::kExecTime));
  const auto handle = asrtm.add_constraint(
      {margot::ContextMetrics::kPower, margot::ComparisonOp::kLessEqual, 60.0, 0, 0.0});
  const auto low = asrtm.knowledge()[asrtm.find_best_operating_point()].knobs[1];
  asrtm.set_constraint_goal(handle, 140.0);
  const auto high = asrtm.knowledge()[asrtm.find_best_operating_point()].knobs[1];
  EXPECT_GT(high, low);
}

// ---- Figure 5 behaviour: runtime requirement switching --------------------------

TEST(RuntimeTrace, RankSwitchMovesTheOperatingPoint) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  opts.work_scale = 0.01;
  Pipeline tc(model(), opts);
  AdaptiveApplication app(tc.build("2mm"), model(), 0.01);

  using M = margot::ContextMetrics;
  app.asrtm().set_rank(
      margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  std::vector<TraceSample> trace;
  app.run_until(30.0, trace);
  const auto eco = trace.back();

  app.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  app.run_until(60.0, trace);
  const auto fast = trace.back();

  app.asrtm().set_rank(
      margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  app.run_until(90.0, trace);
  const auto eco2 = trace.back();

  // Performance mode: more power, shorter kernel time, >= threads.
  EXPECT_GT(fast.power_w, eco.power_w * 1.2);
  EXPECT_LT(fast.exec_time_s, eco.exec_time_s);
  EXPECT_GE(fast.threads, eco.threads);
  // And the policy reverts.
  EXPECT_EQ(eco2.config_name, eco.config_name);
  EXPECT_EQ(eco2.threads, eco.threads);
}

TEST(RuntimeTrace, IterationsAdvanceSimulatedTime) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 1;
  opts.work_scale = 0.05;
  Pipeline tc(model(), opts);
  AdaptiveApplication app(tc.build("syrk"), model(), 0.05);
  app.asrtm().set_rank(
      margot::Rank::maximize_throughput(margot::ContextMetrics::kThroughput));
  const double t0 = app.now_s();
  const auto s1 = app.run_iteration();
  EXPECT_TRUE(s1.configuration_changed);  // first update always changes
  const auto s2 = app.run_iteration();
  EXPECT_FALSE(s2.configuration_changed);
  EXPECT_GT(app.now_s(), t0);
  EXPECT_NEAR(app.now_s(), s1.exec_time_s + s2.exec_time_s, 1e-9);
}

TEST(RuntimeTrace, FeedbackKeepsSelectionStableUnderNoise) {
  // With measurement noise the EWMA correction must not oscillate the
  // configuration on a stationary workload.
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  opts.work_scale = 0.02;
  Pipeline tc(model(), opts);
  AdaptiveApplication app(tc.build("2mm"), model(), 0.02);
  app.asrtm().set_rank(
      margot::Rank::maximize_throughput(margot::ContextMetrics::kThroughput));
  std::vector<TraceSample> trace;
  app.run_until(20.0, trace);
  std::size_t switches = 0;
  for (std::size_t i = 1; i < trace.size(); ++i)
    if (trace[i].configuration_changed) ++switches;
  EXPECT_LE(switches, trace.size() / 10);
}

}  // namespace
}  // namespace socrates
