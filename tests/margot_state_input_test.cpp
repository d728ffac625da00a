// Tests for the mARGOt state manager and the input-aware application.
#include <gtest/gtest.h>

#include "margot/state_manager.hpp"
#include "socrates/input_aware_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

using M = margot::ContextMetrics;

margot::KnowledgeBase tiny_kb() {
  margot::KnowledgeBase kb({"config"}, {"exec_time_s", "power_w", "throughput"});
  kb.add(margot::OperatingPoint{{0}, {{10.0, 0.5}, {50.0, 1.0}, {0.1, 0.005}}});
  kb.add(margot::OperatingPoint{{1}, {{1.0, 0.05}, {140.0, 3.0}, {1.0, 0.05}}});
  return kb;
}

TEST(StateManager, FirstDefinedStateActivates) {
  margot::Asrtm asrtm(tiny_kb());
  margot::StateManager sm(asrtm);
  sm.define_state("energy", {},
                  margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  EXPECT_EQ(sm.active_state(), "energy");
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);  // 1/19600 > .1/2500? no ->
  // Thr/W^2: op0 = .1/2500 = 4.0e-5; op1 = 1/19600 = 5.1e-5 -> op1.
}

TEST(StateManager, SwitchReplacesRequirements) {
  margot::Asrtm asrtm(tiny_kb());
  margot::StateManager sm(asrtm);
  sm.define_state("performance", {}, margot::Rank::maximize_throughput(M::kThroughput));
  sm.define_state(
      "capped",
      {{M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0}},
      margot::Rank::minimize_exec_time(M::kExecTime));

  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);  // performance: fast point
  EXPECT_TRUE(sm.switch_to("capped"));
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);  // cap excludes 140 W
  EXPECT_EQ(asrtm.constraint_count(), 1u);
  EXPECT_FALSE(sm.switch_to("capped"));  // already active
  EXPECT_TRUE(sm.switch_to("performance"));
  EXPECT_EQ(asrtm.constraint_count(), 0u);
}

TEST(StateManager, FeedbackSurvivesStateSwitch) {
  margot::Asrtm asrtm(tiny_kb());
  margot::StateManager sm(asrtm);
  sm.define_state("a", {}, margot::Rank::maximize_throughput(M::kThroughput));
  sm.define_state("b", {}, margot::Rank::minimize_exec_time(M::kExecTime));
  asrtm.set_feedback_inertia(1.0);
  asrtm.send_feedback(0, M::kPower, 75.0);  // platform draws 1.5x
  sm.switch_to("b");
  EXPECT_NEAR(asrtm.correction(M::kPower), 1.5, 1e-12);
}

TEST(StateManager, GoalUpdateOnInactiveStateAppliesOnSwitch) {
  margot::Asrtm asrtm(tiny_kb());
  margot::StateManager sm(asrtm);
  sm.define_state("free", {}, margot::Rank::minimize_exec_time(M::kExecTime));
  sm.define_state(
      "capped",
      {{M::kPower, margot::ComparisonOp::kLessEqual, 200.0, 0, 0.0}},
      margot::Rank::minimize_exec_time(M::kExecTime));
  sm.set_state_constraint_goal("capped", 0, 100.0);
  sm.switch_to("capped");
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
}

TEST(StateManager, ContractChecks) {
  margot::Asrtm asrtm(tiny_kb());
  margot::StateManager sm(asrtm);
  EXPECT_THROW(sm.active_state(), ContractViolation);
  EXPECT_THROW(sm.switch_to("nope"), ContractViolation);
  sm.define_state("x", {}, margot::Rank::maximize_throughput(M::kThroughput));
  EXPECT_THROW(sm.define_state("x", {}, margot::Rank::maximize_throughput(M::kThroughput)),
               ContractViolation);
  EXPECT_THROW(sm.set_state_constraint_goal("x", 0, 1.0), ContractViolation);
}

// ---- input-aware application --------------------------------------------------

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

InputAwareApplication make_input_aware() {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  Pipeline tc(model(), opts);
  auto binary = build_input_aware(tc, "gemver", {0.01, 0.2, 1.0});
  return InputAwareApplication(std::move(binary), model());
}

TEST(InputAware, BuildsOneClusterPerScale) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 1;
  Pipeline tc(model(), opts);
  const auto binary = build_input_aware(tc, "2mm", {0.05, 0.5});
  EXPECT_EQ(binary.knowledge.cluster_count(), 2u);
  EXPECT_EQ(binary.knowledge.cluster(0).features[0], 0.05);
  EXPECT_EQ(binary.space.size(), 512u);
}

TEST(InputAware, SelectsNearestClusterOnInputChange) {
  auto app = make_input_aware();
  app.set_rank_all(margot::Rank::maximize_throughput(M::kThroughput));
  EXPECT_TRUE(app.set_input(0.012));
  EXPECT_EQ(app.active_cluster(), 0u);
  EXPECT_TRUE(app.set_input(0.9));
  EXPECT_EQ(app.active_cluster(), 2u);
  EXPECT_FALSE(app.set_input(0.95));  // same cluster
}

TEST(InputAware, RunRequiresInput) {
  auto app = make_input_aware();
  EXPECT_THROW(app.run_iteration(), ContractViolation);
  EXPECT_THROW(app.active_cluster(), ContractViolation);
}

TEST(InputAware, IterationUsesTheActiveClustersKnowledge) {
  auto app = make_input_aware();
  app.set_rank_all(margot::Rank::maximize_throughput(M::kThroughput));
  app.set_input(1.0);
  const auto big = app.run_iteration();
  app.set_input(0.01);
  const auto small = app.run_iteration();
  // The small input runs >> faster (and the chosen config may differ:
  // the cache-resident dataset is less bandwidth-limited).
  EXPECT_LT(small.exec_time_s, big.exec_time_s * 0.05);
}

TEST(InputAware, PerClusterKnowledgeDiffers) {
  // The premise of data features: the best throughput configuration is
  // not the same at every input scale for a bandwidth-bound kernel.
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  Pipeline tc(model(), opts);
  const auto binary = build_input_aware(tc, "gemver", {0.01, 1.0});

  const auto best_throughput_threads = [&](std::size_t cluster) {
    const auto& kb = binary.knowledge.cluster(cluster).knowledge;
    margot::Asrtm asrtm(kb);
    asrtm.set_rank(margot::Rank::maximize_throughput(M::kThroughput));
    return asrtm.best_operating_point().knobs[1];
  };
  // Small input scales further before hitting the bandwidth wall.
  EXPECT_GE(best_throughput_threads(0), best_throughput_threads(1));
}

TEST(InputAware, RejectsBadScales) {
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  Pipeline tc(model(), opts);
  EXPECT_THROW(build_input_aware(tc, "2mm", {}), ContractViolation);
  EXPECT_THROW(build_input_aware(tc, "2mm", {0.0}), ContractViolation);
  EXPECT_THROW(build_input_aware(tc, "2mm", {1.5}), ContractViolation);
}

}  // namespace
}  // namespace socrates
