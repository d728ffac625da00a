// Tests for the scripted scenario runner.
#include <gtest/gtest.h>

#include "margot/state_manager.hpp"
#include "socrates/scenario.hpp"
#include "socrates/pipeline.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

using M = margot::ContextMetrics;

AdaptiveApplication make_app() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 2;
  opts.work_scale = 0.02;
  Pipeline tc(kModel, opts);
  return AdaptiveApplication(tc.build("2mm"), kModel, opts.work_scale);
}

TEST(Scenario, EventsFireInTimeOrder) {
  auto app = make_app();
  app.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));

  std::vector<int> order;
  Scenario scenario;
  scenario.at(6.0, "second", [&](AdaptiveApplication&) { order.push_back(2); })
      .at(2.0, "first", [&](AdaptiveApplication&) { order.push_back(1); })
      .at(9.0, "third", [&](AdaptiveApplication&) { order.push_back(3); });
  const auto trace = scenario.run(app, 12.0);

  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scenario.fired(),
            (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(trace.empty());
  EXPECT_GE(app.now_s(), 12.0);
}

TEST(Scenario, EventsBeyondDurationDoNotFire) {
  auto app = make_app();
  app.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  bool fired = false;
  Scenario scenario;
  scenario.at(50.0, "too late", [&](AdaptiveApplication&) { fired = true; });
  scenario.run(app, 10.0);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(scenario.fired().empty());
}

TEST(Scenario, StateSwitchEventChangesBehaviour) {
  auto app = make_app();
  margot::StateManager states(app.asrtm());
  states.define_state(
      "energy", {},
      margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  states.define_state("performance", {},
                      margot::Rank::maximize_throughput(M::kThroughput));

  Scenario scenario;
  scenario.at(10.0, "go fast",
              [&](AdaptiveApplication&) { states.switch_to("performance"); });
  const auto trace = scenario.run(app, 20.0);

  double power_before = 0.0, power_after = 0.0;
  std::size_t n_before = 0, n_after = 0;
  for (const auto& s : trace) {
    if (s.timestamp_s < 9.5) {
      power_before += s.power_w;
      ++n_before;
    } else if (s.timestamp_s > 11.0) {
      power_after += s.power_w;
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 0u);
  ASSERT_GT(n_after, 0u);
  EXPECT_GT(power_after / n_after, (power_before / n_before) * 1.2);
}

TEST(Scenario, RelativeToCurrentTime) {
  // A scenario can run twice on the same app: times are relative.
  auto app = make_app();
  app.asrtm().set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  int fires = 0;
  Scenario scenario;
  scenario.at(1.0, "tick", [&](AdaptiveApplication&) { ++fires; });
  scenario.run(app, 3.0);
  scenario.run(app, 3.0);
  EXPECT_EQ(fires, 2);
  EXPECT_GE(app.now_s(), 6.0);
}

TEST(Scenario, ContractChecks) {
  Scenario scenario;
  EXPECT_THROW(scenario.at(-1.0, "bad", [](AdaptiveApplication&) {}),
               ContractViolation);
  EXPECT_THROW(scenario.at(1.0, "null", nullptr), ContractViolation);
  auto app = make_app();
  EXPECT_THROW(scenario.run(app, 0.0), ContractViolation);
}

}  // namespace
}  // namespace socrates
