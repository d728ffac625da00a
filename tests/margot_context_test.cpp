// Tests for the application-facing mARGOt Context (the API the weaver
// inserts: update / start_monitors / stop_monitors).
#include <gtest/gtest.h>

#include "margot/context.hpp"
#include "platform/clock.hpp"
#include "platform/design_space.hpp"
#include "platform/rapl.hpp"
#include "support/error.hpp"

namespace socrates::margot {
namespace {

KnowledgeBase ctx_kb() {
  KnowledgeBase kb(platform::DesignSpace::knob_names(),
                   platform::DesignSpace::metric_names());
  kb.add(OperatingPoint{{0, 1, 0}, {{2.0, 0.1}, {55.0, 1.0}, {0.5, 0.02}}});
  kb.add(OperatingPoint{{1, 16, 0}, {{0.5, 0.02}, {120.0, 2.0}, {2.0, 0.1}}});
  return kb;
}

struct Fixture {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  Context ctx{ctx_kb(), clock, rapl};
};

TEST(Context, RequiresTheStandardMetricSchema) {
  platform::VirtualClock clock;
  platform::SimulatedRapl rapl;
  KnowledgeBase bad({"k"}, {"latency"});
  bad.add(OperatingPoint{{0}, {{1.0, 0.0}}});
  EXPECT_THROW(Context(std::move(bad), clock, rapl), ContractViolation);
}

TEST(Context, UpdateWritesKnobsAndReportsChange) {
  Fixture f;
  f.ctx.asrtm().set_rank(Rank::maximize_throughput(ContextMetrics::kThroughput));
  std::vector<int> knobs(3, -1);
  EXPECT_TRUE(f.ctx.update(knobs));  // first call is always a change
  EXPECT_EQ(knobs, (std::vector<int>{1, 16, 0}));
  EXPECT_FALSE(f.ctx.update(knobs));  // same selection again
}

TEST(Context, UpdateDetectsRankSwitch) {
  Fixture f;
  auto& asrtm = f.ctx.asrtm();
  asrtm.set_rank(Rank::maximize_throughput(ContextMetrics::kThroughput));
  std::vector<int> knobs(3);
  f.ctx.update(knobs);
  asrtm.set_rank(
      Rank::maximize_throughput_per_watt2(ContextMetrics::kThroughput,
                                          ContextMetrics::kPower));
  EXPECT_TRUE(f.ctx.update(knobs));
  EXPECT_EQ(knobs[0], 0);  // frugal point wins Thr/W^2 here
}

TEST(Context, UpdateRejectsWrongKnobArity) {
  Fixture f;
  std::vector<int> knobs(2);
  EXPECT_THROW(f.ctx.update(knobs), ContractViolation);
}

TEST(Context, MonitorsObserveTheRegion) {
  Fixture f;
  std::vector<int> knobs(3);
  f.ctx.update(knobs);
  f.ctx.start_monitors();
  f.clock.advance(0.5);
  f.rapl.accrue(0.5, 100.0);
  f.ctx.stop_monitors();
  EXPECT_DOUBLE_EQ(f.ctx.time_monitor().stats().last(), 0.5);
  EXPECT_DOUBLE_EQ(f.ctx.power_monitor().stats().last(), 100.0);
  EXPECT_DOUBLE_EQ(f.ctx.energy_monitor().stats().last(), 50.0);
}

TEST(Context, StopFeedsTheAsrtm) {
  Fixture f;
  f.ctx.asrtm().set_rank(Rank::maximize_throughput(ContextMetrics::kThroughput));
  f.ctx.asrtm().set_feedback_inertia(1.0);
  std::vector<int> knobs(3);
  f.ctx.update(knobs);  // selects op1 (exec_time mean 0.5)
  f.ctx.start_monitors();
  f.clock.advance(1.0);  // twice as slow as profiled
  f.rapl.accrue(1.0, 120.0);
  f.ctx.stop_monitors();
  EXPECT_NEAR(f.ctx.asrtm().correction(ContextMetrics::kExecTime), 2.0, 1e-12);
  EXPECT_NEAR(f.ctx.asrtm().correction(ContextMetrics::kPower), 1.0, 1e-12);
}

TEST(Context, StopWithoutUpdateIsAnError) {
  Fixture f;
  f.ctx.start_monitors();
  f.clock.advance(0.1);
  EXPECT_THROW(f.ctx.stop_monitors(), ContractViolation);
}

TEST(Context, LogReportsStatus) {
  Fixture f;
  EXPECT_NE(f.ctx.log().find("no operating point"), std::string::npos);
  f.ctx.asrtm().set_rank(Rank::maximize_throughput(ContextMetrics::kThroughput));
  std::vector<int> knobs(3);
  f.ctx.update(knobs);
  f.ctx.start_monitors();
  f.clock.advance(0.5);
  f.rapl.accrue(0.5, 100.0);
  f.ctx.stop_monitors();
  const std::string line = f.ctx.log();
  EXPECT_NE(line.find("op#1"), std::string::npos);
  EXPECT_NE(line.find("knobs=[1,16,0]"), std::string::npos);
  EXPECT_NE(line.find("time=500.0ms"), std::string::npos);
  EXPECT_NE(line.find("power=100.0W"), std::string::npos);
}

}  // namespace
}  // namespace socrates::margot
