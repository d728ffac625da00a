// Tests for real-execution profiling and the extended rank forms
// (linear composition, energy and EDP factories).
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "socrates/real_profile.hpp"
#include "support/error.hpp"

namespace socrates {
namespace {

TEST(RealProfile, MeasuresRealWallTime) {
  const auto m = profile_real_kernel("mvt", 64, 3);
  EXPECT_EQ(m.benchmark, "mvt");
  EXPECT_EQ(m.repetitions, 3u);
  EXPECT_GT(m.exec_time_mean_s, 0.0);
  EXPECT_GE(m.exec_time_mean_s, m.exec_time_min_s);
  EXPECT_TRUE(std::isfinite(m.checksum));
}

TEST(RealProfile, LargerProblemTakesLonger) {
  const auto small = profile_real_kernel("2mm", 32, 3);
  const auto large = profile_real_kernel("2mm", 128, 3);
  EXPECT_GT(large.exec_time_mean_s, small.exec_time_mean_s);
}

TEST(RealProfile, EnergyBackendIsReported) {
  const auto m = profile_real_kernel("syrk", 48, 2);
  EXPECT_TRUE(m.energy_backend == "rapl-sysfs" || m.energy_backend == "simulated");
  if (!m.energy_available) {
    EXPECT_EQ(m.energy_mean_j, 0.0);  // never fabricate Joules
    EXPECT_EQ(m.avg_power_w, 0.0);
  } else {
    EXPECT_GT(m.energy_mean_j, 0.0);
  }
}

TEST(RealProfile, RejectsBadArguments) {
  EXPECT_THROW(profile_real_kernel("nope", 32, 2), ContractViolation);
  EXPECT_THROW(profile_real_kernel("2mm", 32, 0), ContractViolation);
}

// ---- extended ranks -----------------------------------------------------------

margot::KnowledgeBase kb3() {
  margot::KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  // energy: 10*50=500, 4*80=320, 1*140=140  -> op2 wins min-energy
  // EDP:    100*50=5000, 16*80=1280, 1*140=140 -> op2 wins min-EDP too,
  // but with op2 made slower the orders diverge (see tests).
  kb.add(margot::OperatingPoint{{0}, {{10.0, 0.0}, {50.0, 0.0}, {0.1, 0.0}}});
  kb.add(margot::OperatingPoint{{1}, {{4.0, 0.0}, {80.0, 0.0}, {0.25, 0.0}}});
  kb.add(margot::OperatingPoint{{2}, {{1.0, 0.0}, {140.0, 0.0}, {1.0, 0.0}}});
  return kb;
}

TEST(Rank, MinimizeEnergySelectsLowestJoules) {
  margot::Asrtm asrtm(kb3());
  asrtm.set_rank(margot::Rank::minimize_energy(0, 1));
  EXPECT_EQ(asrtm.find_best_operating_point(), 2u);  // 140 J
}

TEST(Rank, EnergyVsEdpCanDisagree) {
  margot::KnowledgeBase kb({"k"}, {"exec_time_s", "power_w", "throughput"});
  // op0: E = 2*60 = 120 J, EDP = 240 ; op1: E = 1*130 = 130 J, EDP = 130.
  kb.add(margot::OperatingPoint{{0}, {{2.0, 0.0}, {60.0, 0.0}, {0.5, 0.0}}});
  kb.add(margot::OperatingPoint{{1}, {{1.0, 0.0}, {130.0, 0.0}, {1.0, 0.0}}});
  margot::Asrtm asrtm(kb);
  asrtm.set_rank(margot::Rank::minimize_energy(0, 1));
  EXPECT_EQ(asrtm.find_best_operating_point(), 0u);
  asrtm.set_rank(margot::Rank::minimize_energy_delay(0, 1));
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
}

TEST(Rank, LinearCompositionIsWeightedSum) {
  const auto kb = kb3();
  const auto rank = margot::Rank::linear(margot::RankDirection::kMinimize,
                                         {{0, 10.0}, {1, 1.0}});
  // op0: 10*10+50 = 150; op1: 40+80 = 120; op2: 10+140 = 150.
  EXPECT_DOUBLE_EQ(rank.evaluate(kb, 0), 150.0);
  EXPECT_DOUBLE_EQ(rank.evaluate(kb, 1), 120.0);
  margot::Asrtm asrtm(kb);
  asrtm.set_rank(rank);
  EXPECT_EQ(asrtm.find_best_operating_point(), 1u);
}

TEST(Rank, LinearToleratesZeroAndNegativeMetrics) {
  margot::KnowledgeBase kb({"k"}, {"m"});
  kb.add(margot::OperatingPoint{{0}, {{0.0, 0.0}}});
  const auto rank = margot::Rank::linear(margot::RankDirection::kMinimize, {{0, 2.0}});
  EXPECT_DOUBLE_EQ(rank.evaluate(kb, 0), 0.0);  // geometric would throw
}

TEST(Rank, GeometricStillRejectsNonPositive) {
  margot::KnowledgeBase kb({"k"}, {"m"});
  kb.add(margot::OperatingPoint{{0}, {{0.0, 0.0}}});
  const margot::Rank rank{margot::RankDirection::kMinimize, {{0, 1.0}}};
  EXPECT_THROW(rank.evaluate(kb, 0), ContractViolation);
}

}  // namespace
}  // namespace socrates
