// Tests for the sampling DSE strategies: RandomSubsetExplorer and
// StratifiedExplorer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "support/error.hpp"

namespace socrates::dse {
namespace {

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

const DesignSpace& space() {
  static const DesignSpace kSpace = DesignSpace::paper_space(model().topology());
  return kSpace;
}

std::vector<ProfiledPoint> explore(const Explorer& explorer,
                                   const platform::KernelModelParams& kernel,
                                   std::size_t repetitions, std::uint64_t seed) {
  return explorer.explore({model(), kernel, space(), repetitions, seed}).points;
}

std::vector<ProfiledPoint> random_subset(const platform::KernelModelParams& kernel,
                                         double fraction, std::size_t repetitions,
                                         std::uint64_t seed) {
  return explore(RandomSubsetExplorer(fraction), kernel, repetitions, seed);
}

std::vector<ProfiledPoint> stratified(const platform::KernelModelParams& kernel,
                                      std::size_t threads_per_stratum,
                                      std::size_t repetitions, std::uint64_t seed) {
  return explore(StratifiedExplorer(threads_per_stratum), kernel, repetitions, seed);
}

TEST(RandomSubsetDse, BudgetIsRespected) {
  const auto points = random_subset(kernels::find_benchmark("2mm").model, 0.25, 2, 9);
  EXPECT_EQ(points.size(), 128u);  // ceil(0.25 * 512)
}

TEST(RandomSubsetDse, PointsAreDistinct) {
  const auto points = random_subset(kernels::find_benchmark("atax").model, 0.1, 2, 11);
  std::set<std::tuple<std::size_t, std::size_t, int>> seen;
  for (const auto& p : points)
    seen.insert({p.config_index, p.configuration.threads,
                 p.configuration.binding == platform::BindingPolicy::kClose ? 0 : 1});
  EXPECT_EQ(seen.size(), points.size());
}

TEST(RandomSubsetDse, FullFractionCoversEverything) {
  const auto points = random_subset(kernels::find_benchmark("mvt").model, 1.0, 1, 5);
  EXPECT_EQ(points.size(), space().size());
}

TEST(RandomSubsetDse, DeterministicPerSeedDifferentAcrossSeeds) {
  const auto& k = kernels::find_benchmark("syrk").model;
  const auto a = random_subset(k, 0.2, 1, 42);
  const auto b = random_subset(k, 0.2, 1, 42);
  const auto c = random_subset(k, 0.2, 1, 43);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal_ab = true;
  bool all_equal_ac = a.size() == c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    all_equal_ab &= a[i].configuration.threads == b[i].configuration.threads &&
                    a[i].config_index == b[i].config_index;
    if (all_equal_ac)
      all_equal_ac = a[i].configuration.threads == c[i].configuration.threads &&
                     a[i].config_index == c[i].config_index;
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

TEST(RandomSubsetDse, RejectsBadFraction) {
  const auto& k = kernels::find_benchmark("2mm").model;
  EXPECT_THROW(random_subset(k, 0.0, 1, 1), ContractViolation);
  EXPECT_THROW(random_subset(k, 1.5, 1, 1), ContractViolation);
  EXPECT_THROW(random_subset(k, -0.25, 1, 1), ContractViolation);
  EXPECT_THROW(random_subset(k, std::nan(""), 1, 1), ContractViolation);
}

TEST(RandomSubsetDse, RejectsZeroRepetitions) {
  const auto& k = kernels::find_benchmark("2mm").model;
  try {
    random_subset(k, 0.25, 0, 1);
    FAIL() << "repetitions == 0 must throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("repetitions"), std::string::npos)
        << "the violation should name the bad argument, got: " << e.what();
  }
}

TEST(StratifiedDse, RejectsZeroRepetitions) {
  const auto& k = kernels::find_benchmark("2mm").model;
  EXPECT_THROW(stratified(k, 6, 0, 1), ContractViolation);
}

TEST(StratifiedDse, CoversEveryStratumWithAnchors) {
  const auto points = stratified(kernels::find_benchmark("2mm").model, 5, 2, 7);
  // Every (config, binding) pair appears, with threads 1 and 32 present.
  std::set<std::pair<std::size_t, int>> strata;
  std::set<std::size_t> threads_seen;
  for (const auto& p : points) {
    strata.insert({p.config_index,
                   p.configuration.binding == platform::BindingPolicy::kClose ? 0 : 1});
    threads_seen.insert(p.configuration.threads);
  }
  EXPECT_EQ(strata.size(), 16u);
  EXPECT_TRUE(threads_seen.count(1) > 0);
  EXPECT_TRUE(threads_seen.count(32) > 0);
  EXPECT_LE(points.size(), 16u * 5u);
}

TEST(StratifiedDse, LadderIsGeometric) {
  const auto points = stratified(kernels::find_benchmark("mvt").model, 6, 1, 7);
  std::set<std::size_t> threads_seen;
  for (const auto& p : points) threads_seen.insert(p.configuration.threads);
  // Geometric spacing: more resolution at low thread counts.
  std::size_t below_8 = 0;
  for (const std::size_t t : threads_seen)
    if (t <= 8) ++below_8;
  EXPECT_GE(below_8, threads_seen.size() / 2);
}

TEST(StratifiedDse, SampledKnowledgeStillDrivesTheAsrtm) {
  // The point of DSE-strategy agnosticism: an AS-RTM on a stratified KB
  // makes decisions close to the full-factorial one.
  using M = margot::ContextMetrics;
  const auto& k = kernels::find_benchmark("2mm").model;

  const auto full = explore(FullFactorialExplorer(), k, 3, 2018);
  const auto sampled = stratified(k, 6, 3, 2018);

  margot::Asrtm full_rtm(to_knowledge_base(full));
  margot::Asrtm samp_rtm(to_knowledge_base(sampled));
  for (auto* rtm : {&full_rtm, &samp_rtm}) {
    rtm->set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
    rtm->add_constraint({M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  }
  const double t_full =
      full_rtm.best_operating_point().metrics[M::kExecTime].mean;
  const double t_samp =
      samp_rtm.best_operating_point().metrics[M::kExecTime].mean;
  EXPECT_LE(t_samp, t_full * 1.35) << "sampled KB should be within ~35% of full";
  EXPECT_GE(t_samp, t_full * 0.95) << "sampled KB cannot beat the superset";
}

}  // namespace
}  // namespace socrates::dse
