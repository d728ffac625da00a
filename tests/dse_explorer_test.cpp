// The Explorer interface: strategy construction, the two-stage search,
// representative pruning, and the determinism/degradation contracts of
// docs/DSE.md.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/representative.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace socrates::dse {
namespace {

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

const platform::DesignSpace& space() {
  static const platform::DesignSpace kSpace =
      platform::DesignSpace::paper_space(model().topology());
  return kSpace;
}

ExploreContext context(const platform::KernelModelParams& kernel,
                       std::size_t repetitions = 2, std::uint64_t seed = 11) {
  return ExploreContext{model(), kernel, space(), repetitions, seed, 1.0, nullptr, 1};
}

std::uint64_t fingerprint(const Explorer& e) {
  Hasher h;
  e.add_to_key(h);
  return h.digest();
}

class DseExplorer : public ::testing::Test {
 protected:
  void SetUp() override { ChaosEngine::global().disarm(); }
  void TearDown() override { ChaosEngine::global().disarm(); }
};

TEST_F(DseExplorer, DecodeKnobsRoundTripsAcrossEveryStrategy) {
  // Whatever strategy produced the knowledge base, decoding an
  // operating point's knobs must recover the exact configuration that
  // was profiled.
  const auto& kernel = kernels::find_benchmark("2mm").model;
  TwoStageExplorer::Params params;
  params.seed_configs = {4, 6};

  const FullFactorialExplorer full;
  const TwoStageExplorer two_stage(params);
  for (const Explorer* e : std::vector<const Explorer*>{&full, &two_stage}) {
    const auto result = e->explore(context(kernel));
    ASSERT_FALSE(result.points.empty()) << e->name();
    if (e == &full) {
      EXPECT_EQ(result.evaluated, space().size());
    }

    // Each returned point names a distinct flat index of the space, and
    // its knowledge row decodes back to that index.
    std::set<std::size_t> profiled;
    for (const auto& p : result.points) {
      ASSERT_LT(p.flat, space().size()) << e->name();
      profiled.insert(p.flat);
    }
    EXPECT_EQ(profiled.size(), result.points.size()) << e->name();

    const auto kb = to_knowledge_base(space(), result.points);
    ASSERT_EQ(kb.size(), result.points.size()) << e->name();
    for (std::size_t k = 0; k < kb.size(); ++k)
      EXPECT_EQ(space().flat(space().decode(kb[k].knobs)), result.points[k].flat)
          << e->name() << " point " << k;
  }
}

TEST_F(DseExplorer, MakeExplorerBuildsTheConfiguredStrategy) {
  DseStrategyOptions options;
  EXPECT_EQ(make_explorer(options)->name(), "full");
  options.kind = DseStrategyOptions::Kind::kTwoStage;
  EXPECT_EQ(make_explorer(options, {4, 5})->name(), "two-stage");
}

TEST_F(DseExplorer, FingerprintsSeparateStrategiesAndBudgets) {
  // The artifact cache must never serve one strategy's profile to
  // another — or to the same strategy with a different budget.
  const FullFactorialExplorer full;
  TwoStageExplorer::Params pa;
  TwoStageExplorer::Params pb;
  pb.budget = 64;
  TwoStageExplorer::Params pc;
  pc.seed_configs = {4};
  const TwoStageExplorer two_a(pa);
  const TwoStageExplorer two_b(pb);
  const TwoStageExplorer two_c(pc);

  std::set<std::uint64_t> prints{fingerprint(full), fingerprint(two_a),
                                 fingerprint(two_b), fingerprint(two_c)};
  EXPECT_EQ(prints.size(), 4u);
  EXPECT_EQ(fingerprint(two_b), fingerprint(TwoStageExplorer(pb)));
}

TEST_F(DseExplorer, ProfilePointsKeepsTheRequestOrderAndTheSweepBits) {
  // The one per-point loop: survivors come back in the caller's order,
  // each measured exactly as the full sweep measures that flat index.
  const auto& kernel = kernels::find_benchmark("atax").model;
  const auto full = FullFactorialExplorer().explore(context(kernel));
  const std::vector<std::size_t> wanted = {300, 7, 511};
  const auto picked = profile_points(context(kernel), wanted);
  EXPECT_EQ(picked.evaluated, wanted.size());
  ASSERT_EQ(picked.points.size(), wanted.size());
  for (std::size_t k = 0; k < wanted.size(); ++k) {
    EXPECT_EQ(picked.points[k].flat, wanted[k]);
    EXPECT_EQ(picked.points[k].exec_time_mean_s, full.points[wanted[k]].exec_time_mean_s);
    EXPECT_EQ(picked.points[k].power_mean_w, full.points[wanted[k]].power_mean_w);
  }
}

TEST_F(DseExplorer, TwoStageRespectsTheBudget) {
  const auto& kernel = kernels::find_benchmark("syrk").model;
  TwoStageExplorer::Params params;
  params.budget = 32;
  params.seed_configs = {4, 5, 6, 7};
  const TwoStageExplorer explorer(params);
  EXPECT_EQ(explorer.resolved_budget(space().size()), 32u);

  const auto result = explorer.explore(context(kernel, 2, 2018));
  EXPECT_LE(result.evaluated, 32u);
  EXPECT_LE(result.points.size(), result.evaluated);
  EXPECT_GT(result.points.size(), 0u);

  // The auto budget stays an order of magnitude below the space and
  // never exceeds it.
  TwoStageExplorer::Params auto_params;
  const TwoStageExplorer auto_explorer(auto_params);
  EXPECT_LE(auto_explorer.resolved_budget(space().size()), space().size() / 10);
  EXPECT_EQ(auto_explorer.resolved_budget(3), 3u);
}

// A strategy must refuse a profile with no runs per point, and the
// violation must name the bad argument.
void expect_rejects_zero_repetitions(const Explorer& e) {
  const auto& kernel = kernels::find_benchmark("2mm").model;
  try {
    e.explore(context(kernel, 0));
    ADD_FAILURE() << e.name() << ": repetitions == 0 must throw";
  } catch (const ContractViolation& err) {
    EXPECT_NE(std::string(err.what()).find("repetitions"), std::string::npos)
        << e.name() << ": the violation should name the bad argument, got: "
        << err.what();
  }
}

TEST_F(DseExplorer, FullFactorialRejectsZeroRepetitions) {
  expect_rejects_zero_repetitions(FullFactorialExplorer{});
}

TEST_F(DseExplorer, TwoStageRejectsZeroRepetitions) {
  expect_rejects_zero_repetitions(TwoStageExplorer(TwoStageExplorer::Params{}));
}

TEST_F(DseExplorer, TwoStageRejectsBadParameters) {
  TwoStageExplorer::Params bad_seed;
  bad_seed.seed_configs = {space().configs.size()};
  const TwoStageExplorer explorer(bad_seed);
  const auto& kernel = kernels::find_benchmark("2mm").model;
  EXPECT_THROW(explorer.explore(context(kernel)), ContractViolation);
}

TEST_F(DseExplorer, TwoStageSeedChangesTheSearch) {
  const auto& kernel = kernels::find_benchmark("gemver").model;
  TwoStageExplorer::Params params;
  params.seed_configs = {5};
  const TwoStageExplorer explorer(params);
  const auto a = explorer.explore(context(kernel, 2, 1));
  const auto b = explorer.explore(context(kernel, 2, 1));
  const auto c = explorer.explore(context(kernel, 2, 2));

  const auto flat_set = [](const ExploreResult& r) {
    std::set<std::size_t> s;
    for (const auto& p : r.points) s.insert(p.flat);
    return s;
  };
  EXPECT_EQ(flat_set(a), flat_set(b)) << "same seed, same exploration";
  EXPECT_NE(flat_set(a), flat_set(c)) << "the seed must steer the noisy search";
}

TEST_F(DseExplorer, ChaosDropsPointsButNeverCorruptsTheArchive) {
  // stage-fail arms the dse.point site: with one attempt per point, a
  // faulted point is dropped and the polish walks a smaller archive,
  // but every returned point is bit-identical to the clean sweep's
  // measurement of the same flat index.
  const auto& kernel = kernels::find_benchmark("nussinov").model;
  const auto clean = FullFactorialExplorer().explore(context(kernel, 2, 7));
  TwoStageExplorer::Params params;
  params.seed_configs = {4};
  const TwoStageExplorer explorer(params);

  ChaosEngine::global().install(ChaosSpec::parse("stage-fail=0.3:13"));
  const auto chaotic = explorer.explore(context(kernel, 2, 7));
  ChaosEngine::global().disarm();

  EXPECT_GT(chaotic.dropped, 0u) << "the chaos schedule must drop some points";
  EXPECT_EQ(chaotic.points.size() + chaotic.dropped, chaotic.evaluated);
  EXPECT_LE(chaotic.evaluated, explorer.resolved_budget(space().size()));
  ASSERT_FALSE(chaotic.points.empty());
  for (const auto& p : chaotic.points) {
    const auto& want = clean.points[p.flat];
    EXPECT_EQ(p.exec_time_mean_s, want.exec_time_mean_s) << "flat " << p.flat;
    EXPECT_EQ(p.power_mean_w, want.power_mean_w) << "flat " << p.flat;
  }
}

TEST_F(DseExplorer, SampledKnowledgeStillDrivesTheAsrtm) {
  // The point of DSE-strategy agnosticism: an AS-RTM on the two-stage
  // KB makes decisions close to the full-factorial one.
  using M = margot::ContextMetrics;
  const auto& kernel = kernels::find_benchmark("2mm").model;
  TwoStageExplorer::Params params;
  params.seed_configs = {4, 5, 6, 7};

  const auto full = FullFactorialExplorer().explore(context(kernel, 3, 2018)).points;
  const auto sampled = TwoStageExplorer(params).explore(context(kernel, 3, 2018)).points;

  margot::Asrtm full_rtm(to_knowledge_base(space(), full));
  margot::Asrtm samp_rtm(to_knowledge_base(space(), sampled));
  for (auto* rtm : {&full_rtm, &samp_rtm}) {
    rtm->set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
    rtm->add_constraint({M::kPower, margot::ComparisonOp::kLessEqual, 100.0, 0, 0.0});
  }
  const double t_full = full_rtm.best_operating_point().metrics[M::kExecTime].mean;
  const double t_samp = samp_rtm.best_operating_point().metrics[M::kExecTime].mean;
  EXPECT_LE(t_samp, t_full * 1.35) << "sampled KB should be within ~35% of full";
  EXPECT_GE(t_samp, t_full * 0.95) << "sampled KB cannot beat the superset";
}

TEST_F(DseExplorer, StrategyOptionsDefaultsReproduceThePaper) {
  const DseStrategyOptions options;
  EXPECT_EQ(options.kind, DseStrategyOptions::Kind::kFull);
  EXPECT_EQ(options.max_representatives, 0u);
  EXPECT_EQ(make_explorer(options)->name(), "full");
}

// ---- representative pruning --------------------------------------------------------

ProfiledPoint point(double exec_s, double power_w) {
  ProfiledPoint p;
  p.exec_time_mean_s = exec_s;
  p.power_mean_w = power_w;
  return p;
}

TEST_F(DseExplorer, RepresentativesKeepTheExtremesAndTheCap) {
  const auto& kernel = kernels::find_benchmark("2mm").model;
  const auto full = FullFactorialExplorer().explore(context(kernel, 2, 2018)).points;
  const auto rs = select_representatives(full, 6);

  ASSERT_LE(rs.representatives.size(), 6u);
  ASSERT_GE(rs.representatives.size(), 2u);
  // Representatives are front members.
  const std::set<std::size_t> front(rs.front.begin(), rs.front.end());
  for (const std::size_t i : rs.representatives) EXPECT_TRUE(front.count(i));

  // The extremes of the front survive pruning.
  std::size_t cheapest = rs.front[0], fastest = rs.front[0];
  for (const std::size_t i : rs.front) {
    if (full[i].power_mean_w < full[cheapest].power_mean_w) cheapest = i;
    if (full[i].throughput() > full[fastest].throughput()) fastest = i;
  }
  const std::set<std::size_t> reps(rs.representatives.begin(),
                                   rs.representatives.end());
  EXPECT_TRUE(reps.count(cheapest));
  EXPECT_TRUE(reps.count(fastest));

  // Deterministic.
  EXPECT_EQ(select_representatives(full, 6).representatives, rs.representatives);
}

TEST_F(DseExplorer, RepresentativesZeroCapKeepsTheWholeFront) {
  const std::vector<ProfiledPoint> pts = {point(1.0, 10.0), point(0.5, 20.0),
                                          point(0.25, 40.0), point(2.0, 50.0)};
  const auto rs = select_representatives(pts, 0);
  EXPECT_EQ(rs.representatives, rs.front);
  EXPECT_EQ(rs.front.size(), 3u) << "the dominated point (2s @ 50W) is excluded";
  EXPECT_THROW(select_representatives({}, 4), ContractViolation);
}

TEST_F(DseExplorer, HypervolumeMatchesTheStaircase) {
  // Front: (thr 1, pw 10), (thr 2, pw 20) against ref 30:
  // 1*(30-10) + (2-1)*(30-20) = 30.
  const std::vector<ProfiledPoint> pts = {point(1.0, 10.0), point(0.5, 20.0)};
  EXPECT_DOUBLE_EQ(pareto_hypervolume(pts, 30.0), 30.0);
  // A dominated point adds nothing.
  std::vector<ProfiledPoint> with_dominated = pts;
  with_dominated.push_back(point(1.5, 25.0));
  EXPECT_DOUBLE_EQ(pareto_hypervolume(with_dominated, 30.0), 30.0);
  // Points past the reference contribute nothing.
  EXPECT_DOUBLE_EQ(pareto_hypervolume(pts, 15.0), 5.0);
  EXPECT_THROW(pareto_hypervolume(pts, 0.0), ContractViolation);
  EXPECT_DOUBLE_EQ(pareto_hypervolume({}, 30.0), 0.0);
}

}  // namespace
}  // namespace socrates::dse
