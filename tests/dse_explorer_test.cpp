// The Explorer interface: strategy construction, the two-stage search,
// representative pruning, and the determinism/degradation contracts of
// docs/DSE.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/representative.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
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

const DesignSpace& space() {
  static const DesignSpace kSpace = DesignSpace::paper_space(model().topology());
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
  const RandomSubsetExplorer subset(0.1);
  const StratifiedExplorer stratified(4);
  const TwoStageExplorer two_stage(params);
  for (const Explorer* e :
       std::vector<const Explorer*>{&full, &subset, &stratified, &two_stage}) {
    const auto result = e->explore(context(kernel));
    ASSERT_FALSE(result.points.empty()) << e->name();
    if (e == &full) {
      EXPECT_EQ(result.evaluated, space().size());
    }

    // Each returned point names its flat index, and that index decodes
    // to the point's own configuration, threads and binding.
    ASSERT_EQ(result.flat.size(), result.points.size()) << e->name();
    for (std::size_t k = 0; k < result.points.size(); ++k) {
      const auto& p = result.points[k];
      const auto fp = detail::decompose_flat(space(), result.flat[k]);
      EXPECT_EQ(fp.config, p.config_index) << e->name() << " point " << k;
      EXPECT_EQ(space().thread_counts[fp.thread], p.configuration.threads)
          << e->name() << " point " << k;
      EXPECT_EQ(space().bindings[fp.binding], p.configuration.binding)
          << e->name() << " point " << k;
    }

    std::set<std::tuple<std::size_t, int>> profiled;
    for (const auto& p : result.points)
      profiled.insert({p.configuration.threads, static_cast<int>(p.configuration.binding)});

    const auto kb = to_knowledge_base(result.points);
    ASSERT_EQ(kb.size(), result.points.size()) << e->name();
    for (const auto& op : kb.points()) {
      const auto config = decode_knobs(space(), op.knobs);
      EXPECT_TRUE(profiled.count({config.threads, static_cast<int>(config.binding)}))
          << e->name() << ": decoded a configuration that was never profiled";
    }
  }
}

TEST_F(DseExplorer, MakeExplorerBuildsTheConfiguredStrategy) {
  DseStrategyOptions options;
  EXPECT_EQ(make_explorer(options)->name(), "full");
  options.kind = DseStrategyOptions::Kind::kSubset;
  EXPECT_EQ(make_explorer(options)->name(), "subset");
  options.kind = DseStrategyOptions::Kind::kStratified;
  EXPECT_EQ(make_explorer(options)->name(), "stratified");
  options.kind = DseStrategyOptions::Kind::kTwoStage;
  EXPECT_EQ(make_explorer(options, {4, 5})->name(), "two-stage");
}

TEST_F(DseExplorer, FingerprintsSeparateStrategiesAndBudgets) {
  // The artifact cache must never serve one strategy's profile to
  // another — or to the same strategy with a different budget.
  const FullFactorialExplorer full;
  const RandomSubsetExplorer sub_a(0.25);
  const RandomSubsetExplorer sub_b(0.5);
  const StratifiedExplorer strat(6);
  TwoStageExplorer::Params pa;
  TwoStageExplorer::Params pb;
  pb.budget = 64;
  const TwoStageExplorer two_a(pa);
  const TwoStageExplorer two_b(pb);

  std::set<std::uint64_t> prints{fingerprint(full),   fingerprint(sub_a),
                                 fingerprint(sub_b),  fingerprint(strat),
                                 fingerprint(two_a),  fingerprint(two_b)};
  EXPECT_EQ(prints.size(), 6u);
  EXPECT_EQ(fingerprint(sub_a), fingerprint(RandomSubsetExplorer(0.25)));
}

TEST_F(DseExplorer, ProfilePointsKeepsTheRequestOrderAndTheSweepBits) {
  // The one per-point loop: survivors come back in the caller's order,
  // each measured exactly as the full sweep measures that flat index.
  const auto& kernel = kernels::find_benchmark("atax").model;
  const auto full = FullFactorialExplorer().explore(context(kernel));
  const std::vector<std::size_t> wanted = {300, 7, 511};
  const auto picked = profile_points(context(kernel), wanted);
  EXPECT_EQ(picked.flat, wanted);
  EXPECT_EQ(picked.evaluated, wanted.size());
  ASSERT_EQ(picked.points.size(), wanted.size());
  for (std::size_t k = 0; k < wanted.size(); ++k) {
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

TEST_F(DseExplorer, TwoStageRejectsBadParameters) {
  TwoStageExplorer::Params degenerate;
  degenerate.population = 1;
  EXPECT_THROW(TwoStageExplorer{degenerate}, ContractViolation);

  TwoStageExplorer::Params no_gens;
  no_gens.generations = 0;
  EXPECT_THROW(TwoStageExplorer{no_gens}, ContractViolation);

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
    std::set<std::tuple<std::size_t, std::size_t, int>> s;
    for (const auto& p : r.points)
      s.insert({p.config_index, p.configuration.threads,
                static_cast<int>(p.configuration.binding)});
    return s;
  };
  EXPECT_EQ(flat_set(a), flat_set(b)) << "same seed, same exploration";
  EXPECT_NE(flat_set(a), flat_set(c)) << "the seed must steer the noisy search";
}

TEST_F(DseExplorer, ChaosVoidsGenerationsButNeverCorruptsTheArchive) {
  // dse-explore=1 voids every GA generation: the search degrades to the
  // seeded population + polish, but each returned point is still
  // bit-identical to the clean run's measurement of the same point.
  const auto& kernel = kernels::find_benchmark("nussinov").model;
  TwoStageExplorer::Params params;
  params.seed_configs = {4};
  const TwoStageExplorer explorer(params);
  const auto clean = explorer.explore(context(kernel, 2, 7));

  ChaosSpec spec = ChaosSpec::parse("dse-explore=1:13");
  ASSERT_GT(spec.dse_explore, 0.99);
  ChaosEngine::global().install(spec);
  const auto chaotic = explorer.explore(context(kernel, 2, 7));
  ChaosEngine::global().disarm();

  EXPECT_GT(chaotic.generations, 0u) << "voided generations still count";
  EXPECT_LE(chaotic.points.size(), clean.points.size())
      << "a degraded search cannot discover more than the clean one";
  ASSERT_FALSE(chaotic.points.empty());
  for (const auto& p : chaotic.points) {
    const auto match =
        std::find_if(clean.points.begin(), clean.points.end(), [&](const auto& q) {
          return q.config_index == p.config_index &&
                 q.configuration.threads == p.configuration.threads &&
                 q.configuration.binding == p.configuration.binding;
        });
    if (match == clean.points.end()) continue;  // clean GA went elsewhere
    EXPECT_EQ(p.exec_time_mean_s, match->exec_time_mean_s);
    EXPECT_EQ(p.power_mean_w, match->power_mean_w);
  }
}

TEST_F(DseExplorer, StrategyOptionsDefaultsReproduceThePaper) {
  const DseStrategyOptions options;
  EXPECT_EQ(options.kind, DseStrategyOptions::Kind::kFull);
  EXPECT_EQ(options.max_representatives, 0u);
  EXPECT_EQ(make_explorer(options)->name(), "full");
}

// ---- representative pruning --------------------------------------------------------

ProfiledPoint point(double exec_s, double power_w, std::size_t config_index = 0,
                    std::size_t threads = 1) {
  ProfiledPoint p;
  p.config_index = config_index;
  p.configuration.threads = threads;
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

TEST_F(DseExplorer, ClonePairsDedupeInVersionIdOrder) {
  std::vector<ProfiledPoint> pts;
  pts.push_back(point(1.0, 10.0, 3, 4));
  pts.back().configuration.binding = platform::BindingPolicy::kSpread;
  pts.push_back(point(0.9, 12.0, 1, 8));
  pts.push_back(point(0.8, 14.0, 3, 16));
  pts.back().configuration.binding = platform::BindingPolicy::kSpread;
  pts.push_back(point(0.7, 16.0, 1, 2));

  const auto pairs = clone_pairs(pts, {0, 1, 2, 3});
  ASSERT_EQ(pairs.size(), 2u) << "(cfg 3, spread) and (cfg 1, close) each appear once";
  EXPECT_EQ(pairs[0].config_index, 1u);
  EXPECT_EQ(pairs[0].binding, platform::BindingPolicy::kClose);
  EXPECT_EQ(pairs[1].config_index, 3u);
  EXPECT_EQ(pairs[1].binding, platform::BindingPolicy::kSpread);

  EXPECT_THROW(clone_pairs(pts, {4}), ContractViolation);
}

}  // namespace
}  // namespace socrates::dse
