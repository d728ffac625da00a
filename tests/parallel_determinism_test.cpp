// The determinism contract of docs/PIPELINE.md: every parallel stage
// produces output bit-identical to a serial run at any job count,
// because each task derives its randomness from (master seed, task
// index) and writes only to its own result slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "cobayn/cobayn.hpp"
#include "cobayn/evaluation.hpp"
#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "observability/trace.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/task_pool.hpp"

namespace socrates {
namespace {

const platform::PerformanceModel& model() {
  static const platform::PerformanceModel kModel =
      platform::PerformanceModel::paper_platform();
  return kModel;
}

/// The paper's full sweep of `space` on `pool`.
std::vector<dse::ProfiledPoint> full_sweep(const platform::KernelModelParams& kernel,
                                           const platform::DesignSpace& space,
                                           std::size_t repetitions, std::uint64_t seed,
                                           double work_scale, TaskPool& pool) {
  return dse::FullFactorialExplorer()
      .explore({model(), kernel, space, repetitions, seed, work_scale, &pool})
      .points;
}

// save_profile keeps every double's bits, so equal strings means
// bit-identical profiles.
std::string profile_bytes(const std::vector<dse::ProfiledPoint>& points) {
  return dse::save_profile(points);
}

TEST(ParallelDeterminism, DseProfileIsByteIdenticalAtAnyJobCount) {
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("2mm").model;

  TaskPool serial(1);
  const auto baseline = full_sweep(kernel, space, 3, 777, 1.0, serial);
  const std::string baseline_bytes = profile_bytes(baseline);

  for (const std::size_t jobs : {2u, 8u}) {
    TaskPool pool(jobs);
    const auto parallel = full_sweep(kernel, space, 3, 777, 1.0, pool);
    EXPECT_EQ(profile_bytes(parallel), baseline_bytes) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, TracingDoesNotPerturbResultsAndSpanCountsMatch) {
  // docs/OBSERVABILITY.md promises tracing never perturbs results: with
  // the global tracer enabled (DSE spans go there), the profile stays
  // byte-identical at any job count, and the *number* of spans per
  // category is identical too — only timings and lanes may differ.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("mvt").model;
  Tracer& tracer = Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);

  const auto run = [&](std::size_t jobs) {
    tracer.clear();
    TaskPool pool(jobs);
    const auto profile = full_sweep(kernel, space, 2, 777, 1.0, pool);
    std::size_t dse_spans = 0;
    std::size_t task_spans = 0;
    for (const auto& e : tracer.snapshot()) {
      if (std::string_view(e.category) == "dse") ++dse_spans;
      if (std::string_view(e.category) == "taskpool") ++task_spans;
    }
    return std::tuple(profile_bytes(profile), dse_spans, task_spans);
  };

  const auto [base_bytes, base_dse, base_tasks] = run(1);
  EXPECT_EQ(base_dse, space.size());  // one span per design point
  EXPECT_EQ(base_tasks, space.size());
  for (const std::size_t jobs : {2u, 8u}) {
    const auto [bytes, dse_spans, task_spans] = run(jobs);
    EXPECT_EQ(bytes, base_bytes) << "jobs=" << jobs;
    EXPECT_EQ(dse_spans, base_dse) << "jobs=" << jobs;
    EXPECT_EQ(task_spans, base_tasks) << "jobs=" << jobs;
  }

  tracer.clear();
  tracer.set_enabled(was_enabled);
}

TEST(ParallelDeterminism, TwoStageExplorerIsByteIdenticalAtAnyJobCount) {
  // The explorer draws from no RNG stream of its own and every
  // profiled point derives its noise from (seed, flat index), so the
  // whole search — candidate selection included — is reproducible at
  // any job count.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("2mm").model;
  dse::TwoStageExplorer::Params params;
  params.seed_configs = {4, 5, 6, 7};
  const dse::TwoStageExplorer explorer(params);

  TaskPool serial(1);
  dse::ExploreContext ctx{model(), kernel, space, 3, 777, 1.0, &serial, 1};
  const auto baseline = explorer.explore(ctx);
  const std::string baseline_bytes = profile_bytes(baseline.points);
  EXPECT_GT(baseline.points.size(), 0u);
  EXPECT_LE(baseline.evaluated, explorer.resolved_budget(space.size()));

  for (const std::size_t jobs : {2u, 8u}) {
    TaskPool pool(jobs);
    dse::ExploreContext pctx{model(), kernel, space, 3, 777, 1.0, &pool, 1};
    const auto parallel = explorer.explore(pctx);
    EXPECT_EQ(profile_bytes(parallel.points), baseline_bytes) << "jobs=" << jobs;
    EXPECT_EQ(parallel.evaluated, baseline.evaluated) << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, WarmSeededTwoStageIsByteIdenticalAtAnyJobCount) {
  // Warm-start seeds (the server's cross-tenant pool hands these over)
  // must preserve the determinism contract: same seeds + same arrival
  // order give the same profiled set at any job count, and the seeded
  // points are profiled first.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("2mm").model;
  dse::TwoStageExplorer::Params params;
  params.seed_configs = {4, 5};
  params.warm_flat_seeds = {17, 3, 91};
  const dse::TwoStageExplorer explorer(params);

  TaskPool serial(1);
  dse::ExploreContext ctx{model(), kernel, space, 3, 777, 1.0, &serial, 1};
  const auto baseline = explorer.explore(ctx);
  const std::string baseline_bytes = profile_bytes(baseline.points);
  ASSERT_GE(baseline.points.size(), 3u);
  // Every warm seed was actually profiled (the result list is ordered
  // by flat index, so membership — not position — is the contract),
  // and its measurements are bit-identical to a direct profile of the
  // same flat index.
  const auto direct = dse::profile_points(ctx, params.warm_flat_seeds);
  ASSERT_EQ(direct.points.size(), params.warm_flat_seeds.size());
  for (const auto& want : direct.points) {
    const bool present = std::any_of(
        baseline.points.begin(), baseline.points.end(), [&](const auto& p) {
          return p.flat == want.flat && p.exec_time_mean_s == want.exec_time_mean_s &&
                 p.power_mean_w == want.power_mean_w;
        });
    EXPECT_TRUE(present) << "warm seed missing: " << want.flat;
  }

  for (const std::size_t jobs : {2u, 8u}) {
    TaskPool pool(jobs);
    dse::ExploreContext pctx{model(), kernel, space, 3, 777, 1.0, &pool, 1};
    EXPECT_EQ(profile_bytes(explorer.explore(pctx).points), baseline_bytes)
        << "jobs=" << jobs;
  }

  // The seeds are part of the explorer identity (artifact-cache key).
  dse::TwoStageExplorer::Params other = params;
  other.warm_flat_seeds = {3, 17, 91};
  Hasher a;
  Hasher b;
  explorer.add_to_key(a);
  dse::TwoStageExplorer(other).add_to_key(b);
  EXPECT_NE(a.digest(), b.digest());

  // A seed outside the space is a caller bug, named.
  dse::TwoStageExplorer::Params bad = params;
  bad.warm_flat_seeds = {space.size()};
  EXPECT_THROW(dse::TwoStageExplorer(bad).explore(ctx), ContractViolation);
}

TEST(ParallelDeterminism, TwoStagePointsMatchTheFullSweepBitForBit) {
  // Any point the strategy profiles is the same point the full sweep
  // would have measured: noise comes from (seed, flat), not from the
  // exploration order.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("atax").model;
  TaskPool pool(4);
  const auto full = full_sweep(kernel, space, 2, 99, 1.0, pool);

  dse::TwoStageExplorer::Params params;
  params.seed_configs = {5};
  dse::ExploreContext ctx{model(), kernel, space, 2, 99, 1.0, &pool, 1};
  const auto explored = dse::TwoStageExplorer(params).explore(ctx);
  ASSERT_GT(explored.points.size(), 0u);
  for (const auto& p : explored.points) {
    const auto match = std::find_if(full.begin(), full.end(),
                                    [&](const auto& q) { return q.flat == p.flat; });
    ASSERT_NE(match, full.end());
    EXPECT_EQ(profile_bytes({p}), profile_bytes({*match}));
  }
}

TEST(ParallelDeterminism, DseWorkScaleAndSeedStillMatter) {
  // Determinism must not come from ignoring the inputs: different seed
  // or scale still changes the profile.
  const auto space = platform::DesignSpace::paper_space(model().topology());
  const auto& kernel = kernels::find_benchmark("atax").model;
  TaskPool pool(4);
  const auto a = full_sweep(kernel, space, 2, 1, 1.0, pool);
  const auto b = full_sweep(kernel, space, 2, 2, 1.0, pool);
  const auto c = full_sweep(kernel, space, 2, 1, 1.5, pool);
  EXPECT_NE(profile_bytes(a), profile_bytes(b));
  EXPECT_NE(profile_bytes(a), profile_bytes(c));
}

TEST(ParallelDeterminism, CobaynModelIsByteIdenticalAtAnyJobCount) {
  const auto corpus = cobayn::make_corpus(20, 2018);

  TaskPool serial(1);
  cobayn::TrainOptions serial_opts;
  serial_opts.pool = &serial;
  const auto base = cobayn::CobaynModel::train(corpus, model(), serial_opts);
  std::ostringstream base_out;
  base.save(base_out);

  TaskPool pool(8);
  cobayn::TrainOptions parallel_opts;
  parallel_opts.pool = &pool;
  const auto par = cobayn::CobaynModel::train(corpus, model(), parallel_opts);
  std::ostringstream par_out;
  par.save(par_out);

  EXPECT_EQ(par_out.str(), base_out.str());

  // And the models behave identically: same CF predictions with the
  // same posteriors for an unseen kernel.
  const auto fv =
      cobayn::kernel_features_of_source(kernels::benchmark_source("correlation"));
  const auto base_pred = base.predict(fv, 4);
  const auto par_pred = par.predict(fv, 4);
  ASSERT_EQ(base_pred.size(), par_pred.size());
  for (std::size_t i = 0; i < base_pred.size(); ++i) {
    EXPECT_EQ(par_pred[i].config.level(), base_pred[i].config.level());
    EXPECT_EQ(par_pred[i].config.flag_bits(), base_pred[i].config.flag_bits());
    EXPECT_EQ(par_pred[i].probability, base_pred[i].probability);
  }
}

TEST(ParallelDeterminism, CrossValidationSummaryIdenticalAtAnyJobCount) {
  const auto corpus = cobayn::make_corpus(12, 5);

  TaskPool serial(1);
  cobayn::TrainOptions serial_opts;
  serial_opts.pool = &serial;
  const auto base = cobayn::cross_validate(corpus, model(), 2, serial_opts);

  TaskPool pool(8);
  cobayn::TrainOptions parallel_opts;
  parallel_opts.pool = &pool;
  const auto par = cobayn::cross_validate(corpus, model(), 2, parallel_opts);

  EXPECT_EQ(par.geomean_predicted_slowdown, base.geomean_predicted_slowdown);
  EXPECT_EQ(par.geomean_o3_slowdown, base.geomean_o3_slowdown);
  EXPECT_EQ(par.wins_vs_o3, base.wins_vs_o3);
  ASSERT_EQ(par.folds.size(), base.folds.size());
  for (std::size_t i = 0; i < base.folds.size(); ++i) {
    EXPECT_EQ(par.folds[i].kernel_name, base.folds[i].kernel_name);
    EXPECT_EQ(par.folds[i].predicted_slowdown(), base.folds[i].predicted_slowdown());
  }
}

}  // namespace
}  // namespace socrates
