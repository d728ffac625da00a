// Tests for the DSE engine: full factorial sweep, Pareto filtering
// (property-based), knowledge-base export and knob decoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dse/dse.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

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

std::vector<ProfiledPoint> profile(const char* bench, std::size_t reps = 3) {
  return FullFactorialExplorer()
      .explore({model(), kernels::find_benchmark(bench).model, space(), reps, 1234})
      .points;
}

TEST(Dse, CoversTheWholeSpaceOnce) {
  const auto points = profile("2mm");
  EXPECT_EQ(points.size(), 512u);
  std::set<std::size_t> seen;
  for (const auto& p : points) {
    seen.insert(p.flat);
    EXPECT_GT(p.exec_time_mean_s, 0.0);
    EXPECT_GT(p.power_mean_w, 0.0);
    EXPECT_GE(p.exec_time_stddev_s, 0.0);
  }
  EXPECT_EQ(seen.size(), 512u);
}

TEST(Dse, RepetitionsTightenStddev) {
  const auto points = profile("mvt", 8);
  for (const auto& p : points)
    EXPECT_LT(p.exec_time_stddev_s, p.exec_time_mean_s * 0.2);
}

TEST(Dse, DeterministicForSeed) {
  const auto a = profile("syrk");
  const auto b = profile("syrk");
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].exec_time_mean_s, b[i].exec_time_mean_s);
}

// ---- Pareto properties ----------------------------------------------------------

TEST(Pareto, NoSurvivorIsDominated) {
  const auto points = profile("2mm");
  const auto front = pareto_filter(points);
  ASSERT_FALSE(front.empty());
  for (const std::size_t i : front) {
    for (const std::size_t j : front) {
      if (i == j) continue;
      const bool dominates = points[j].throughput() >= points[i].throughput() &&
                             points[j].power_mean_w <= points[i].power_mean_w &&
                             (points[j].throughput() > points[i].throughput() ||
                              points[j].power_mean_w < points[i].power_mean_w);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Pareto, EveryDominatedPointIsExcluded) {
  const auto points = profile("atax");
  const auto front = pareto_filter(points);
  const std::set<std::size_t> in_front(front.begin(), front.end());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (in_front.count(i) > 0) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) continue;
      dominated = points[j].throughput() >= points[i].throughput() &&
                  points[j].power_mean_w <= points[i].power_mean_w &&
                  (points[j].throughput() > points[i].throughput() ||
                   points[j].power_mean_w < points[i].power_mean_w);
    }
    EXPECT_TRUE(dominated) << "point " << i << " excluded but not dominated";
  }
}

TEST(Pareto, ExtremePointsSurvive) {
  const auto points = profile("jacobi-2d");
  const auto front = pareto_filter(points);
  std::size_t best_thr = 0;
  std::size_t best_pow = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].throughput() > points[best_thr].throughput()) best_thr = i;
    if (points[i].power_mean_w < points[best_pow].power_mean_w) best_pow = i;
  }
  const std::set<std::size_t> in_front(front.begin(), front.end());
  EXPECT_TRUE(in_front.count(best_thr) > 0);
  EXPECT_TRUE(in_front.count(best_pow) > 0);
}

TEST(Pareto, SyntheticRandomSetProperty) {
  // Property sweep on random synthetic point clouds.
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    std::vector<ProfiledPoint> points(60);
    for (auto& p : points) {
      p.exec_time_mean_s = rng.uniform(0.1, 10.0);
      p.power_mean_w = rng.uniform(40.0, 150.0);
    }
    const auto front = pareto_filter(points);
    ASSERT_FALSE(front.empty());
    // Front sorted by power must have strictly increasing throughput.
    std::vector<std::size_t> sorted(front.begin(), front.end());
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return points[a].power_mean_w < points[b].power_mean_w;
    });
    for (std::size_t k = 1; k < sorted.size(); ++k)
      EXPECT_GT(points[sorted[k]].throughput(), points[sorted[k - 1]].throughput());
  }
}

TEST(Pareto, WideSpreadConfirmsNoOneFitsAll) {
  // The premise of Figure 3: the Pareto front spans a wide power range
  // for scalable benchmarks.  Amdahl-limited seidel-2d legitimately has
  // a narrow front (its box in the paper's Figure 3 is narrow too), so
  // the per-benchmark floor is modest and the scalable kernels must
  // show a genuinely wide spread.
  double widest = 0.0;
  for (const auto& b : kernels::all_benchmarks()) {
    const auto points =
        FullFactorialExplorer().explore({model(), b.model, space(), 2, 7}).points;
    const auto front = pareto_filter(points);
    ASSERT_GT(front.size(), 3u) << b.name;
    double pmin = 1e100, pmax = 0.0;
    for (const std::size_t i : front) {
      pmin = std::min(pmin, points[i].power_mean_w);
      pmax = std::max(pmax, points[i].power_mean_w);
    }
    EXPECT_GT(pmax / pmin, 1.05) << b.name;
    widest = std::max(widest, pmax / pmin);
  }
  EXPECT_GT(widest, 2.0);
}

TEST(Pareto, ExactDuplicatesAllSurvive) {
  // Regression for the sort-based filter: points identical on both axes
  // do not dominate each other, so every copy must survive — and with
  // its original index.
  const auto make = [](double exec_s, double power_w) {
    ProfiledPoint p;
    p.exec_time_mean_s = exec_s;
    p.power_mean_w = power_w;
    return p;
  };
  const std::vector<ProfiledPoint> points = {
      make(1.0, 80.0),   // 0: optimal, duplicated at 3 and 5
      make(2.0, 100.0),  // 1: dominated
      make(0.5, 120.0),  // 2: faster but hungrier -> survives
      make(1.0, 80.0),   // 3: duplicate of 0
      make(1.0, 90.0),   // 4: dominated by 0/3/5 (same thr, more power)
      make(1.0, 80.0),   // 5: duplicate of 0
  };
  const auto front = pareto_filter(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 2, 3, 5}));
}

TEST(Pareto, TiesOnASingleAxisAreResolvedStrictly) {
  const auto make = [](double exec_s, double power_w) {
    ProfiledPoint p;
    p.exec_time_mean_s = exec_s;
    p.power_mean_w = power_w;
    return p;
  };
  // Equal power, different throughput: only the fastest survives.
  {
    const std::vector<ProfiledPoint> points = {make(2.0, 90.0), make(1.0, 90.0),
                                               make(3.0, 90.0)};
    EXPECT_EQ(pareto_filter(points), (std::vector<std::size_t>{1}));
  }
  // Equal throughput, different power: only the cheapest survives.
  {
    const std::vector<ProfiledPoint> points = {make(1.0, 110.0), make(1.0, 70.0),
                                               make(1.0, 90.0)};
    EXPECT_EQ(pareto_filter(points), (std::vector<std::size_t>{1}));
  }
}

TEST(Pareto, MatchesBruteForceOnTieHeavyClouds) {
  // Random clouds drawn from a tiny grid of values, so exact ties and
  // duplicates are everywhere; the O(n log n) sweep must agree with the
  // O(n^2) dominance definition point by point.
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    std::vector<ProfiledPoint> points(40);
    for (auto& p : points) {
      p.exec_time_mean_s = 0.5 + 0.5 * static_cast<double>(rng.uniform_int(0, 3));
      p.power_mean_w = 60.0 + 20.0 * static_cast<double>(rng.uniform_int(0, 3));
    }
    const auto front = pareto_filter(points);
    // Indices must come back ascending and unique.
    EXPECT_TRUE(std::is_sorted(front.begin(), front.end()));
    EXPECT_EQ(std::set<std::size_t>(front.begin(), front.end()).size(), front.size());

    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < points.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
        if (i == j) continue;
        dominated = points[j].throughput() >= points[i].throughput() &&
                    points[j].power_mean_w <= points[i].power_mean_w &&
                    (points[j].throughput() > points[i].throughput() ||
                     points[j].power_mean_w < points[i].power_mean_w);
      }
      if (!dominated) expected.push_back(i);
    }
    EXPECT_EQ(front, expected) << "round " << round;
  }
}

// ---- knowledge base export ---------------------------------------------------------

TEST(KbExport, SchemaAndSize) {
  const auto points = profile("gemver");
  const auto kb = to_knowledge_base(space(), points);
  EXPECT_EQ(kb.size(), points.size());
  EXPECT_EQ(kb.metric_names(),
            (std::vector<std::string>{"exec_time_s", "power_w", "throughput"}));
  EXPECT_EQ(kb.knob_names(), (std::vector<std::string>{"config", "threads", "binding"}));
}

TEST(KbExport, MetricsMatchProfiledPoints) {
  const auto points = profile("mvt");
  const auto kb = to_knowledge_base(space(), points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(kb[i].metrics[0].mean, points[i].exec_time_mean_s);
    EXPECT_DOUBLE_EQ(kb[i].metrics[1].mean, points[i].power_mean_w);
    EXPECT_DOUBLE_EQ(kb[i].metrics[2].mean, points[i].throughput());
  }
}

TEST(KbExport, DecodeKnobsRoundTrips) {
  const auto points = profile("2mm");
  const auto kb = to_knowledge_base(space(), points);
  for (std::size_t i = 0; i < kb.size(); i += 37)
    EXPECT_EQ(space().flat(space().decode(kb[i].knobs)), points[i].flat);
}

TEST(KbExport, DecodeRejectsMalformedKnobs) {
  EXPECT_THROW(space().decode({0, 1}), ContractViolation);
  EXPECT_THROW(space().decode({99, 1, 0}), ContractViolation);
  EXPECT_THROW(space().decode({0, 0, 0}), ContractViolation);
  EXPECT_THROW(space().decode({0, 1, 5}), ContractViolation);
}

TEST(KbExport, RejectsAPointOutsideTheSpace) {
  auto points = profile("atax", 1);
  points[3].flat = space().size();
  EXPECT_THROW(to_knowledge_base(space(), points), ContractViolation);
}

}  // namespace
}  // namespace socrates::dse
