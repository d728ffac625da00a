// Ablation: pluggable DSE strategies (Section III: "our approach is
// agnostic with respect to the used DSE strategy").
//
// The model-guided two-stage search (seed -> polish) against the
// paper's 512-point full factorial profiled through the pipeline, three
// questions per Polybench kernel:
//
//   1. Budget: how many design points does the two-stage search evaluate?
//   2. Front quality: the 2D hypervolume (throughput up, power down) at
//      a shared reference point.  Raw ratio = explored front vs the
//      512-point measured front (informational: a subset's front is
//      never larger).  The gated metric compares what each strategy
//      DEPLOYS — the front pruned to the same K representatives both
//      paths share — at the points' TRUE (noise-free) model metrics.
//      Judging on measured values would reward winner's-curse overfit:
//      the full factorial's measured extremes are the luckiest of 512
//      noisy draws, an advantage that evaporates on redeployment.  On
//      true quality the cheap search must lose nothing (ratio >= 1.0).
//   3. Decision quality: AS-RTM regret of the Figure 4 budget sweep
//      (min exec time s.t. power <= 45..140 W) against full-factorial
//      knowledge, and the clone set after representative pruning.
//
// Everything is seeded and model-driven, so every number below is
// machine-stable; the run emits BENCH_dse.json and the committed
// baseline (bench/baselines/dse.json) gates the two-stage explorer:
// >= 10x fewer evaluations than full factorial, pruned hypervolume
// ratio >= 1.0, and a pruned clone set strictly below the 16-clone
// cross product.  It also records what one profiled point costs in the
// artifact cache (`profile_bytes_per_point`: the growth of
// dse::save_profile per point), which the baseline caps at the 36-byte
// binary record.  `--quick` runs a two-kernel subset (the
// dse-bench-smoke CTest entry).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/representative.hpp"
#include "dse/two_stage.hpp"
#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "socrates/pipeline.hpp"
#include "support/bench_json.hpp"
#include "support/statistics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace socrates;
using M = margot::ContextMetrics;

/// True (model-evaluated, noise-free) exec time of the configuration an
/// AS-RTM on `kb` picks for each power budget of the Figure 4 sweep.
std::vector<double> sweep_choices(const platform::PerformanceModel& model,
                                  const platform::KernelModelParams& kernel,
                                  const platform::DesignSpace& space,
                                  margot::KnowledgeBase kb) {
  margot::Asrtm asrtm(std::move(kb));
  asrtm.set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  const auto handle = asrtm.add_constraint(
      {M::kPower, margot::ComparisonOp::kLessEqual, 0.0, 0, 0.0});

  std::vector<double> times;
  for (double budget = 45.0; budget <= 140.0 + 1e-9; budget += 5.0) {
    asrtm.set_constraint_goal(handle, budget);
    const auto& op = asrtm.best_operating_point();
    const auto config = space.configuration(space.decode(op.knobs));
    times.push_back(model.evaluate(kernel, config).exec_time_s);
  }
  return times;
}

double regret_vs(const std::vector<double>& t_full, const std::vector<double>& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) acc += t[i] / t_full[i];
  return acc / static_cast<double>(t.size()) - 1.0;
}

struct StrategyStats {
  std::size_t evaluated_max = 0;
  double hv_ratio_min = 2.0;
  double regret_max = -1.0;

  void fold(std::size_t evaluated, double hv_ratio, double regret) {
    evaluated_max = std::max(evaluated_max, evaluated);
    hv_ratio_min = std::min(hv_ratio_min, hv_ratio);
    regret_max = std::max(regret_max, regret);
  }
};

/// The points behind `indices`, e.g. a representative set.
std::vector<dse::ProfiledPoint> subset_of(const std::vector<dse::ProfiledPoint>& points,
                                          const std::vector<std::size_t>& indices) {
  std::vector<dse::ProfiledPoint> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(points[i]);
  return out;
}

/// The same points re-evaluated at their true (noise-free) model
/// metrics — the deployment quality the selection actually delivers,
/// free of the measurement noise it was selected under.
std::vector<dse::ProfiledPoint> true_values(const platform::PerformanceModel& model,
                                            const platform::KernelModelParams& kernel,
                                            const platform::DesignSpace& space,
                                            std::vector<dse::ProfiledPoint> points) {
  for (auto& p : points) {
    const auto m = model.evaluate(kernel, space.configuration(space.point(p.flat)));
    p.exec_time_mean_s = m.exec_time_s;
    p.power_mean_w = m.avg_power_w;
    p.exec_time_stddev_s = p.power_stddev_w = 0.0;
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  std::printf("== Ablation: pluggable DSE strategies vs the full factorial ==\n");
  std::printf("(budget, Pareto hypervolume and AS-RTM regret per Explorer%s)\n\n",
              quick ? "; --quick subset" : "");

  const auto model = platform::PerformanceModel::paper_platform();
  const auto space = platform::DesignSpace::paper_space(model.topology());
  Pipeline pipeline(model);
  TaskPool& pool = pipeline.pool();

  const std::size_t kRepetitions = 3;
  const std::uint64_t kSeed = 2018;
  const std::size_t kPrune = 8;  ///< representative cap for the clone-set column

  // The CF configs of the paper space seed the model-guided search the
  // same way the pipeline seeds it with the COBAYN predictions.
  dse::TwoStageExplorer::Params two_params;
  for (std::size_t ci = platform::standard_levels().size(); ci < space.configs.size();
       ++ci)
    two_params.seed_configs.push_back(ci);
  const dse::TwoStageExplorer two_stage(two_params);

  const std::vector<const char*> all = {"2mm",      "atax",   "jacobi-2d",
                                        "nussinov", "gemver", "syrk"};
  const std::vector<const char*> benchmarks(all.begin(),
                                            quick ? all.begin() + 2 : all.end());

  TextTable table({"Benchmark", "pts full/2stage", "hv 2stage", "hv pruned",
                   "hv true", "regret 2stage", "clones"});
  StrategyStats two_stats;
  double pruned_ratio_min = 2.0, true_ratio_min = 2.0, profile_bytes_per_point = 0.0;
  std::size_t clone_set_max = 0, representatives_max = 0;
  std::vector<double> two_regrets;

  JsonWriter json;
  json.begin_object();
  json.kv("space", static_cast<std::uint64_t>(space.size()));
  json.kv("repetitions", static_cast<std::uint64_t>(kRepetitions));
  json.kv("prune_cap", static_cast<std::uint64_t>(kPrune));
  json.kv("benchmarks", static_cast<std::uint64_t>(benchmarks.size()));
  json.key("per_benchmark");
  json.begin_array();

  for (const char* name : benchmarks) {
    const auto& kernel = kernels::find_benchmark(name).model;

    // Full factorial through the pipeline (cached artifact); the
    // explorers share its task pool and per-point noise streams.
    const auto full = pipeline.profile_space(name, space, kRepetitions, kSeed);
    profile_bytes_per_point = std::max(
        profile_bytes_per_point,
        static_cast<double>(dse::save_profile(full).size() - dse::save_profile({}).size()) /
            static_cast<double>(full.size()));
    dse::ExploreContext ctx{model, kernel, space, kRepetitions, kSeed, 1.0, &pool, 1};
    const auto two = two_stage.explore(ctx);

    // Shared hypervolume reference: slightly worse than the worst
    // measured power, so every front point contributes area.
    double ref_power = 0.0;
    for (const auto& p : full) ref_power = std::max(ref_power, p.power_mean_w);
    ref_power *= 1.05;
    const double hv_full = dse::pareto_hypervolume(full, ref_power);
    const double hv_two = dse::pareto_hypervolume(two.points, ref_power) / hv_full;

    // The gated front comparison: both strategies pruned to the same
    // K representatives — the clone set each would actually deploy.
    const auto reps = dse::select_representatives(two.points, kPrune);
    const auto full_reps = dse::select_representatives(full, kPrune);
    const double pruned_ratio =
        dse::pareto_hypervolume(subset_of(two.points, reps.representatives),
                                ref_power) /
        dse::pareto_hypervolume(subset_of(full, full_reps.representatives), ref_power);
    const double true_ratio =
        dse::pareto_hypervolume(
            true_values(model, kernel, space, subset_of(two.points, reps.representatives)),
            ref_power) /
        dse::pareto_hypervolume(
            true_values(model, kernel, space, subset_of(full, full_reps.representatives)),
            ref_power);

    // Decision regret of the (pruned) two-stage knowledge base.
    std::vector<platform::DesignSpace::Point> kept;
    for (const std::size_t i : reps.representatives)
      kept.push_back(space.point(two.points[i].flat));
    const auto clones = space.clones(kept);
    const auto t_full =
        sweep_choices(model, kernel, space, dse::to_knowledge_base(space, full));
    const double regret_two = regret_vs(
        t_full,
        sweep_choices(model, kernel, space,
                      dse::to_knowledge_base(space, two.points, reps.representatives)));

    two_stats.fold(two.evaluated, hv_two, regret_two);
    pruned_ratio_min = std::min(pruned_ratio_min, pruned_ratio);
    true_ratio_min = std::min(true_ratio_min, true_ratio);
    clone_set_max = std::max(clone_set_max, clones.size());
    representatives_max = std::max(representatives_max, reps.representatives.size());
    two_regrets.push_back(regret_two);

    json.begin_object();
    json.kv("name", name);
    json.kv("two_stage_evaluated", static_cast<std::uint64_t>(two.evaluated));
    json.kv("two_stage_hv_ratio", hv_two);
    json.kv("two_stage_pruned_hv_ratio", pruned_ratio);
    json.kv("two_stage_true_hv_ratio", true_ratio);
    json.kv("two_stage_regret", regret_two);
    json.kv("clone_set", static_cast<std::uint64_t>(clones.size()));
    json.end_object();

    table.add_row({name,
                   std::to_string(full.size()) + "/" + std::to_string(two.evaluated),
                   format_double(hv_two, 4), format_double(pruned_ratio, 4),
                   format_double(true_ratio, 4),
                   format_double(100.0 * regret_two, 1) + "%",
                   std::to_string(clones.size()) + "/16"});
  }
  json.end_array();
  json.kv("profile_bytes_per_point", profile_bytes_per_point);

  const double reduction_min = static_cast<double>(space.size()) /
                               static_cast<double>(two_stats.evaluated_max);
  json.key("two_stage");
  json.begin_object();
  json.kv("evaluated_max", static_cast<std::uint64_t>(two_stats.evaluated_max));
  json.kv("reduction_min", reduction_min);
  json.kv("hv_ratio_min", two_stats.hv_ratio_min);
  json.kv("pruned_hv_ratio_min", pruned_ratio_min);
  json.kv("true_hv_ratio_min", true_ratio_min);
  json.kv("regret_max", two_stats.regret_max);
  json.kv("clone_set_max", static_cast<std::uint64_t>(clone_set_max));
  json.kv("representatives_max", static_cast<std::uint64_t>(representatives_max));
  json.kv("full_clone_set", 16);
  json.end_object();
  json.end_object();
  write_bench_json("dse", json.str());

  std::fputs(table.str().c_str(), stdout);
  std::printf("\nTwo-stage: <= %zu of %zu points (%.1fx fewer); pruned deployment"
              " hypervolume >= %.4fx\nthe full-factorial deployment's at true metrics"
              " (measured: >= %.4fx, raw front: >= %.4fx);\nmean pruned regret"
              " %+.1f%%, clone set <= %zu of 16.\n",
              two_stats.evaluated_max, space.size(), reduction_min, true_ratio_min,
              pruned_ratio_min, two_stats.hv_ratio_min, 100.0 * mean_of(two_regrets),
              clone_set_max);

  bool ok = true;
  if (reduction_min < 10.0) {
    std::printf("FAIL: two-stage evaluated %zu points — less than 10x below the "
                "full factorial\n", two_stats.evaluated_max);
    ok = false;
  }
  if (true_ratio_min < 1.0) {
    std::printf("FAIL: true-metric hypervolume ratio %.6f < 1.0 — with both fronts "
                "pruned to %zu representatives, the two-stage deployment is worse "
                "than the full-factorial one\n", true_ratio_min, kPrune);
    ok = false;
  }
  if (clone_set_max >= 16) {
    std::printf("FAIL: pruned clone set (%zu) did not shrink below the full cross "
                "product\n", clone_set_max);
    ok = false;
  }
  if (ok)
    std::printf("PASS: two-stage exploration matches the full-factorial front at "
                ">= 10x fewer evaluations\n");
  return ok ? 0 : 1;
}
