// Reproduces Figure 3 of the paper:
// "Power/Throughput distribution over the Pareto curve."
//
// For each of the 12 Polybench benchmarks a full-factorial DSE over the
// paper's autotuning space (8 compiler configs x 32 thread counts x 2
// binding policies = 512 points) is profiled on the platform model; the
// Pareto-optimal points (max throughput, min power) are kept, both
// metrics are normalized by their median over the front, and the
// boxplot statistics the figure draws are printed (whisker-low, Q1,
// median, Q3, whisker-high).  The paper's reading — the distributions
// are wide and differ per benchmark, so no one-fits-all configuration
// exists — should be visible directly in the rows.
//
// The campaign runs through the staged pipeline: the 12 x 512-point
// sweeps fan out over the task pool (SOCRATES_JOBS) and each profile is
// a cached artifact, so the second pass over the same benchmarks below
// is served from the cache instead of reprofiled.
#include <chrono>
#include <cstdio>
#include <vector>

#include "dse/dse.hpp"
#include "kernels/registry.hpp"
#include "socrates/pipeline.hpp"
#include "support/statistics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

std::vector<std::string> boxplot_row(const std::string& label,
                                     const socrates::BoxplotSummary& s) {
  using socrates::format_double;
  return {label,
          format_double(s.whisker_low, 2),
          format_double(s.q1, 2),
          format_double(s.median, 2),
          format_double(s.q3, 2),
          format_double(s.whisker_high, 2),
          std::to_string(s.n)};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace socrates;

  std::printf("== Figure 3: power/throughput distribution over the Pareto curve ==\n");
  std::printf("(normalized by the per-benchmark median of the Pareto-optimal points)\n\n");

  const auto model = platform::PerformanceModel::paper_platform();
  const auto space = platform::DesignSpace::paper_space(model.topology());
  Pipeline pipeline(model);

  TextTable table({"Benchmark / metric", "lo", "Q1", "median", "Q3", "hi", "n"});

  const auto cold_start = std::chrono::steady_clock::now();
  for (const auto& bench : kernels::all_benchmarks()) {
    const auto points =
        pipeline.profile_space(bench.name, space, /*repetitions=*/5, /*seed=*/2018);
    const auto front = dse::pareto_filter(points);

    std::vector<double> power;
    std::vector<double> throughput;
    power.reserve(front.size());
    throughput.reserve(front.size());
    for (const std::size_t i : front) {
      power.push_back(points[i].power_mean_w);
      throughput.push_back(points[i].throughput());
    }

    const auto norm_power = normalized_by(power, quantile(power, 0.5));
    const auto norm_thr = normalized_by(throughput, quantile(throughput, 0.5));
    table.add_row(boxplot_row(bench.name + " power", boxplot_summary(norm_power)));
    table.add_row(boxplot_row(bench.name + " thr", boxplot_summary(norm_thr)));
  }
  const double cold_s = seconds_since(cold_start);

  std::fputs(table.str().c_str(), stdout);

  // Who actually sits on the fronts: per benchmark, the mix of compiler
  // configurations among the Pareto-optimal points.  A one-fits-all
  // configuration would dominate every row; instead the mix shifts per
  // benchmark.  Same spaces, same seeds: every profile below is a warm
  // cache hit.
  std::printf("\nPareto-front composition (points per compiler configuration):\n");
  std::printf("%-12s", "benchmark");
  for (const auto& c : space.configs) std::printf(" %5s", c.name.c_str());
  std::printf("  close/spread\n");
  const auto warm_start = std::chrono::steady_clock::now();
  for (const auto& bench : kernels::all_benchmarks()) {
    const auto points = pipeline.profile_space(bench.name, space, 5, 2018);
    const auto front = dse::pareto_filter(points);
    std::vector<std::size_t> per_config(space.configs.size(), 0);
    std::size_t close = 0;
    for (const std::size_t i : front) {
      const auto point = space.point(points[i].flat);
      ++per_config[point.config];
      if (space.bindings[point.binding] == platform::BindingPolicy::kClose) ++close;
    }
    std::printf("%-12s", bench.name.c_str());
    for (const std::size_t n : per_config) std::printf(" %5zu", n);
    std::printf("  %zu/%zu\n", close, front.size() - close);
  }
  const double warm_s = seconds_since(warm_start);

  const auto stats = pipeline.cache().stats();
  std::printf(
      "\nCampaign: %zu jobs; cold profiling pass %.3f s, warm (cached) pass %.3f s\n"
      "Artifact cache: %zu memory hits, %zu disk hits, %zu misses, %zu stores\n",
      pipeline.pool().jobs(), cold_s, warm_s, stats.memory_hits, stats.disk_hits,
      stats.misses, stats.stores);

  std::printf(
      "\nWide, benchmark-dependent distributions confirm the paper's point:\n"
      "there is no one-fits-all configuration across the Pareto fronts.\n");
  return 0;
}
