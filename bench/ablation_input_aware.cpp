// Ablation: input-aware knowledge (mARGOt data features).
//
// A bandwidth-bound kernel (gemver) serves a mix of input scales.  Two
// runtimes handle the same mix under a max-throughput policy:
//   multi-KB : three knowledge clusters profiled at scales .01/.2/1.0,
//              nearest-cluster selection per input;
//   single-KB: one knowledge base profiled at full scale only.
// For each input the chosen configuration is re-evaluated on the
// noise-free model at the *actual* scale; regret is the time ratio vs
// the per-scale oracle configuration (best of the whole space at that
// scale).  The single profile is near-optimal at 1.0 but pays on small
// cache-resident inputs, where its bandwidth-shy configurations are too
// conservative.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "kernels/registry.hpp"
#include "margot/context.hpp"
#include "socrates/input_aware_app.hpp"
#include "socrates/pipeline.hpp"
#include "support/statistics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace socrates;
using M = margot::ContextMetrics;

/// Best exec time over the whole space at `scale` (noise-free oracle).
double oracle_time(const platform::PerformanceModel& model,
                   const platform::KernelModelParams& kernel,
                   const platform::DesignSpace& space, double scale) {
  double best = 1e100;
  for (std::size_t flat = 0; flat < space.size(); ++flat)
    best = std::min(best, model
                              .evaluate(kernel, space.configuration(space.point(flat)),
                                        nullptr, scale)
                              .exec_time_s);
  return best;
}

/// Exec time at `scale` of the configuration an AS-RTM on `kb` picks.
double chosen_time(const platform::PerformanceModel& model,
                   const platform::KernelModelParams& kernel,
                   const platform::DesignSpace& space, const margot::KnowledgeBase& kb,
                   double scale) {
  margot::Asrtm asrtm(kb);
  asrtm.set_rank(margot::Rank::maximize_throughput(M::kThroughput));
  const auto& op = asrtm.best_operating_point();
  const auto config = space.configuration(space.decode(op.knobs));
  return model.evaluate(kernel, config, nullptr, scale).exec_time_s;
}

}  // namespace

int main() {
  std::printf("== Ablation: input-aware knowledge vs a single full-size profile ==\n");
  std::printf("(gemver, max-throughput policy; regret vs the per-scale oracle)\n\n");

  const auto model = platform::PerformanceModel::paper_platform();
  const auto& kernel = kernels::find_benchmark("gemver").model;

  ToolchainOptions opts;
  opts.use_paper_cfs = true;
  opts.dse_repetitions = 3;
  Pipeline pipeline(model, opts);

  const auto multi = build_input_aware(pipeline, "gemver", {0.01, 0.2, 1.0});
  const auto single = pipeline.build("gemver", /*work_scale=*/1.0);

  TextTable table({"input scale", "cluster", "multi-KB regret", "single-KB regret"});
  std::vector<double> multi_regret;
  std::vector<double> single_regret;
  for (const double scale : {0.01, 0.03, 0.1, 0.3, 0.6, 1.0}) {
    const double oracle = oracle_time(model, kernel, multi.space, scale);
    const std::size_t cluster = multi.knowledge.select({scale});
    const double t_multi = chosen_time(model, kernel, multi.space,
                                       multi.knowledge.cluster(cluster).knowledge,
                                       scale);
    const double t_single =
        chosen_time(model, kernel, single.space, single.knowledge, scale);
    multi_regret.push_back(t_multi / oracle - 1.0);
    single_regret.push_back(t_single / oracle - 1.0);
    table.add_row({format_double(scale, 2), std::to_string(cluster),
                   format_double(100.0 * multi_regret.back(), 1) + "%",
                   format_double(100.0 * single_regret.back(), 1) + "%"});
  }
  table.add_separator();
  table.add_row({"mean", "-", format_double(100.0 * mean_of(multi_regret), 1) + "%",
                 format_double(100.0 * mean_of(single_regret), 1) + "%"});
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nPer-input knowledge keeps the decision near the oracle at every scale;\n"
      "the full-size-only profile mis-tunes the cache-resident inputs.\n");
  return 0;
}
