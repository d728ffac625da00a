// Toolchain tour: every stage of Figure 1, verbose, for one benchmark.
//
// Shows what each SOCRATES component produces on the way from original
// source to adaptive binary:
//   stage 1  GCC-Milepost  -> static feature vector of the kernel
//   stage 2  COBAYN        -> 4 predicted flag configurations (CF1-4)
//   stage 3  LARA/MANET    -> the woven adaptive source (excerpt)
//   stage 4  DSE           -> profiled operating points + Pareto front
//   stage 5  mARGOt        -> a first AS-RTM decision on the knowledge
//
// Usage: toolchain_tour [benchmark]   (default: correlation)
#include <cstdio>
#include <string>

#include "cobayn/cobayn.hpp"
#include "ir/printer.hpp"
#include "margot/context.hpp"
#include "kernels/registry.hpp"
#include "kernels/sources.hpp"
#include "socrates/pipeline.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace socrates;
  using M = margot::ContextMetrics;

  const std::string name = argc > 1 ? argv[1] : "correlation";
  const auto model = platform::PerformanceModel::paper_platform();

  ToolchainOptions opts;
  opts.corpus_size = 48;
  opts.dse_repetitions = 3;
  Pipeline pipeline(model, opts);

  std::printf("==== SOCRATES toolchain tour: %s ====\n\n", name.c_str());
  const auto binary = pipeline.build(name);

  // Stage 1: static features.
  std::printf("[1] GCC-Milepost static features of %s:\n",
              kernels::find_benchmark(name).kernel_function.c_str());
  const auto& fnames = features::FeatureVector::names();
  for (const std::size_t idx : cobayn::CobaynModel::model_feature_indices())
    std::printf("      %-22s = %.2f\n", fnames[idx].c_str(), binary.kernel_features[idx]);

  // Stage 2: COBAYN predictions.
  std::printf("\n[2] COBAYN predicted flag configurations (trained on %zu synthetic "
              "kernels):\n",
              opts.corpus_size);
  for (const auto& cf : binary.custom_configs)
    std::printf("      %s = -%s\n", cf.name.c_str(),
                replace_all(cf.config.pragma_options(), ",", " -f").c_str());

  // Stage 3: weaving.
  const auto& report = binary.woven.report;
  std::printf("\n[3] LARA weaving: Att=%zu Act=%zu, %zu -> %zu logical LOC "
              "(bloat %.2f)\n",
              report.attributes, report.actions, report.original_loc,
              report.weaved_loc, report.bloat());
  std::printf("    woven source excerpt (first 24 lines):\n");
  const std::string woven_text = ir::print(binary.woven.unit);
  std::size_t shown = 0;
  for (const auto& line : split(woven_text, '\n')) {
    std::printf("      | %s\n", line.c_str());
    if (++shown >= 24) break;
  }

  // Stage 4: DSE.
  const auto front = dse::pareto_filter(binary.profile);
  std::printf("\n[4] DSE: %zu operating points profiled, %zu Pareto-optimal\n",
              binary.profile.size(), front.size());

  // Stage 5: a decision.
  margot::Asrtm asrtm(binary.knowledge);
  asrtm.set_rank(margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  const auto& op = asrtm.best_operating_point();
  const auto point = binary.space.decode(op.knobs);
  const auto config = binary.space.configuration(point);
  std::printf("\n[5] AS-RTM (maximize Thr/W^2): %s, %zu threads, %s "
              "-> %.0f ms @ %.1f W\n",
              binary.space.configs[point.config].name.c_str(),
              config.threads, platform::to_string(config.binding),
              op.metrics[M::kExecTime].mean * 1e3, op.metrics[M::kPower].mean);

  // Under the hood: the staged pipeline that ran all of the above.
  std::printf("\nPipeline stages (%zu jobs):\n", pipeline.pool().jobs());
  for (const auto& stage : pipeline.last_report().stages)
    std::printf("      %-14s %8.3f ms%s\n", stage.name.c_str(),
                stage.seconds * 1e3, stage.cache_hit ? "  (cache hit)" : "");
  return 0;
}
