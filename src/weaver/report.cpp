#include "weaver/report.hpp"

#include "ir/loc_counter.hpp"
#include "weaver/aspects.hpp"

namespace socrates::weaver {

WovenBenchmark weave_benchmark(const std::string& name, const ir::TranslationUnit& unit,
                               const std::vector<platform::CloneSpec>& clones) {
  WovenBenchmark out;
  out.unit = unit.clone();
  out.report.benchmark = name;
  out.report.original_loc = ir::logical_loc(out.unit);
  out.report.strategy_loc = strategy_logical_loc();

  WeavingMetrics metrics;
  Weaver weaver(out.unit, metrics);
  out.kernels = apply_multiversioning(weaver, clones);
  apply_autotuner(weaver, out.kernels);

  out.report.attributes = metrics.attributes_checked;
  out.report.actions = metrics.actions_performed;
  out.report.weaved_loc = ir::logical_loc(out.unit);
  return out;
}

}  // namespace socrates::weaver
