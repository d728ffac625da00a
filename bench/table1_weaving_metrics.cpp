// Reproduces Table I of the paper:
// "METRICS COLLECTED FROM THE APPLICATION OF LARA STRATEGIES".
//
// Every benchmark source is pushed through the Multiversioning and
// Autotuner strategies with the paper's version space (8 compiler
// configurations x {close, spread}); the weaver meters the attributes
// it checks (Att), the actions it performs (Act) and the logical LOC of
// the original (O-LOC) and weaved (W-LOC) code.  Bloat = D-LOC divided
// by the logical LOC of the complete LARA strategy.
//
// Absolute values differ from the paper (our embedded sources are the
// kernels without the full Polybench harness, and our LARA strategies
// are a reimplementation), but the relationships the paper highlights
// hold: W-LOC is roughly an order of magnitude above O-LOC, and Att/Act
// track each benchmark's kernel structure.  See EXPERIMENTS.md.
#include <cstdio>
#include <string>
#include <vector>

#include "ir/parser.hpp"
#include "kernels/sources.hpp"
#include "socrates/pipeline.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "weaver/aspects.hpp"
#include "weaver/report.hpp"

int main() {
  using namespace socrates;

  std::printf("== Table I: metrics collected from the application of LARA strategies ==\n");
  std::printf("(version space: Os,O1,O2,O3,CF1-CF4 x {close,spread} = 16 versions/kernel)\n\n");

  TextTable table({"Benchmark", "Att", "Act", "O-LOC", "W-LOC", "D-LOC", "Bloat"});

  double att = 0, act = 0, oloc = 0, wloc = 0, dloc = 0, bloat = 0;
  const auto& names = kernels::benchmark_names();

  // Weave every benchmark through the pipeline's Weave stage; the
  // benchmarks are independent, so they fan out over the task pool and
  // the table is assembled serially in registry order.
  const auto model = platform::PerformanceModel::paper_platform();
  Pipeline pipeline(model);
  const auto clones = platform::DesignSpace::paper_space(model.topology()).clones();
  std::vector<weaver::WovenBenchmark> woven(names.size());
  pipeline.pool().parallel_for(names.size(), [&](std::size_t i) {
    woven[i] = weaver::weave_benchmark(
        names[i], ir::parse(kernels::benchmark_source(names[i])), clones);
  });

  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& name = names[i];
    const auto& r = woven[i].report;
    table.add_row({name, std::to_string(r.attributes), std::to_string(r.actions),
                   std::to_string(r.original_loc), std::to_string(r.weaved_loc),
                   std::to_string(r.delta_loc()), format_double(r.bloat(), 2)});
    att += static_cast<double>(r.attributes);
    act += static_cast<double>(r.actions);
    oloc += static_cast<double>(r.original_loc);
    wloc += static_cast<double>(r.weaved_loc);
    dloc += static_cast<double>(r.delta_loc());
    bloat += r.bloat();
  }
  const double n = static_cast<double>(names.size());
  table.add_separator();
  table.add_row({"Average", format_double(att / n, 0), format_double(act / n, 0),
                 format_double(oloc / n, 0), format_double(wloc / n, 0),
                 format_double(dloc / n, 0), format_double(bloat / n, 2)});

  std::fputs(table.str().c_str(), stdout);
  std::printf("\nComplete LARA strategy: %zu logical lines of aspect code"
              " (paper: 265)\n",
              weaver::strategy_logical_loc());
  return 0;
}
