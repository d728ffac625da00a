// socrates_weave: the source-to-source tool as a command line.
//
// Weaves a C file (or a bundled Polybench benchmark) with the
// Multiversioning + Autotuner strategies and prints the adaptive C
// source on stdout; the Table I metrics go to stderr so the output can
// be piped into a file or a compiler.
//
//   socrates_weave 2mm                 # bundled benchmark by name
//   socrates_weave path/to/app.c       # any C file in the subset
//   socrates_weave 2mm --metrics-only  # just the Att/Act/LOC row
//   socrates_weave app.c --autotune    # + run the whole toolchain and
//                                      #   print AS-RTM decisions
//
// The input must contain at least one function whose name starts with
// "kernel_" and a main() that calls it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "kernels/sources.hpp"
#include "margot/context.hpp"
#include "socrates/pipeline.hpp"
#include "weaver/report.hpp"

namespace {

bool is_bundled(const std::string& name) {
  for (const auto& b : socrates::kernels::benchmark_names())
    if (b == name) return true;
  for (const auto& b : socrates::kernels::extended_benchmark_names())
    if (b == name) return true;
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "socrates_weave: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace socrates;

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: socrates_weave <benchmark-name | file.c> [--metrics-only]\n"
                 "bundled benchmarks:");
    for (const auto& b : kernels::benchmark_names())
      std::fprintf(stderr, " %s", b.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  const std::string target = argv[1];
  const bool metrics_only = argc > 2 && std::strcmp(argv[2], "--metrics-only") == 0;
  const bool autotune = argc > 2 && std::strcmp(argv[2], "--autotune") == 0;

  const std::string source =
      is_bundled(target) ? kernels::benchmark_source(target) : read_file(target);

  try {
    const auto model = platform::PerformanceModel::paper_platform();
    const auto woven =
        weaver::weave_benchmark(target, ir::parse(source),
                                platform::DesignSpace::paper_space(model.topology()).clones());
    if (!metrics_only && !autotune) std::fputs(ir::print(woven.unit).c_str(), stdout);
    const auto& r = woven.report;
    std::fprintf(stderr,
                 "socrates_weave: %s  Att=%zu Act=%zu O-LOC=%zu W-LOC=%zu D-LOC=%zu "
                 "Bloat=%.2f  (%zu kernel(s), %zu versions each)\n",
                 target.c_str(), r.attributes, r.actions, r.original_loc, r.weaved_loc,
                 r.delta_loc(), r.bloat(), woven.kernels.size(),
                 woven.kernels.empty() ? 0 : woven.kernels.front().versions.size());
    if (autotune) {
      using M = margot::ContextMetrics;
      ToolchainOptions opts;
      opts.dse_repetitions = 3;
      Pipeline pipeline(model, opts);
      const auto binary = is_bundled(target)
                              ? pipeline.build(target)
                              : pipeline.build_from_source(target, source);

      std::printf("COBAYN-reduced compiler space:");
      for (const auto& c : binary.space.configs) std::printf(" %s", c.name.c_str());
      std::printf("\n%zu operating points profiled. AS-RTM decisions:\n",
                  binary.knowledge.size());

      const auto decide = [&](const char* label, const margot::Rank& rank) {
        margot::Asrtm asrtm(binary.knowledge);
        asrtm.set_rank(rank);
        const auto& op = asrtm.best_operating_point();
        const auto point = binary.space.decode(op.knobs);
        const auto config = binary.space.configuration(point);
        std::printf("  %-22s %s, %zu threads, %s -> %.0f ms @ %.1f W\n", label,
                    binary.space.configs[point.config].name.c_str(),
                    config.threads, platform::to_string(config.binding),
                    op.metrics[M::kExecTime].mean * 1e3, op.metrics[M::kPower].mean);
      };
      decide("min exec time:", margot::Rank::minimize_exec_time(M::kExecTime));
      decide("max Thr/W^2:",
             margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
      decide("min energy/run:", margot::Rank::minimize_energy(M::kExecTime, M::kPower));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "socrates_weave: %s\n", e.what());
    return 1;
  }
  return 0;
}
