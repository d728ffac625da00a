// Quickstart: from a plain Polybench source to a runtime-tuned kernel
// in ~40 lines of user code.
//
//   1. run the real 2mm kernel (actual computation, wall clock);
//   2. let the SOCRATES toolchain build the adaptive binary for it
//      (features -> COBAYN -> weaving -> DSE -> knowledge);
//   3. ask the AS-RTM for the best configuration under a 90 W cap;
//   4. run a few adaptive iterations and watch the selection settle.
#include <chrono>
#include <cstdio>

#include "kernels/registry.hpp"
#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"

int main() {
  using namespace socrates;
  using M = margot::ContextMetrics;

  // --- 1. the kernel is real code ------------------------------------
  const auto& bench = kernels::find_benchmark("2mm");
  const auto t0 = std::chrono::steady_clock::now();
  const double checksum = bench.run(/*n=*/96);
  const auto wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("real 2mm run:      checksum=%.6f  wall=%.1f ms\n", checksum, wall * 1e3);

  // --- 2. build the adaptive binary -----------------------------------
  const auto model = platform::PerformanceModel::paper_platform();
  ToolchainOptions opts;
  opts.use_paper_cfs = true;  // skip COBAYN training for a fast start
  opts.dse_repetitions = 3;
  Pipeline pipeline(model, opts);
  auto binary = pipeline.build("2mm");
  std::printf("adaptive binary:   %zu operating points, %zu kernel versions, "
              "%zu weaved LOC\n",
              binary.knowledge.size(), binary.woven.kernels[0].versions.size(),
              binary.woven.report.weaved_loc);

  // --- 3. one AS-RTM decision ------------------------------------------
  margot::Asrtm asrtm(binary.knowledge);
  asrtm.set_rank(margot::Rank::minimize_exec_time(M::kExecTime));
  asrtm.add_constraint({M::kPower, margot::ComparisonOp::kLessEqual, 90.0, 0, 1.0});
  const auto& op = asrtm.best_operating_point();
  const auto point = binary.space.decode(op.knobs);
  const auto config = binary.space.configuration(point);
  std::printf("best under 90 W:   %s, %zu threads, %s  ->  %.0f ms @ %.1f W\n",
              binary.space.configs[point.config].name.c_str(),
              config.threads, platform::to_string(config.binding),
              op.metrics[M::kExecTime].mean * 1e3, op.metrics[M::kPower].mean);

  // --- 4. run adaptively (simulated platform) ----------------------------
  AdaptiveApplication app(std::move(binary), model);
  app.asrtm().set_rank(margot::Rank::maximize_throughput_per_watt2(M::kThroughput,
                                                                   M::kPower));
  std::printf("\nadaptive run (energy-efficient policy, simulated machine):\n");
  for (int i = 0; i < 5; ++i) {
    const auto s = app.run_iteration();
    std::printf("  iter %d: t=%6.0f ms  P=%6.1f W  [%s, %zu threads, %s]%s\n", i,
                s.exec_time_s * 1e3, s.power_w, s.config_name.c_str(), s.threads,
                platform::to_string(s.binding),
                s.configuration_changed ? "  <- reconfigured" : "");
  }
  return 0;
}
