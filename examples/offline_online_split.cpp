// Scenario: the deployment split mARGOt is designed around.
//
// Offline (design time, e.g. on a staging machine): run the toolchain,
// profile the DSE, and persist the application knowledge to a file.
// Online (production): load the knowledge — no profiling, no COBAYN,
// just the AS-RTM — and start adapting immediately.  The example also
// measures the real 2mm kernel with the monitor stack to show the
// real-hardware profiling path (wall clock; Joules only when the host
// exposes RAPL).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "margot/kb_io.hpp"
#include "socrates/adaptive_app.hpp"
#include "socrates/real_profile.hpp"
#include "socrates/pipeline.hpp"

int main() {
  using namespace socrates;
  using M = margot::ContextMetrics;

  const auto model = platform::PerformanceModel::paper_platform();
  // One file per process, so concurrent runs never share it.
  const std::string kb_path =
      (std::filesystem::temp_directory_path() /
       ("socrates_2mm_knowledge." + std::to_string(::getpid()) + ".csv"))
          .string();

  // ---- offline: build + persist --------------------------------------
  {
    ToolchainOptions opts;
    opts.use_paper_cfs = true;
    opts.dse_repetitions = 5;
    Pipeline pipeline(model, opts);
    const auto binary = pipeline.build("2mm");
    std::ofstream out(kb_path);
    margot::save_knowledge(binary.knowledge, out);
    std::printf("offline: profiled %zu operating points -> %s\n",
                binary.knowledge.size(), kb_path.c_str());
  }

  // ---- online: load + adapt -------------------------------------------
  {
    std::ifstream in(kb_path);
    auto knowledge = margot::load_knowledge(in);
    std::filesystem::remove(kb_path);
    std::printf("online:  loaded %zu operating points, starting the AS-RTM\n",
                knowledge.size());

    // Rebuild the runtime around the loaded knowledge.  The offline
    // build ran on the paper's space (paper CFs), so the schema rebuilds
    // that space: no toolchain run, no profiling.
    AdaptiveBinary binary;
    binary.benchmark = "2mm";
    binary.space = platform::DesignSpace::paper_space(model.topology());
    binary.knowledge = std::move(knowledge);

    AdaptiveApplication app(std::move(binary), model);
    app.asrtm().set_rank(margot::Rank::minimize_energy(M::kExecTime, M::kPower));
    const auto s = app.run_iteration();
    std::printf("online:  min-energy pick: %s, %zu threads, %s -> %.0f ms @ %.1f W "
                "(%.1f J/run)\n",
                s.config_name.c_str(), s.threads, platform::to_string(s.binding),
                s.exec_time_s * 1e3, s.power_w, s.exec_time_s * s.power_w);
  }

  // ---- bonus: the real-hardware profiling path -------------------------
  const auto real = profile_real_kernel("2mm", 96, 5);
  std::printf("\nreal 2mm (n=96, %zu reps): %.2f ms +/- %.2f ms, checksum %.4f\n",
              real.repetitions, real.exec_time_mean_s * 1e3,
              real.exec_time_stddev_s * 1e3, real.checksum);
  if (real.energy_available) {
    std::printf("energy via %s: %.2f J (%.1f W avg)\n", real.energy_backend.c_str(),
                real.energy_mean_j, real.avg_power_w);
  } else {
    std::printf("energy: no RAPL on this host (backend '%s'), not fabricated\n",
                real.energy_backend.c_str());
  }
  return 0;
}
