// Real-execution profiling.
//
// Everything else in the evaluation pipeline runs on the platform
// model, but the 12 kernels are real code (src/kernels), so the same
// monitor stack can measure them for real: wall time through a mARGOt
// TimeMonitor on the steady clock, and — when the host exposes RAPL —
// Joules through an EnergyMonitor on the sysfs counter.  On hosts
// without RAPL (like this build container) the energy fields report
// `energy_available == false` instead of fabricating numbers.
// This is the adoption path for running SOCRATES on real hardware:
// swap dse::profile_point's model evaluation for this profiler.
#pragma once

#include <cstddef>
#include <string>

namespace socrates {

struct RealMeasurement {
  std::string benchmark;
  std::size_t problem_size = 0;
  std::size_t repetitions = 0;
  double exec_time_mean_s = 0.0;
  double exec_time_stddev_s = 0.0;
  double exec_time_min_s = 0.0;
  double checksum = 0.0;          ///< output checksum (determinism witness)
  bool energy_available = false;  ///< true only with a real RAPL backend
  double energy_mean_j = 0.0;
  double avg_power_w = 0.0;
  std::string energy_backend;     ///< "rapl-sysfs" or "simulated"
};

/// Runs the real kernel `repetitions` times at `problem_size` (after
/// one untimed warm-up run) and reports wall-clock statistics.
/// Preconditions: a registered benchmark name, repetitions >= 1.
RealMeasurement profile_real_kernel(const std::string& benchmark,
                                    std::size_t problem_size,
                                    std::size_t repetitions);

}  // namespace socrates
