// The adaptive application at runtime.
//
// Drives a woven, knowledge-equipped benchmark the way the generated
// binary of Figure 2c runs: every iteration performs
//     margot_update(...)        -> AS-RTM picks the operating point
//     margot_start_monitors()
//     kernel_wrapper(...)        -> the chosen clone executes
//     margot_stop_monitors()     -> EFP feedback flows back
// against the simulated machine (virtual clock + simulated RAPL).
// Application requirements can change while the app runs — Figure 5
// switches the rank from Throughput/Watt^2 to Throughput and back —
// and the recorded trace exposes the selected knobs over time.
//
// The machine under the application can also be *hostile*: a
// platform::FaultSchedule injects sensor faults into the clock/counter
// the monitors read and makes selected clones crash or return garbage.
// A crashing invocation is caught here — the monitors are cancelled,
// the crash lands in the trace and (when quarantine is enabled) in the
// AS-RTM's health bookkeeping.  harden() turns on every defense layer;
// see docs/ROBUSTNESS.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "margot/context.hpp"
#include "platform/executor.hpp"
#include "socrates/pipeline.hpp"

namespace socrates {

/// One kernel invocation in the trace.
struct TraceSample {
  double timestamp_s = 0.0;      ///< simulated time at iteration end
  double exec_time_s = 0.0;      ///< true kernel time (model ground truth)
  double power_w = 0.0;          ///< true average power (model ground truth)
  /// What the monitors *observed* through the (possibly faulty) sensor
  /// path; under hardening these are the corrected / best-estimate
  /// values, never negative or non-finite.
  double observed_time_s = 0.0;
  double observed_power_w = 0.0;
  double observed_energy_j = 0.0;
  std::string config_name;       ///< selected compiler configuration
  std::size_t threads = 0;       ///< selected OpenMP thread count
  platform::BindingPolicy binding = platform::BindingPolicy::kClose;
  bool configuration_changed = false;
  bool crashed = false;          ///< the clone died; no measurement recorded
  bool sample_rejected = false;  ///< a hardened monitor rejected its sample
};

class AdaptiveApplication {
 public:
  /// `binary` is moved in; `platform` must outlive the application.
  AdaptiveApplication(AdaptiveBinary binary, const platform::PerformanceModel& platform,
                      double work_scale = 1.0, std::uint64_t noise_seed = 7);

  /// The mARGOt context (to set goals, constraints and ranks).
  margot::Context& margot() { return context_; }
  margot::Asrtm& asrtm() { return context_.asrtm(); }

  /// Simulated time since the application started.
  double now_s() const { return executor_.clock().now_s(); }

  /// Runs one update/start/kernel/stop iteration; returns the sample.
  /// A clone crash is absorbed: the sample reports crashed=true.
  TraceSample run_iteration();

  /// Runs iterations until `now_s() >= until_s`; samples are appended
  /// to `trace`.
  void run_until(double until_s, std::vector<TraceSample>& trace);

  /// Installs external-load episodes on the underlying machine (see
  /// platform::DisturbanceSchedule).  The AS-RTM is not told — it must
  /// react through monitor feedback.
  void set_disturbances(platform::DisturbanceSchedule schedule) {
    executor_.set_disturbances(std::move(schedule));
  }

  /// Installs sensor / variant faults (platform::FaultSchedule).  Like
  /// disturbances, only their effects are visible to the runtime.
  void set_faults(platform::FaultSchedule schedule) {
    executor_.set_faults(std::move(schedule));
  }

  /// Enables every fault-tolerance layer (hardened monitors, outlier
  /// filter, quarantine, oscillation watchdog).
  void harden() { context_.set_robustness(margot::RobustnessOptions::hardened()); }

  /// Reconfigures the defenses individually.
  void set_robustness(const margot::RobustnessOptions& options) {
    context_.set_robustness(options);
  }

  const AdaptiveBinary& binary() const { return binary_; }

 private:
  AdaptiveBinary binary_;
  platform::KernelExecutor executor_;
  margot::Context context_;
  std::vector<int> knobs_;  ///< one slot per DesignSpace knob
};

}  // namespace socrates
