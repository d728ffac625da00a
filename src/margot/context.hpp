// The application-facing mARGOt interface.
//
// The paper stresses that mARGOt's intrusiveness "is limited to an
// initialization call in the application and to start/stop/update calls
// around the regions of interest".  This class is that generated
// interface: the weaver's Autotuner strategy inserts exactly the four
// calls below around the kernel wrapper (Figure 2c):
//
//   margot::init(...);                       // once, in main
//   if (ctx.update(cf, nt, bind)) { ... }    // before the region
//   ctx.start_monitors();
//   kernel_wrapper(...);
//   ctx.stop_monitors();                     // also pushes feedback
//
// update() runs the AS-RTM and writes the chosen knob values into the
// application's control variables; stop_monitors() feeds the observed
// EFPs back into the knowledge adaptation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "margot/asrtm.hpp"
#include "margot/monitor.hpp"
#include "margot/operating_point.hpp"
#include "platform/clock.hpp"
#include "platform/rapl.hpp"

namespace socrates::margot {

/// Columns of the metrics a Context-managed knowledge base must
/// provide: platform::DesignSpace::metric_names(), in that order.
struct ContextMetrics {
  static constexpr std::size_t kExecTime = 0;
  static constexpr std::size_t kPower = 1;
  static constexpr std::size_t kThroughput = 2;
};

/// Switchboard for the fault-tolerance layers (docs/ROBUSTNESS.md).
/// Monitor hardening is on by default — it never changes behaviour on a
/// healthy sensor path.  The statistical and decision-level defenses
/// alter adaptation dynamics slightly even on clean runs, so they are
/// opt-in; AdaptiveApplication::harden() enables everything.
struct RobustnessOptions {
  /// Wraparound correction + rejection of non-finite / non-positive
  /// monitor samples (margot/monitor.hpp).
  bool harden_monitors = true;
  /// Hampel-style outlier filter on every monitor window.
  bool outlier_filter = false;
  /// Quarantine + exponential-backoff re-probe of operating points
  /// whose clone crashes or produces runaway observations.
  bool variant_quarantine = false;
  /// Hold-down on configuration thrashing.
  bool oscillation_watchdog = false;

  /// An observed exec time beyond `runaway_factor` x the corrected
  /// expectation counts as a variant failure (garbage clone).
  double runaway_factor = 8.0;

  /// Energy-register range used for wraparound correction; override
  /// when the platform's counter wraps at a different width than the
  /// canonical 32-bit RAPL register.
  double wrap_range_uj = platform::kRaplWrapRangeUj;

  CircularMonitor::OutlierFilter hampel{};
  Asrtm::QuarantineOptions quarantine{};
  OscillationWatchdog::Options watchdog{};

  /// Everything on (the hardened stack of the fault-tolerance bench).
  static RobustnessOptions hardened();
  /// Everything off (the unprotected baseline).
  static RobustnessOptions raw();
};

class Context {
 public:
  /// `knowledge` must carry DesignSpace::metric_names() (ContextMetrics).
  Context(KnowledgeBase knowledge, const platform::Clock& clock,
          const platform::EnergyCounter& energy, std::size_t monitor_window = 5);

  Asrtm& asrtm() { return asrtm_; }
  const Asrtm& asrtm() const { return asrtm_; }

  /// Runs the AS-RTM; writes the selected knob values to `knobs`
  /// (which must have one entry per knob).  Returns true when the
  /// configuration changed since the previous call.
  bool update(std::vector<int>& knobs);

  void start_monitors();
  /// Stops the monitors and pushes exec-time / power / throughput
  /// feedback for the configuration chosen by the last update().
  /// Samples a hardened monitor rejected are not fed back, and with
  /// variant quarantine enabled a runaway exec time is reported as a
  /// variant failure instead of poisoning the corrections.
  void stop_monitors();
  /// Abandons an open monitoring region without recording anything —
  /// the kernel invocation crashed before completing.
  void cancel_monitors();

  /// Reconfigures the fault-tolerance layers (see RobustnessOptions).
  void set_robustness(const RobustnessOptions& options);
  const RobustnessOptions& robustness() const { return robustness_; }

  /// Tells the quarantine bookkeeping that the clone behind the current
  /// operating point crashed.
  void report_variant_crash();

  const OscillationWatchdog& watchdog() const { return watchdog_; }

  const TimeMonitor& time_monitor() const { return time_monitor_; }
  const PowerMonitor& power_monitor() const { return power_monitor_; }
  const EnergyMonitor& energy_monitor() const { return energy_monitor_; }

  /// One-line status string (mARGOt's margot::log analogue): current
  /// operating point, last observed EFPs and the correction factors.
  std::string log() const;

 private:
  /// Guarded feedback: skips rejected / non-positive observations.
  void send_feedback_checked(std::size_t metric, double observed, bool rejected);

  Asrtm asrtm_;
  const platform::Clock* clock_;  ///< decision-journal timestamps
  TimeMonitor time_monitor_;
  PowerMonitor power_monitor_;
  EnergyMonitor energy_monitor_;
  std::size_t current_op_ = 0;
  bool has_selection_ = false;
  RobustnessOptions robustness_;
  OscillationWatchdog watchdog_;
};

}  // namespace socrates::margot
