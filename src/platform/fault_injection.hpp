// Platform-level fault injection.
//
// The disturbance model (platform/disturbance.hpp) covers the *benign*
// dynamics the paper talks about — co-runners stealing bandwidth and
// power.  This module covers the hostile ones a production deployment
// actually meets: RAPL counters that wrap their 32-bit register, sysfs
// reads that transiently fail, frozen counters, spike outliers, clock
// jitter, and compiled kernel clones that crash or return garbage.  A
// FaultSchedule mirrors DisturbanceSchedule: the executor and the
// sensor decorators consult it at simulated time t, while the adaptive
// layers above (monitors, AS-RTM) never see the schedule — they must
// *survive* it through the defenses exercised by
// tests/fault_tolerance_test and bench/ablation_fault_tolerance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/clock.hpp"
#include "platform/perf_model.hpp"
#include "platform/rapl.hpp"
#include "support/rng.hpp"

namespace socrates::platform {

/// Kinds of sensor faults a schedule can inject.
enum class SensorFaultKind {
  /// The energy counter wraps modulo `magnitude` microjoules (RAPL's
  /// energy register is 32 bits wide; the canonical range is 2^32 uJ).
  kCounterWrap,
  /// The counter freezes at its episode-entry value (hung MSR read).
  kStuckCounter,
  /// With `probability`, a read fails and yields NaN (vanished or
  /// unreadable sysfs file).
  kReadFailure,
  /// With `probability`, a read is inflated by `magnitude` uJ (bus
  /// glitch / firmware hiccup producing a one-sample outlier).
  kSpike,
  /// Timestamps gain N(0, magnitude seconds) of noise, so short
  /// regions can even appear to run backwards.
  kClockJitter,
};

const char* to_string(SensorFaultKind kind);

/// One sensor-fault episode on the simulated machine.
struct SensorFault {
  SensorFaultKind kind = SensorFaultKind::kSpike;
  double start_s = 0.0;
  double end_s = 0.0;
  /// kCounterWrap: wrap range in uJ; kSpike: amplitude in uJ;
  /// kClockJitter: jitter standard deviation in seconds.
  double magnitude = 0.0;
  /// kReadFailure / kSpike: per-read fault probability.
  double probability = 1.0;

  bool active_at(double t_s) const { return t_s >= start_s && t_s < end_s; }
};

/// A compiler-config clone that misbehaves: with some probability each
/// invocation crashes (aborting after a fraction of its runtime) or
/// returns garbage measurements (a pathological execution).
struct VariantFault {
  FlagConfig config;                ///< the faulty clone
  double start_s = 0.0;
  double end_s = 1e300;             ///< default: faulty forever
  double crash_probability = 0.0;
  double garbage_probability = 0.0;
  /// A crashing run burns this fraction of its nominal time before dying.
  double crash_fraction = 0.1;
  /// A garbage run inflates exec time by ~this factor (and skews power).
  double garbage_scale = 50.0;

  bool active_at(double t_s) const { return t_s >= start_s && t_s < end_s; }
};

/// Thrown by KernelExecutor::run when the selected clone crashes.
class VariantCrash : public std::runtime_error {
 public:
  VariantCrash(const std::string& what, double partial_time_s)
      : std::runtime_error(what), partial_time_s_(partial_time_s) {}

  /// Simulated time the run consumed before dying.
  double partial_time_s() const { return partial_time_s_; }

 private:
  double partial_time_s_;
};

/// A time-ordered set of sensor and variant faults (episodes may
/// overlap; sensor corruptions compose in declaration order).
class FaultSchedule {
 public:
  void add(SensorFault fault);
  void add(VariantFault fault);

  bool empty() const { return sensor_faults_.empty() && variant_faults_.empty(); }

  /// Latch state for kStuckCounter, owned by the reading side so one
  /// schedule can corrupt several independent counters.
  struct StuckState {
    bool latched = false;
    double value_uj = 0.0;
  };

  /// Applies every sensor fault active at `t_s` to a clean counter
  /// reading.  May return NaN (failed read).
  double corrupt_energy_reading(double clean_uj, double t_s, Rng& rng,
                                StuckState& stuck) const;

  /// Applies clock-jitter faults active at `t_s` to a clean timestamp.
  double corrupt_timestamp(double clean_s, double t_s, Rng& rng) const;

  enum class VariantOutcome { kNominal, kCrash, kGarbage };

  struct VariantRoll {
    VariantOutcome outcome = VariantOutcome::kNominal;
    const VariantFault* fault = nullptr;  ///< non-null unless nominal
  };

  /// Rolls the dice for one invocation of `config` at time `t_s`.
  VariantRoll roll_variant(const Configuration& config, double t_s, Rng& rng) const;

 private:
  std::vector<SensorFault> sensor_faults_;
  std::vector<VariantFault> variant_faults_;
};

/// EnergyCounter decorator: the monitors read the inner counter through
/// the fault schedule, exactly as they would read a flaky RAPL MSR.
class FaultyEnergyCounter final : public EnergyCounter {
 public:
  /// All referents must outlive the decorator.
  FaultyEnergyCounter(const EnergyCounter& inner, const Clock& clock,
                      const FaultSchedule& faults, std::uint64_t seed = 0xfa017);

  double energy_uj() const override;
  std::string backend() const override { return "faulty(" + inner_.backend() + ")"; }

 private:
  const EnergyCounter& inner_;
  const Clock& clock_;
  const FaultSchedule& faults_;
  mutable Rng rng_;
  mutable FaultSchedule::StuckState stuck_;
};

/// Clock decorator: timestamps pass through the schedule's jitter
/// faults (which may transiently violate monotonicity — that is the
/// fault being modelled).
class FaultyClock final : public Clock {
 public:
  FaultyClock(const Clock& inner, const FaultSchedule& faults,
              std::uint64_t seed = 0xc10c);

  double now_s() const override;

 private:
  const Clock& inner_;
  const FaultSchedule& faults_;
  mutable Rng rng_;
};

}  // namespace socrates::platform
