// The mARGOt monitoring infrastructure.
//
// Monitors gather insight on the actual behaviour of the target kernel
// and of the execution environment (Section II of the paper).  Each
// monitor keeps a circular buffer of the last `window` observations and
// exposes statistical providers (average, standard deviation, min, max,
// last, plus the robust median / MAD pair).  Concrete monitors wrap the
// platform time base and the RAPL energy counter:
//   TimeMonitor       — wall time of a start()/stop() region
//   ThroughputMonitor — completed units per second of a region
//   EnergyMonitor     — Joules consumed by a region (RAPL delta)
//   PowerMonitor      — average Watts over a region (energy / time)
//
// Real sensors misbehave (platform/fault_injection.hpp models how), so
// the monitors are *hardened by default*: energy deltas that straddle a
// RAPL register wrap are corrected, and samples that remain negative or
// non-finite are rejected (tallied, not recorded) instead of steering
// the AS-RTM.  Hardening is observable through last_rejected() /
// rejected() and can be disabled (set_hardened(false)) to measure the
// unprotected baseline — bench/ablation_fault_tolerance does exactly
// that.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "platform/clock.hpp"
#include "platform/rapl.hpp"

namespace socrates::margot {

/// Fixed-capacity circular buffer of observations with statistics.
class CircularMonitor {
 public:
  /// Hampel-style outlier filter: a pushed value farther than
  /// `threshold` robust sigmas (1.4826 * MAD) from the window median is
  /// rejected.  A genuine level shift (the co-runner of Figure 5)
  /// produces *consecutive* flags, so after `max_consecutive` rejected
  /// pushes the filter concedes it is looking at a shift and accepts.
  /// Windows with MAD == 0 (all-identical samples, or count below
  /// `min_samples`) carry no dispersion information and never reject.
  struct OutlierFilter {
    double threshold = 6.0;
    std::size_t min_samples = 3;
    std::size_t max_consecutive = 3;
  };

  explicit CircularMonitor(std::size_t window = 1);

  /// Records `value` unless the enabled outlier filter flags it.
  /// Returns true when the value was recorded.
  bool push(double value);
  void clear();

  std::size_t window() const { return window_; }
  std::size_t count() const { return values_.size(); }  ///< <= window
  bool empty() const { return values_.empty(); }

  double last() const;
  double average() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Median of the current window (linear interpolation on even counts).
  double median() const;
  /// Median absolute deviation from the median (robust spread).
  double mad() const;

  void enable_outlier_filter();  ///< with default OutlierFilter settings
  void enable_outlier_filter(OutlierFilter filter);
  void disable_outlier_filter();
  /// Pushes the filter rejected since construction / clear().
  std::size_t outliers_rejected() const { return outliers_rejected_; }

 private:
  bool is_outlier(double value) const;

  std::size_t window_;
  std::size_t next_ = 0;       ///< insertion cursor once the buffer is full
  std::vector<double> values_; ///< grows to `window_` then wraps
  bool filter_enabled_ = false;
  OutlierFilter filter_;
  std::size_t consecutive_rejections_ = 0;
  std::size_t outliers_rejected_ = 0;
};

/// State and bookkeeping shared by the concrete region monitors: the
/// start()/stop() protocol (misuse throws ContractViolation via
/// support/error.hpp), sample-rejection accounting and the hardening
/// switch.
class RegionMonitorBase {
 public:
  const CircularMonitor& stats() const { return stats_; }
  CircularMonitor& mutable_stats() { return stats_; }

  /// Hardened (default): invalid samples are rejected, wrap deltas
  /// corrected.  Raw: every observation is recorded verbatim.
  void set_hardened(bool hardened) { hardened_ = hardened; }
  bool hardened() const { return hardened_; }

  /// True while a region is open (start() without stop()).
  bool running() const { return running_; }

  /// The raw value observed by the last stop(), before any rejection.
  double last_observation() const { return last_observation_; }
  /// True when the last stop() rejected its sample (hardening or the
  /// outlier filter).
  bool last_rejected() const { return last_rejected_; }
  /// Samples rejected since construction.
  std::size_t rejected() const { return rejected_; }

 protected:
  explicit RegionMonitorBase(std::size_t window) : stats_(window) {}

  void begin(const char* who);
  void end(const char* who);
  /// Records or rejects `value`; returns it either way.
  double record(double value, bool valid);

  CircularMonitor stats_;
  bool running_ = false;

 private:
  bool hardened_ = true;
  double last_observation_ = 0.0;
  bool last_rejected_ = false;
  std::size_t rejected_ = 0;
};

/// Measures the wall-clock time of a region in seconds.
class TimeMonitor : public RegionMonitorBase {
 public:
  TimeMonitor(const platform::Clock& clock, std::size_t window = 1);

  void start();
  /// Records the elapsed time; requires a prior start().  Hardened
  /// monitors reject non-finite or negative elapsed times (jittery
  /// clocks can produce both).
  double stop();
  /// Abandons the open region without recording (e.g. the kernel
  /// invocation crashed).  Requires a prior start().
  void cancel();

 private:
  const platform::Clock& clock_;
  double start_time_ = 0.0;
};

/// Units of work completed per second over a region.
class ThroughputMonitor : public RegionMonitorBase {
 public:
  ThroughputMonitor(const platform::Clock& clock, std::size_t window = 1);

  void start();
  /// Records `units / elapsed`; requires a prior start().  A region of
  /// exactly zero length is a caller bug and throws; a *negative*
  /// elapsed (faulty clock) is rejected when hardened.
  double stop(double units = 1.0);
  void cancel();

 private:
  const platform::Clock& clock_;
  double start_time_ = 0.0;
};

/// Joules consumed over a region (RAPL counter delta).
class EnergyMonitor : public RegionMonitorBase {
 public:
  EnergyMonitor(const platform::EnergyCounter& counter, std::size_t window = 1);

  void start();
  /// Records the counter delta in Joules.  Hardened monitors correct a
  /// delta that straddled a register wrap (end < start with the
  /// corrected value inside wrap_range) and reject samples that remain
  /// non-finite or non-positive (stuck counter, failed read).
  double stop();
  void cancel();

  /// Register range used for wraparound correction (uJ); defaults to
  /// the 32-bit RAPL energy register.
  void set_wrap_range_uj(double range_uj);
  double wrap_range_uj() const { return wrap_range_uj_; }
  /// Wrapped deltas successfully corrected so far.
  std::size_t wraps_corrected() const { return wraps_corrected_; }

 private:
  const platform::EnergyCounter& counter_;
  double start_energy_uj_ = 0.0;
  double wrap_range_uj_ = platform::kRaplWrapRangeUj;
  std::size_t wraps_corrected_ = 0;
};

/// Average power over a region: RAPL energy delta / clock delta.
class PowerMonitor : public RegionMonitorBase {
 public:
  PowerMonitor(const platform::Clock& clock, const platform::EnergyCounter& counter,
               std::size_t window = 1);

  void start();
  /// Records joules/elapsed.  Same wraparound correction and rejection
  /// rules as EnergyMonitor, plus rejection of non-positive elapsed
  /// times when hardened.  A region of exactly zero length throws.
  double stop();
  void cancel();

  void set_wrap_range_uj(double range_uj);
  double wrap_range_uj() const { return wrap_range_uj_; }
  std::size_t wraps_corrected() const { return wraps_corrected_; }

 private:
  const platform::Clock& clock_;
  const platform::EnergyCounter& counter_;
  double start_time_ = 0.0;
  double start_energy_uj_ = 0.0;
  double wrap_range_uj_ = platform::kRaplWrapRangeUj;
  std::size_t wraps_corrected_ = 0;
};

}  // namespace socrates::margot
