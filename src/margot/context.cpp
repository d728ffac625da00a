#include "margot/context.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "platform/design_space.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace socrates::margot {

RobustnessOptions RobustnessOptions::hardened() {
  RobustnessOptions options;
  options.harden_monitors = true;
  options.outlier_filter = true;
  options.variant_quarantine = true;
  options.oscillation_watchdog = true;
  return options;
}

RobustnessOptions RobustnessOptions::raw() {
  RobustnessOptions options;
  options.harden_monitors = false;
  options.outlier_filter = false;
  options.variant_quarantine = false;
  options.oscillation_watchdog = false;
  return options;
}

Context::Context(KnowledgeBase knowledge, const platform::Clock& clock,
                 const platform::EnergyCounter& energy, std::size_t monitor_window)
    : asrtm_([&] {
        SOCRATES_REQUIRE_MSG(knowledge.metric_names() ==
                                 platform::DesignSpace::metric_names(),
                             "Context requires the (exec_time_s, power_w, throughput) "
                             "metric schema");
        return Asrtm(std::move(knowledge));
      }()),
      clock_(&clock),
      time_monitor_(clock, monitor_window),
      power_monitor_(clock, energy, monitor_window),
      energy_monitor_(energy, monitor_window) {}

void Context::set_robustness(const RobustnessOptions& options) {
  SOCRATES_REQUIRE(options.runaway_factor > 1.0);
  robustness_ = options;
  time_monitor_.set_hardened(options.harden_monitors);
  power_monitor_.set_hardened(options.harden_monitors);
  energy_monitor_.set_hardened(options.harden_monitors);
  power_monitor_.set_wrap_range_uj(options.wrap_range_uj);
  energy_monitor_.set_wrap_range_uj(options.wrap_range_uj);
  for (CircularMonitor* stats :
       {&time_monitor_.mutable_stats(), &power_monitor_.mutable_stats(),
        &energy_monitor_.mutable_stats()}) {
    if (options.outlier_filter)
      stats->enable_outlier_filter(options.hampel);
    else
      stats->disable_outlier_filter();
  }
  asrtm_.set_quarantine_options(options.quarantine);
  watchdog_ = OscillationWatchdog(options.watchdog);
}

bool Context::update(std::vector<int>& knobs) {
  TraceSpan span("asrtm-decision", "asrtm");
  if (asrtm_.decision_journal_enabled())
    asrtm_.set_decision_time(clock_->now_s());
  if (robustness_.variant_quarantine) asrtm_.advance_quarantine();
  std::size_t chosen = asrtm_.find_best_operating_point();
  if (robustness_.oscillation_watchdog) chosen = watchdog_.filter(chosen);
  const bool changed = !has_selection_ || chosen != current_op_;
  current_op_ = chosen;
  has_selection_ = true;
  span.set_arg("op", static_cast<std::int64_t>(chosen));
  static Counter& decisions = MetricsRegistry::global().counter("asrtm.decisions");
  decisions.add(1);
  if (changed) {
    static Counter& switches = MetricsRegistry::global().counter("asrtm.switches");
    switches.add(1);
  }
  const auto op = asrtm_.knowledge()[chosen];
  SOCRATES_REQUIRE_MSG(knobs.size() == op.knobs.size(),
                       "knob buffer has " << knobs.size() << " entries, expected "
                                          << op.knobs.size());
  // Elementwise copy from the SoA knob row: no per-update allocation.
  std::copy(op.knobs.begin(), op.knobs.end(), knobs.begin());
  return changed;
}

void Context::start_monitors() {
  time_monitor_.start();
  power_monitor_.start();
  energy_monitor_.start();
}

void Context::cancel_monitors() {
  time_monitor_.cancel();
  power_monitor_.cancel();
  energy_monitor_.cancel();
}

void Context::report_variant_crash() {
  SOCRATES_REQUIRE_MSG(has_selection_, "report_variant_crash() before any update()");
  if (robustness_.variant_quarantine) asrtm_.report_variant_failure(current_op_);
}

std::string Context::log() const {
  std::ostringstream os;
  os << "margot:";
  if (!has_selection_) {
    os << " no operating point selected yet";
    return os.str();
  }
  const auto op = asrtm_.knowledge()[current_op_];
  os << " op#" << current_op_ << " knobs=[";
  for (std::size_t k = 0; k < op.knobs.size(); ++k) {
    if (k > 0) os << ',';
    os << op.knobs[k];
  }
  os << ']';
  if (!time_monitor_.stats().empty()) {
    os << " time=" << format_double(time_monitor_.stats().last() * 1e3, 1) << "ms";
    os << " power=" << format_double(power_monitor_.stats().last(), 1) << "W";
  }
  os << " corr(t,P)=" << format_double(asrtm_.correction(ContextMetrics::kExecTime), 3)
     << "," << format_double(asrtm_.correction(ContextMetrics::kPower), 3);
  if (asrtm_.quarantined_count() > 0)
    os << " quarantined=" << asrtm_.quarantined_count();
  return os.str();
}

void Context::send_feedback_checked(std::size_t metric, double observed,
                                    bool rejected) {
  // send_feedback requires a positive, finite observation; anything
  // else (or a sample the hardened monitor rejected) is skipped.
  if (rejected || !std::isfinite(observed) || observed <= 0.0) return;
  asrtm_.send_feedback(current_op_, metric, observed);
}

void Context::stop_monitors() {
  SOCRATES_REQUIRE_MSG(has_selection_, "stop_monitors() before any update()");
  const double elapsed = time_monitor_.stop();
  const double watts = power_monitor_.stop();
  energy_monitor_.stop();

  if (robustness_.variant_quarantine && std::isfinite(elapsed) && elapsed > 0.0) {
    // Acceptance test against the (corrected) expectation: a runaway
    // run means the clone returned garbage, not that the platform
    // drifted eight-fold in one iteration.
    const double expected = asrtm_.knowledge()[current_op_].metrics[ContextMetrics::kExecTime].mean *
                            asrtm_.correction(ContextMetrics::kExecTime);
    if (expected > 0.0 && elapsed > robustness_.runaway_factor * expected) {
      asrtm_.report_variant_failure(current_op_);
      return;  // a garbage run must not steer the corrections
    }
    asrtm_.report_variant_success(current_op_);
  }

  send_feedback_checked(ContextMetrics::kExecTime, elapsed,
                        time_monitor_.last_rejected());
  send_feedback_checked(ContextMetrics::kPower, watts, power_monitor_.last_rejected());
  if (std::isfinite(elapsed) && elapsed > 0.0)
    send_feedback_checked(ContextMetrics::kThroughput, 1.0 / elapsed,
                          time_monitor_.last_rejected());
}

}  // namespace socrates::margot
