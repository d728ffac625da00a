#include "socrates/adaptive_app.hpp"

#include "kernels/registry.hpp"
#include "support/error.hpp"

namespace socrates {

namespace {

/// The monitor's view of the last region: the accepted observation, or
/// the window's robust center when the sample was rejected (the best
/// estimate a hardened stack can report).
double observed_value(const margot::RegionMonitorBase& monitor) {
  if (!monitor.last_rejected()) return monitor.last_observation();
  return monitor.stats().empty() ? 0.0 : monitor.stats().median();
}

}  // namespace

AdaptiveApplication::AdaptiveApplication(AdaptiveBinary binary,
                                         const platform::PerformanceModel& platform,
                                         double work_scale, std::uint64_t noise_seed)
    : binary_(std::move(binary)),
      executor_(platform, kernels::find_benchmark(binary_.benchmark).model, work_scale,
                noise_seed),
      context_(binary_.knowledge, executor_.sensor_clock(), executor_.sensor_counter()),
      knobs_(platform::DesignSpace::knob_names().size()) {}

TraceSample AdaptiveApplication::run_iteration() {
  TraceSample sample;
  sample.configuration_changed = context_.update(knobs_);

  const auto point = binary_.space.decode(knobs_);
  const platform::Configuration config = binary_.space.configuration(point);
  sample.config_name = binary_.space.configs[point.config].name;
  sample.threads = config.threads;
  sample.binding = config.binding;

  context_.start_monitors();
  platform::Measurement m;
  try {
    m = executor_.run(config);
  } catch (const platform::VariantCrash&) {
    context_.cancel_monitors();
    context_.report_variant_crash();
    sample.crashed = true;
    sample.timestamp_s = executor_.clock().now_s();
    return sample;
  }
  context_.stop_monitors();

  sample.timestamp_s = executor_.clock().now_s();
  sample.exec_time_s = m.exec_time_s;
  sample.power_w = m.avg_power_w;
  sample.observed_time_s = observed_value(context_.time_monitor());
  sample.observed_power_w = observed_value(context_.power_monitor());
  sample.observed_energy_j = observed_value(context_.energy_monitor());
  sample.sample_rejected = context_.time_monitor().last_rejected() ||
                           context_.power_monitor().last_rejected() ||
                           context_.energy_monitor().last_rejected();
  return sample;
}

void AdaptiveApplication::run_until(double until_s, std::vector<TraceSample>& trace) {
  SOCRATES_REQUIRE(until_s >= now_s());
  while (now_s() < until_s) trace.push_back(run_iteration());
}

}  // namespace socrates
