#include "socrates/input_aware_app.hpp"

#include "kernels/registry.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace socrates {

InputAwareBinary build_input_aware(Pipeline& pipeline, const std::string& benchmark,
                                   const std::vector<double>& scales) {
  SOCRATES_REQUIRE(!scales.empty());
  for (const double s : scales) SOCRATES_REQUIRE(s > 0.0 && s <= 1.0);

  margot::DataFeatureSchema schema;
  schema.names = {"dataset_scale"};
  schema.comparisons = {margot::FeatureComparison::kDontCare};

  InputAwareBinary out{benchmark, {}, margot::MultiKnowledge(schema), scales};

  // One DSE per representative input; the knob space is identical
  // across clusters (same kernel versions in the woven binary), only
  // the profiled behaviour differs.
  for (const double scale : scales) {
    auto binary = pipeline.build(benchmark, scale);
    if (out.space.configs.empty()) out.space = binary.space;
    out.knowledge.add_cluster({scale}, std::move(binary.knowledge));
  }
  log_info() << "input-aware binary for " << benchmark << ": " << scales.size()
             << " knowledge clusters";
  return out;
}

InputAwareApplication::InputAwareApplication(InputAwareBinary binary,
                                             const platform::PerformanceModel& platform,
                                             std::uint64_t noise_seed)
    : binary_(std::move(binary)),
      executor_(platform, kernels::find_benchmark(binary_.benchmark).model,
                /*work_scale=*/1.0, noise_seed),
      knobs_(platform::DesignSpace::knob_names().size()) {
  SOCRATES_REQUIRE(binary_.knowledge.cluster_count() >= 1);
  contexts_.reserve(binary_.knowledge.cluster_count());
  for (std::size_t i = 0; i < binary_.knowledge.cluster_count(); ++i) {
    contexts_.push_back(std::make_unique<margot::Context>(
        binary_.knowledge.cluster(i).knowledge, executor_.sensor_clock(),
        executor_.sensor_counter()));
  }
}

bool InputAwareApplication::set_input(double scale) {
  SOCRATES_REQUIRE(scale > 0.0);
  const std::size_t chosen = binary_.knowledge.select({scale});
  executor_.set_work_scale(scale);
  const bool changed = !input_set_ || chosen != active_;
  active_ = chosen;
  input_set_ = true;
  return changed;
}

void InputAwareApplication::set_rank_all(const margot::Rank& rank) {
  for (auto& ctx : contexts_) ctx->asrtm().set_rank(rank);
}

void InputAwareApplication::add_constraint_all(const margot::Constraint& constraint) {
  for (auto& ctx : contexts_) ctx->asrtm().add_constraint(constraint);
}

std::size_t InputAwareApplication::active_cluster() const {
  SOCRATES_REQUIRE_MSG(input_set_, "set_input() has not been called yet");
  return active_;
}

TraceSample InputAwareApplication::run_iteration() {
  SOCRATES_REQUIRE_MSG(input_set_, "set_input() has not been called yet");
  margot::Context& ctx = *contexts_[active_];

  TraceSample sample;
  sample.configuration_changed = ctx.update(knobs_);
  const auto point = binary_.space.decode(knobs_);
  const platform::Configuration config = binary_.space.configuration(point);

  ctx.start_monitors();
  const platform::Measurement m = executor_.run(config);
  ctx.stop_monitors();

  sample.timestamp_s = executor_.clock().now_s();
  sample.exec_time_s = m.exec_time_s;
  sample.power_w = m.avg_power_w;
  sample.config_name = binary_.space.configs[point.config].name;
  sample.threads = config.threads;
  sample.binding = config.binding;
  return sample;
}

}  // namespace socrates
