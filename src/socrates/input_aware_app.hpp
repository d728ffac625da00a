// Input-aware adaptive application.
//
// Couples margot::MultiKnowledge with the runtime: the toolchain
// profiles the kernel at several representative dataset scales, each
// becoming a feature cluster; at runtime set_input() selects the
// cluster closest to the current input and the AS-RTM decisions are
// made on *that* knowledge.  Requirements (rank + constraints) are
// broadcast to every cluster so a policy survives input changes, while
// feedback corrections stay per cluster (they describe how *this*
// input's profile deviates, not a global platform shift).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "margot/context.hpp"
#include "margot/data_features.hpp"
#include "platform/executor.hpp"
#include "socrates/adaptive_app.hpp"
#include "socrates/pipeline.hpp"

namespace socrates {

/// Toolchain product for input-aware execution: one knowledge cluster
/// per profiled dataset scale.
struct InputAwareBinary {
  std::string benchmark;
  platform::DesignSpace space;
  margot::MultiKnowledge knowledge;
  std::vector<double> profiled_scales;
};

/// Builds an InputAwareBinary by running the pipeline once per scale
/// (each scale keys its own DSE artifact, so repeated builds hit the
/// cache).  `scales` must be non-empty, each in (0, 1].
InputAwareBinary build_input_aware(Pipeline& pipeline, const std::string& benchmark,
                                   const std::vector<double>& scales);

class InputAwareApplication {
 public:
  InputAwareApplication(InputAwareBinary binary,
                        const platform::PerformanceModel& platform,
                        std::uint64_t noise_seed = 7);

  /// Declares the current input scale: picks the nearest knowledge
  /// cluster and retunes the executor.  Returns true when the active
  /// cluster changed.
  bool set_input(double scale);

  /// Applies a rank to every cluster's AS-RTM.
  void set_rank_all(const margot::Rank& rank);
  /// Adds a constraint to every cluster's AS-RTM.
  void add_constraint_all(const margot::Constraint& constraint);

  std::size_t active_cluster() const;

  /// One update/start/kernel/stop iteration on the active cluster.
  TraceSample run_iteration();

  double now_s() const { return executor_.clock().now_s(); }

 private:
  InputAwareBinary binary_;
  platform::KernelExecutor executor_;
  std::vector<std::unique_ptr<margot::Context>> contexts_;  ///< one per cluster
  std::size_t active_ = 0;
  bool input_set_ = false;
  std::vector<int> knobs_;  ///< one slot per DesignSpace knob
};

}  // namespace socrates
