// Design Space Exploration.
//
// SOCRATES profiles the woven application over the full factorial
// autotuning space — compiler configuration (CO) x OpenMP threads (TN)
// x binding policy (BP) — to build the design-time knowledge mARGOt
// needs (Section III: "we used a full-factorial analysis over the
// design space, however our approach is agnostic with respect to the
// used DSE strategy").  Each point is measured `repetitions` times with
// measurement noise; the mean/stddev land in the knowledge base.
// The Pareto filter over (throughput up, power down) feeds Figure 3.
//
// This header holds the space, one point's measurement and the profile
// formats; which points get profiled is an Explorer's choice, and every
// strategy profiles through the one loop dse::profile_points
// (explorer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "margot/operating_point.hpp"
#include "platform/flags.hpp"
#include "platform/kernel_model.hpp"
#include "platform/perf_model.hpp"
#include "platform/topology.hpp"

namespace socrates::dse {

/// The factorial knob space.
struct DesignSpace {
  std::vector<platform::NamedConfig> configs;
  std::vector<std::size_t> thread_counts;
  std::vector<platform::BindingPolicy> bindings;

  std::size_t size() const {
    return configs.size() * thread_counts.size() * bindings.size();
  }

  /// The paper's space: 8 configs (Os,O1,O2,O3,CF1-4) x threads
  /// 1..logical cores x {close, spread}.
  static DesignSpace paper_space(const platform::MachineTopology& topology);
};

/// One profiled configuration.
struct ProfiledPoint {
  std::size_t config_index = 0;  ///< into DesignSpace::configs
  std::string config_name;
  platform::Configuration configuration;
  double exec_time_mean_s = 0.0;
  double exec_time_stddev_s = 0.0;
  double power_mean_w = 0.0;
  double power_stddev_w = 0.0;

  double throughput() const { return 1.0 / exec_time_mean_s; }
};

/// Profiles one design point: `repetitions` noisy runs, mean/stddev in
/// the returned ProfiledPoint.  Callers derive `noise` per point
/// (derive_stream) so results do not depend on profiling order.
ProfiledPoint profile_point(const platform::PerformanceModel& model,
                            const platform::KernelModelParams& kernel,
                            const DesignSpace& space, std::size_t config_index,
                            std::size_t threads, platform::BindingPolicy binding,
                            std::size_t repetitions, Rng& noise, double work_scale);

/// Writes a profile in the artifact-cache text format (hexfloat
/// doubles, exact round trip).
void save_profile(std::ostream& out, const std::vector<ProfiledPoint>& points);

/// Parses a profile written by save_profile().  Throws
/// ContractViolation on malformed input.
std::vector<ProfiledPoint> load_profile(std::istream& in);

/// Indices of the Pareto-optimal points (ascending): maximize
/// throughput, minimize power.  A point is dominated when another point
/// is at least as good on both axes and strictly better on one;
/// duplicate points never dominate each other, so exact ties all
/// survive.  Sort-based sweep, O(n log n).
std::vector<std::size_t> pareto_filter(const std::vector<ProfiledPoint>& points);

/// Exports profiled points to a mARGOt knowledge base with knobs
/// (config, threads, binding) and metrics (exec_time_s, power_w,
/// throughput) — the ContextMetrics schema.
margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points);

/// Exports only the selected points (indices into `points`, e.g. the
/// representative set of representative.hpp) — the pruned knowledge
/// base the AS-RTM searches when SOCRATES_DSE_PRUNE is active.
margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points,
                                        const std::vector<std::size_t>& indices);

/// Decodes a knowledge-base knob vector back into a platform
/// configuration, given the space it was built from.
platform::Configuration decode_knobs(const DesignSpace& space,
                                     const std::vector<int>& knobs);

}  // namespace socrates::dse
