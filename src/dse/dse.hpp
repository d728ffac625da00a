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
// The space and every encoding of a design point live in
// platform::DesignSpace.  This header holds one point's measurement and
// the profile codec; which points get profiled is an Explorer's
// choice, and every strategy profiles through the one loop
// dse::profile_points (explorer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "margot/operating_point.hpp"
#include "platform/design_space.hpp"
#include "platform/kernel_model.hpp"
#include "platform/perf_model.hpp"

namespace socrates::dse {

/// One profiled design point: its flat index in the DesignSpace it was
/// profiled in (the space turns it into a configuration, a knob row or
/// a clone) and the measured means and deviations.
struct ProfiledPoint {
  std::size_t flat = 0;
  double exec_time_mean_s = 0.0;
  double exec_time_stddev_s = 0.0;
  double power_mean_w = 0.0;
  double power_stddev_w = 0.0;

  double throughput() const { return 1.0 / exec_time_mean_s; }
};

/// Bytes of one profile record: the flat index as a u32, then the four
/// measurements as IEEE-754 doubles, all little-endian.
inline constexpr std::size_t kProfileRecordBytes = 4 + 4 * 8;

/// Encodes a profile for the artifact cache: a u32 record count, then
/// one kProfileRecordBytes record per point in order.  Doubles keep
/// their bits, so a reload is exact.  Throws ContractViolation for a
/// flat index that does not fit a u32.
std::string save_profile(const std::vector<ProfiledPoint>& points);

/// Decodes save_profile() output of a profile of `space`.  Throws
/// ContractViolation unless `bytes` is exactly the count and its
/// records, and every flat index lies in the space.
std::vector<ProfiledPoint> load_profile(const platform::DesignSpace& space,
                                        std::string_view bytes);

/// Indices of the Pareto-optimal points (ascending): maximize
/// throughput, minimize power.  A point is dominated when another point
/// is at least as good on both axes and strictly better on one;
/// duplicate points never dominate each other, so exact ties all
/// survive.  Sort-based sweep, O(n log n).
std::vector<std::size_t> pareto_filter(const std::vector<ProfiledPoint>& points);

/// Exports profiled points of `space` to a mARGOt knowledge base under
/// the space's knob and metric schema (DesignSpace::knob_row).  Throws
/// ContractViolation for a point the space does not hold.
margot::KnowledgeBase to_knowledge_base(const platform::DesignSpace& space,
                                        const std::vector<ProfiledPoint>& points);

/// Exports only the selected points (indices into `points`, e.g. the
/// representative set of representative.hpp) — the pruned knowledge
/// base the AS-RTM searches when SOCRATES_DSE_PRUNE is active.
margot::KnowledgeBase to_knowledge_base(const platform::DesignSpace& space,
                                        const std::vector<ProfiledPoint>& points,
                                        const std::vector<std::size_t>& indices);

}  // namespace socrates::dse
