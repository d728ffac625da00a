// The autotuning knob space and the one encoding of a design point.
//
// The paper tunes compiler configuration (CO) x OpenMP threads (TN) x
// binding policy (BP).  DesignSpace is the only code that converts a
// design point between its flat index (config-major, then threads,
// then binding: the full sweep's order, the key of its DSE noise
// stream and what a profile record stores), its Configuration, its
// knowledge-base knob row, its weaver clone and the bytes it feeds an
// artifact-cache key.  A new dimension is a change to this file alone.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "platform/flags.hpp"
#include "platform/perf_model.hpp"
#include "platform/topology.hpp"
#include "support/hash.hpp"

namespace socrates::platform {

/// One clone of the static version space: a compiler configuration
/// bound to a binding policy (the thread count stays dynamic).
struct CloneSpec {
  NamedConfig config;
  BindingPolicy binding = BindingPolicy::kClose;
};

/// The factorial knob space configs x thread_counts x bindings.
struct DesignSpace {
  std::vector<NamedConfig> configs;
  std::vector<std::size_t> thread_counts;
  std::vector<BindingPolicy> bindings;

  /// A design point by its index along each dimension.
  struct Point {
    std::size_t config = 0;
    std::size_t thread = 0;   ///< into thread_counts
    std::size_t binding = 0;  ///< into bindings
  };

  /// The paper's space: the four standard levels followed by
  /// `custom_configs` (CF1-CF4 of Section III by default) x threads
  /// 1..logical cores x {close, spread}.
  static DesignSpace paper_space(
      const MachineTopology& topology,
      const std::vector<NamedConfig>& custom_configs = paper_custom_configs());

  std::size_t size() const {
    return configs.size() * thread_counts.size() * bindings.size();
  }

  Point point(std::size_t flat) const;
  std::size_t flat(const Point& p) const;
  Configuration configuration(const Point& p) const;

  /// Knowledge-base schema: knobs (config, threads, binding), metrics
  /// (exec_time_s, power_w, throughput).
  static const std::vector<std::string>& knob_names();
  static const std::vector<std::string>& metric_names();
  /// (config index, thread count, binding code).
  std::vector<int> knob_row(const Point& p) const;
  /// Inverse of knob_row().  Throws ContractViolation naming the knob
  /// and its value when the row is no point of this space (e.g. a
  /// thread count from a larger machine).
  Point decode(const std::vector<int>& knob_row) const;

  /// Binding code of knob rows: close 0, spread 1.
  static int binding_code(BindingPolicy binding);

  /// Every clone, in version-id order: config-major, then binding.
  std::vector<CloneSpec> clones() const;
  /// The distinct clones that run `points`, in version-id order.
  std::vector<CloneSpec> clones(const std::vector<Point>& points) const;

  void add_to_key(Hasher& h) const;
};

}  // namespace socrates::platform
